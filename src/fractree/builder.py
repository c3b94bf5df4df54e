"""Fixed-point construction of the model space.

The space is the least fixed point of two mutually recursive families:
W collects the noise symbol and all products of up to N integrands, U
collects polynomial monomials and integrals of W members.  Both grow
monotonically, so iteration from the empty family converges whenever the
truncation threshold admits finitely many symbols.  Neither family is kept
as a set: a round's products all hold an integral admitted the round
before, so no product recurs across rounds and the integral of each is new.
One dict from each stored symbol to its first round is the whole state.

Truncation looks at the kappa-free part of a symbol's homogeneity; the
kappa coefficient is ignored for pruning since it only matters
infinitesimally.  The stored set is

* in U, every monomial and every integral I(tau) up to maxh;
* in W, the noise and every product up to max(maxh - rho, 0).

Homogeneity adds up under products and I(tau) sits rho above tau, so a
product above max(maxh - rho, 0) is not negative and its integral would be
cut at maxh: it could never reach the negative sector or become a factor.
For the negative sector to be provably complete, maxh has to clear the
factor bound returned by :func:`completeness_threshold`: any factor of a
negative product sits at most (N-1) integration gaps above zero, so keeping
U up to that level loses nothing that a negative symbol could ever be built
from.

A symbol's homogeneity depends only on its type (p, q, k), so it is
computed once per type by :meth:`Parameters.type_entry`.  Comparisons and
sorting use its integer key: with L the common denominator of the noise
homogeneity and rho, every kappa-free part is an exact multiple of 1/L.
"""

from __future__ import annotations

import bisect
import itertools
import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from .params import (
    ExplosionError,
    Homogeneity,
    Parameters,
    _frac,
    _fstr,
    completeness_threshold,
    require_subcritical,
)
from .symbols import (
    INT,
    Symbol,
    _dense,
    homogeneity_of,
    integrate,
    monomial,
    one,
    parse_symbol,
    product,
    render,
    xi,
)

__all__ = [
    "BuildConfig",
    "ModelSpace",
    "build",
    "completeness_threshold",
    "negative_sector",
    "h0_F",
    "h_F",
    "c_F",
    "generation_of",
    "to_json_dict",
    "json_text",
    "space_json_text",
    "from_json_dict",
    "save_json",
    "load_json",
]


@dataclass(frozen=True)
class BuildConfig:
    """Truncation threshold, iteration budget and explosion guard for a build.

    ``iter`` bounds the product rounds; None runs them until convergence,
    which subcriticality guarantees, with ``cap`` still bounding the size.
    """

    maxh: Fraction
    iter: Optional[int] = None
    cap: int = 10_000_000

    def __post_init__(self):
        object.__setattr__(self, "maxh", _frac(self.maxh))
        if self.maxh < 0:
            raise ValueError("maxh must be >= 0")
        if self.iter is not None and self.iter < 1:
            raise ValueError("iter must be >= 1")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")


@dataclass
class ModelSpace:
    """All symbols kept by a build, each tagged with its first iteration.

    The stored set is the build's truncation: U (monomials and integrals)
    up to ``config.maxh``, W (noise and products) up to
    ``max(config.maxh - rho, 0)``, since a product above that can neither be
    negative nor integrate to a symbol under maxh.  The negative sector,
    counting maps, and exports all read one sort of `generations`, made on
    first use; homogeneities come from ``params``, which computes each
    type's once.
    """

    params: Parameters
    config: BuildConfig
    converged: bool
    aborted: bool
    generations: dict[Symbol, int]
    _order: Optional[tuple] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.generations)

    @property
    def complete(self) -> bool:
        """Certificate that the negative sector cannot grow any further.

        Requires actual convergence plus a threshold at or above the factor
        bound; a converged build below that threshold may still be missing
        negative products whose factors were pruned.
        """
        return (
            self.converged
            and not self.aborted
            and self.config.maxh >= completeness_threshold(self.params)
        )

    def index_set(self) -> list[Homogeneity]:
        """Sorted distinct homogeneities of all stored symbols."""
        entry = self.params.type_entry
        return list(dict(entry(s.p, s.q, s.kvec) for s, _ in self._sorted()[0]).values())

    def _sorted(self) -> tuple[list[tuple[Symbol, Homogeneity]], int]:
        """Every stored symbol with its homogeneity, ascending, ties by
        encoding, and how many of them are negative; sorted once per space."""
        if self._order is None:
            entry = self.params.type_entry
            entries = []
            for s in self.generations:
                key, h = entry(s.p, s.q, s.kvec)
                entries.append((key, s.enc, s, h))
            entries.sort()  # encodings are unique, so no tie reaches s
            n_neg = bisect.bisect_left(entries, ((0, 0),))
            self._order = ([(s, h) for _, _, s, h in entries], n_neg)
        return self._order


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """``total`` as ``parts`` nonnegative ints, lexicographically, from the
    nondecreasing partial sums (bars at ``sums[i] + i``): no recursion in d."""
    for sums in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        edges = (0, *sums, total)
        yield tuple(map(operator.sub, edges[1:], edges))


def _monomials(params: Parameters, maxh_units: int) -> Iterator[tuple[Symbol, int]]:
    """All monomials of at most ``maxh_units`` units, each with its units,
    in lexicographic k order, made one at a time."""
    L, _, R = params.units
    for k0 in range(maxh_units // R + 1):
        for t in range((maxh_units - k0 * R) // L + 1):
            for comp in _compositions(t, params.d):
                yield monomial((k0,) + comp), k0 * R + t * L


def _product_tuples(
    units: list[int], is_new: list[bool], N: int, limit: int
) -> list[tuple[tuple[int, ...], int]]:
    """Index multisets (nondecreasing tuples) of 1..N pool members, with their
    total units.

    The pool is sorted ascending by units, so two prunes apply: once a
    positive-unit member pushes the running total over ``limit`` no later
    member can help, and a branch with no new member in reach can be
    dropped entirely (products of all-old factors were emitted in an
    earlier iteration).  Every emitted tuple has total units <= limit
    (``limit`` >= 0) and at least one new member.
    """
    n_pool = len(units)
    suffix_new = [False] * (n_pool + 1)
    for j in range(n_pool - 1, -1, -1):
        suffix_new[j] = suffix_new[j + 1] or is_new[j]

    out: list[tuple[tuple[int, ...], int]] = []
    stack: list[int] = []

    def walk(start: int, slots: int, total: int, has_new: bool) -> None:
        for j in range(start, n_pool):
            if not has_new and not suffix_new[j]:
                break
            uj = units[j]
            t2 = total + uj
            if uj > 0 and t2 > limit:
                break
            hn = has_new or is_new[j]
            stack.append(j)
            if hn:
                out.append((tuple(stack), t2))
            if slots > 1:
                walk(j, slots - 1, t2, hn)
            stack.pop()

    walk(0, N, 0, False)
    return out


def build(params: Parameters, config: BuildConfig) -> ModelSpace:
    """Iterate the two-family recursion until convergence or the budget ends.

    Monomials and integrals are kept up to ``config.maxh``, products up to
    ``max(config.maxh - rho, 0)``.  Raises SubcriticalityError for
    parameters outside the subcritical regime and ExplosionError (with the
    partial space attached) when the symbol count passes config.cap.  The
    returned space is deterministic: same inputs, same symbols, same
    generation tags.
    """
    require_subcritical(params)

    # Integer units throughout: a monomial's are counted as it is made, a
    # product's are the sum of its factors', an integral's are its
    # integrand's plus rho's, so the walk needs no homogeneity.
    maxh_units = params.floor_units(config.maxh)
    _, xi_units, rho_units = params.units
    product_units = max(maxh_units - rho_units, 0)

    one_sym = one()
    xi_sym = xi()
    records: dict[Symbol, int] = {}

    def admit(sym: Symbol, m: int) -> None:
        if len(records) >= config.cap:
            space = ModelSpace(
                params=params,
                config=config,
                converged=False,
                aborted=True,
                generations=dict(records),
            )
            raise ExplosionError(
                f"symbol cap {config.cap} reached at iteration {m}", partial=space
            )
        records[sym] = m

    # Why ``records`` is the only table kept across rounds: a product's INT
    # children fix its integral factors, and a tuple of round m >= 2 holds a
    # pool member admitted in round m - 1, which is an integral.  So a product
    # is made in one round only, though within that round it can repeat
    # (X*X and X^2 are one symbol).  Its integral is then new as well: every
    # integral but I(Xi) is made here, from a product seen for the first time.
    # A product can still be stored already, as a U member (a 1-tuple is its
    # factor) or a monomial, which keeps its earlier tag.
    pool: list[tuple[int, bytes, Symbol]] = []  # U but the unit, as (units, enc, symbol)

    def round_tuples(m: int) -> list[tuple[tuple[int, ...], int]]:
        """Round m's index tuples over the sorted pool: those with a member
        admitted in round m - 1."""
        pool.sort()
        units = [u for u, _, _ in pool]
        marks = [records[s] == m - 1 for _, _, s in pool]
        return _product_tuples(units, marks, params.N, product_units)

    # Seeding, tagged generation 0: the noise symbol, every monomial under the
    # threshold, and the integrated noise.  Each following round then combines
    # integrands into products and integrates the new products, so iter counts
    # product rounds; this matches the iteration counts reported alongside the
    # reference sector sizes.  Seeds are admitted as they are made, so the cap
    # bounds seeding too.
    admit(xi_sym, 0)
    seeds = _monomials(params, maxh_units)
    ixi_units = xi_units + rho_units
    if ixi_units <= maxh_units:
        seeds = itertools.chain(seeds, [(integrate(xi_sym), ixi_units)])
    for sym, u in seeds:
        admit(sym, 0)
        if sym is not one_sym:
            pool.append((u, sym.enc, sym))

    rounds = itertools.count(1) if config.iter is None else range(1, config.iter + 1)
    for m in rounds:
        W_new: dict[Symbol, int] = {}  # this round's products, in admission order
        for t, total in round_tuples(m):
            sym = product([pool[j][2] for j in t])
            if sym not in W_new:
                W_new[sym] = total
                if sym not in records:
                    admit(sym, m)
        if not W_new:
            converged = True
            break
        for tau, u in W_new.items():
            u += rho_units
            if u <= maxh_units:
                itau = integrate(tau)
                admit(itau, m)
                pool.append((u, itau.enc, itau))
    else:
        # The budget ran out: the space is closed if the next round has no tuple.
        converged = not round_tuples(config.iter + 1)

    return ModelSpace(
        params=params,
        config=config,
        converged=converged,
        aborted=False,
        generations=records,
    )


# ---------------------------------------------------------------------------
# sector extraction and counting maps


def negative_sector(ms: ModelSpace) -> list[tuple[Symbol, Homogeneity]]:
    """Stored symbols with negative homogeneity, ascending, ties by encoding."""
    order, n_neg = ms._sorted()
    return order[:n_neg]


def c_F(ms: ModelSpace) -> int:
    """Number of negative-sector symbols."""
    return len(negative_sector(ms))


def h_F(ms: ModelSpace) -> int:
    """Number of distinct negative homogeneities (kappa coefficient included)."""
    entry = ms.params.type_entry
    return len({entry(s.p, s.q, s.kvec)[0] for s, _ in negative_sector(ms)})


def h0_F(ms: ModelSpace) -> int:
    """Distinct negative homogeneities over undecorated symbols only."""
    entry = ms.params.type_entry
    return len({entry(s.p, s.q, s.kvec)[0] for s, _ in negative_sector(ms) if not s.kvec})


_XI = xi()


def _made(sym: Symbol, memo: dict[Symbol, int]) -> int:
    """The round in which ``sym`` is made as a product: one after the latest
    generation among its integral factors I(c), one per INT child c of the
    root.  I(Xi) is a seed, and every other I(c) is admitted in the round
    c is made.  A root without INT child is a product of monomials, made in
    round 1."""
    latest = 0
    for tag, child in sym.children:
        if tag == INT and child is not _XI:
            made = memo.get(child)
            if made is None:
                made = _made(child, memo)
            if made > latest:
                latest = made
    memo[sym] = latest + 1
    return latest + 1


def generation_of(sym: Symbol, memo: dict[Symbol, int]) -> int:
    """The generation tag a build gives ``sym``, from its shape alone.

    The seeds Xi, the monomials and I(Xi) have generation 0.  An integral
    I(tau) has the round in which tau is made, and any other product the
    round in which it is made, one after the latest generation among its
    integral factors (see :func:`_made`).  A product I(c) of one factor is
    that factor, so I(I(Xi)) has generation 1.  ``memo`` maps each subtree
    to the round it is made in; pass one dict to several calls to fold each
    shared subtree once.
    """
    if not sym.q:
        return 0
    if len(sym.children) == 1 and not sym.decoration:  # I(tau)
        sym = sym.children[0][1]
        if sym is _XI:
            return 0
    made = memo.get(sym)
    return _made(sym, memo) if made is None else made


# ---------------------------------------------------------------------------
# persistence


def _header_dict(ms: ModelSpace) -> dict:
    """Every field of :func:`to_json_dict` but the symbol records."""
    return {
        "parameters": {
            "N": ms.params.N,
            "d": ms.params.d,
            "rho": _fstr(ms.params.rho),
            "alpha0": {"a": _fstr(ms.params.alpha0.a), "b": ms.params.alpha0.b},
        },
        "config": {
            "maxh": _fstr(ms.config.maxh),
            "iter": ms.config.iter,
            "cap": ms.config.cap,
        },
        "converged": ms.converged,
        "complete": ms.complete,
        "aborted": ms.aborted,
    }


def to_json_dict(ms: ModelSpace) -> dict:
    d = ms.params.d
    texts: dict[Symbol, str] = {}  # one render memo: each shared subtree rendered once
    doc = _header_dict(ms)
    doc["symbols"] = [
        {
            "symbol": render(s, d, memo=texts),
            "p": s.p,
            "q": s.q,
            "k": list(_dense(s.kvec, d)),
            "a": _fstr(h.a),
            "b": h.b,
            "generation": ms.generations[s],
        }
        for s, h in ms._sorted()[0]
    ]
    return doc


def _field(doc: dict, key: str, kind: type, where: str = ""):
    """``doc[key]`` if present and of type ``kind``, else a ValueError naming it."""
    name = where + key
    if key not in doc:
        raise ValueError(f"malformed model space: missing field {name!r}")
    value = doc[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"malformed model space: field {name!r} must be {kind.__name__}")
    return value


def _rational(doc: dict, key: str, where: str = "") -> Fraction:
    text = _field(doc, key, str, where)
    try:
        return _frac(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"malformed model space: field {where + key!r} is not a rational: {text!r}"
        ) from None


def from_json_dict(data: dict) -> ModelSpace:
    """Inverse of :func:`to_json_dict`.

    Raises ValueError naming the field when one is missing or mistyped,
    when a symbol record disagrees with its own type and homogeneity, and
    when its generation is not the one :func:`generation_of` gives;
    SubcriticalityError, as :func:`build` does, for parameters without a
    finite negative sector.
    """
    if not isinstance(data, dict):
        raise ValueError("malformed model space: expected a JSON object")
    p = _field(data, "parameters", dict)
    N = _field(p, "N", int, "parameters.")
    d = _field(p, "d", int, "parameters.")
    rho = _rational(p, "rho", "parameters.")
    alpha0 = _field(p, "alpha0", dict, "parameters.")
    params = Parameters(
        N=N,
        d=d,
        rho=rho,
        alpha0=Homogeneity(
            _rational(alpha0, "a", "parameters.alpha0."),
            _field(alpha0, "b", int, "parameters.alpha0."),
        ),
    )
    require_subcritical(params)
    c = _field(data, "config", dict)
    config = BuildConfig(
        maxh=_rational(c, "maxh", "config."),
        iter=None if "iter" in c and c["iter"] is None else _field(c, "iter", int, "config."),
        cap=_field(c, "cap", int, "config."),
    )
    ms = ModelSpace(
        params=params,
        config=config,
        converged=_field(data, "converged", bool),
        aborted=_field(data, "aborted", bool),
        generations={},
    )
    complete = _field(data, "complete", bool)
    blocks: dict[str, Symbol] = {}  # one parse memo: each shared I(...) parsed once
    rounds: dict[Symbol, int] = {}  # one generation memo: each shared subtree folded once
    for i, rec in enumerate(_field(data, "symbols", list)):
        where = f"symbols[{i}]."
        if not isinstance(rec, dict):
            raise ValueError(f"malformed model space: {where[:-1]!r} must be dict")
        text = _field(rec, "symbol", str, where)
        sym = parse_symbol(text, memo=blocks)
        h = homogeneity_of(sym, params)
        k = _field(rec, "k", list, where)
        if any(isinstance(x, bool) or not isinstance(x, int) for x in k):
            raise ValueError(f"malformed model space: field {where + 'k'!r} must be a list of int")
        stored = (_field(rec, "p", int, where), _field(rec, "q", int, where), tuple(k))
        actual = (sym.p, sym.q, _dense(sym.kvec, params.d))
        a, b = _field(rec, "a", str, where), _field(rec, "b", int, where)
        if stored != actual or _fstr(h.a) != a or h.b != b:
            raise ValueError(f"inconsistent symbol record: {text!r}")
        if sym in ms.generations:
            raise ValueError(f"duplicate symbol record: {text!r}")
        generation = _field(rec, "generation", int, where)
        if generation < 0:
            raise ValueError(f"malformed model space: field {where + 'generation'!r} must be >= 0")
        made = generation_of(sym, rounds)
        if generation != made:
            raise ValueError(
                f"inconsistent symbol record: field {where + 'generation'!r} is {generation},"
                f" but a build makes {text!r} in round {made}"
            )
        ms.generations[sym] = generation
    if ms.complete != complete:
        raise ValueError("stored completeness flag disagrees with certificate")
    return ms


# how json.dumps writes a string with ensure_ascii, in C where available
_json_str = json.encoder.encode_basestring_ascii


def json_text(doc: dict) -> str:
    """JSON text as every output file holds it: two-space indent, sorted
    keys, a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# A separator, then one symbol record of json_text(to_json_dict(ms)) with
# its keys in sorted order, at the depth a "symbols" entry sits; ``k``
# always has d + 1 >= 2 entries.
_RECORD = (
    "%s{\n"
    '      "a": %s,\n'
    '      "b": %d,\n'
    '      "generation": %d,\n'
    '      "k": [\n'
    "        %s\n"
    "      ],\n"
    '      "p": %d,\n'
    '      "q": %d,\n'
    '      "symbol": %s\n'
    "    }"
)


def space_json_text(ms: ModelSpace) -> str:
    """``json_text(to_json_dict(ms))``, written straight from the sorted space.

    The header is :func:`json_text` of the other fields, and each symbol
    record is one formatting of a constant template: one piece per record,
    all joined once.
    """
    d = ms.params.d
    generations = ms.generations
    # the header less its closing "\n}\n"; "symbols" sorts after every
    # header key
    parts = [json_text(_header_dict(ms))[:-3] + ',\n  "symbols": ']
    texts: dict[Symbol, str] = {}  # one render memo: each shared subtree rendered once
    records = ms._sorted()[0]
    sep = "[\n    "
    for s, h in records:
        parts.append(
            _RECORD
            % (
                sep,
                _json_str(_fstr(h.a)),
                h.b,
                generations[s],
                ",\n        ".join(map(str, _dense(s.kvec, d))),
                s.p,
                s.q,
                _json_str(render(s, d, memo=texts)),
            )
        )
        sep = ",\n    "
    parts.append("\n  ]\n}\n" if records else "[]\n}\n")
    return "".join(parts)


def save_json(ms: ModelSpace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(space_json_text(ms))


def load_json(path: str) -> ModelSpace:
    with open(path, encoding="utf-8") as fh:
        return from_json_dict(json.load(fh))
