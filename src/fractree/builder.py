"""Fixed-point construction of the model space.

The space is the least fixed point of two mutually recursive families:
W collects the noise symbol and all products of up to N integrands, U
collects polynomial monomials and integrals of W members.  Both grow
monotonically, so iteration from the empty family converges whenever the
truncation threshold admits finitely many symbols.

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
computed once per type and kept with the space.  Comparisons and sorting
use integers: with L the common denominator of the noise homogeneity and
rho, every kappa-free part is an exact multiple of 1/L.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional

from .params import (
    ExplosionError,
    Homogeneity,
    Parameters,
    SubcriticalityError,
    _frac,
    is_locally_subcritical,
)
from .symbols import (
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
    "to_json_dict",
    "from_json_dict",
    "save_json",
    "load_json",
]


@dataclass(frozen=True)
class BuildConfig:
    """Truncation threshold, iteration budget and explosion guard for a build."""

    maxh: Fraction
    iter: int = 8
    cap: int = 10_000_000

    def __post_init__(self):
        object.__setattr__(self, "maxh", _frac(self.maxh))
        if self.maxh < 0:
            raise ValueError("maxh must be >= 0")
        if self.iter < 1:
            raise ValueError("iter must be >= 1")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")


class _TypeHomogeneities:
    """Homogeneity of each symbol type (p, q, k) under one set of parameters.

    A symbol's homogeneity depends on its type alone, so the exact Fraction
    arithmetic runs once per type however many symbols share it.  Next to
    the homogeneity each type keeps an integer sort key (units, b): units is
    the kappa-free part times L, the common denominator of alpha0 and rho,
    which every homogeneity of the model is an exact multiple of.  The keys
    order homogeneities exactly as Homogeneity does, and a key below (0, 0)
    marks a negative one.
    """

    __slots__ = ("params", "scale", "_by_type")

    def __init__(self, params: Parameters):
        self.params = params
        self.scale = lcm(params.alpha0.a.denominator, params.rho.denominator)
        self._by_type: dict[tuple, tuple[Homogeneity, tuple[int, int]]] = {}

    def units(self, x: Fraction) -> int:
        """Largest integer u with u / L <= x."""
        return (x.numerator * self.scale) // x.denominator

    def __call__(self, sym: Symbol) -> tuple[Homogeneity, tuple[int, int]]:
        """(homogeneity, (units, kappa coefficient)) of ``sym``."""
        t = (sym.p, sym.q, sym.kvec)
        hit = self._by_type.get(t)
        if hit is None:
            h = homogeneity_of(sym, self.params)
            hit = self._by_type[t] = (h, (self.units(h.a), h.b))
        return hit


@dataclass
class ModelSpace:
    """All symbols kept by a build, each tagged with its first iteration.

    The stored set is the build's truncation: U (monomials and integrals)
    up to ``config.maxh``, W (noise and products) up to
    ``max(config.maxh - rho, 0)``, since a product above that can neither be
    negative nor integrate to a symbol under maxh.  The negative sector,
    counting maps, and exports all derive from `generations`; homogeneities
    are computed once per symbol type and cached with the space.
    """

    params: Parameters
    config: BuildConfig
    converged: bool
    aborted: bool
    generations: dict[Symbol, int]
    _neg: Optional[list] = field(default=None, repr=False, compare=False)
    _types: Optional[_TypeHomogeneities] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._types is None:
            self._types = _TypeHomogeneities(self.params)

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
        hs = {self._types(s)[0] for s in self.generations}
        return sorted(hs)


def completeness_threshold(params: Parameters) -> Fraction:
    """Least maxh at which a converged build certifies its negative sector.

    Each factor of a product that ends up negative lies at most
    (N-1) * |min(alpha0 + rho, 0)| above zero, so that value is a safe
    truncation level.  When integrating the noise already has positive
    homogeneity the threshold is zero.
    """
    climb = params.alpha0.a + params.rho
    if climb >= 0:
        return Fraction(0)
    return -(params.N - 1) * climb


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _monomials(params: Parameters, maxh: Fraction) -> list[Symbol]:
    """All monomials with scaled degree <= maxh, in lexicographic k order."""
    out = []
    k0 = 0
    while params.rho * k0 <= maxh:
        spatial_budget = int(maxh - params.rho * k0)
        for t in range(spatial_budget + 1):
            for comp in _compositions(t, params.d):
                out.append(monomial((k0,) + comp))
        k0 += 1
    return out


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
    ok, _case = is_locally_subcritical(params)
    if not ok:
        raise SubcriticalityError(
            f"parameters N={params.N}, d={params.d}, rho={params.rho}, "
            f"alpha0={params.alpha0} satisfy no subcriticality condition"
        )

    # Integer units throughout: a product's units are the sum of its
    # factors', an integral's are its integrand's plus rho's, so only the
    # seeds' types need a homogeneity.
    types = _TypeHomogeneities(params)
    maxh = config.maxh
    maxh_units = types.units(maxh)
    rho_units = types.units(params.rho)
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
                _types=types,
            )
            raise ExplosionError(
                f"symbol cap {config.cap} reached at iteration {m}", partial=space
            )
        records[sym] = m

    W_set: set[Symbol] = set()
    U_set: set[Symbol] = set()
    pool: list[tuple[int, bytes, Symbol]] = []  # U but the unit, as (units, enc, symbol)
    converged = False

    def pool_products(new_marks: set[Symbol]) -> list[tuple[Symbol, int]]:
        pool.sort()
        units = [u for u, _, _ in pool]
        marks = [s in new_marks for _, _, s in pool]
        tuples = _product_tuples(units, marks, params.N, product_units)
        return [(product([pool[j][2] for j in t]), total) for t, total in tuples]

    def extend_pool(new_U: list[tuple[Symbol, int]]) -> set[Symbol]:
        """Add new U members to the pool; return them for the next round."""
        pool.extend((u, s.enc, s) for s, u in new_U if s is not one_sym)
        return {s for s, _ in new_U}

    # Seeding, tagged generation 0: the noise symbol, every monomial under the
    # threshold, and the integrated noise.  Each following round then combines
    # integrands into products and integrates the new products, so iter counts
    # product rounds; this matches the iteration counts reported alongside the
    # reference sector sizes.
    W_set.add(xi_sym)
    admit(xi_sym, 0)
    seed_U = [(mono, types(mono)[1][0]) for mono in _monomials(params, maxh)]
    ixi_units = types(xi_sym)[1][0] + rho_units
    if ixi_units <= maxh_units:
        seed_U.append((integrate(xi_sym), ixi_units))
    for sym, _ in seed_U:
        U_set.add(sym)
        admit(sym, 0)
    new_last = extend_pool(seed_U)

    for m in range(1, config.iter + 1):
        W_new: list[tuple[Symbol, int]] = []
        if new_last:
            for sym, u in pool_products(new_last):
                if sym not in W_set:
                    W_set.add(sym)
                    if sym not in records:
                        admit(sym, m)
                    W_new.append((sym, u))

        U_new: list[tuple[Symbol, int]] = []
        for tau, u in W_new:
            u += rho_units
            if u > maxh_units:
                continue
            itau = integrate(tau)
            if itau not in U_set:
                U_set.add(itau)
                if itau not in records:
                    admit(itau, m)
                U_new.append((itau, u))

        new_last = extend_pool(U_new)
        if not W_new and not U_new:
            converged = True
            break

    if not converged:
        if not new_last:
            converged = True
        else:
            converged = all(sym in W_set for sym, _ in pool_products(new_last))

    return ModelSpace(
        params=params,
        config=config,
        converged=converged,
        aborted=False,
        generations=records,
        _types=types,
    )


# ---------------------------------------------------------------------------
# sector extraction and counting maps


def negative_sector(ms: ModelSpace) -> list[tuple[Symbol, Homogeneity]]:
    """Stored symbols with negative homogeneity, ascending, ties by encoding."""
    if ms._neg is None:
        entries = []
        for s in ms.generations:
            h, key = ms._types(s)
            if key < (0, 0):
                entries.append((key, s.enc, s, h))
        entries.sort(key=lambda e: e[:2])
        ms._neg = [(s, h) for _, _, s, h in entries]
    return ms._neg


def c_F(ms: ModelSpace) -> int:
    """Number of negative-sector symbols."""
    return len(negative_sector(ms))


def h_F(ms: ModelSpace) -> int:
    """Number of distinct negative homogeneities (kappa coefficient included)."""
    return len({h for _, h in negative_sector(ms)})


def h0_F(ms: ModelSpace) -> int:
    """Distinct negative homogeneities over undecorated symbols only."""
    return len({h for s, h in negative_sector(ms) if not s.kvec})


# ---------------------------------------------------------------------------
# persistence


def _fstr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def to_json_dict(ms: ModelSpace) -> dict:
    d = ms.params.d
    entries = []
    for s in ms.generations:
        h, key = ms._types(s)
        entries.append((key, s.enc, s, h))
    entries.sort(key=lambda e: e[:2])
    symbols = [
        {
            "symbol": render(s, d),
            "p": s.p,
            "q": s.q,
            "k": list(_dense(s.kvec, d)),
            "a": _fstr(h.a),
            "b": h.b,
            "generation": ms.generations[s],
        }
        for _, _, s, h in entries
    ]
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
        "symbols": symbols,
    }


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
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"malformed model space: field {where + key!r} is not a rational: {text!r}"
        ) from None


def from_json_dict(data: dict) -> ModelSpace:
    """Inverse of :func:`to_json_dict`.

    Raises ValueError naming the field when one is missing or mistyped, and
    when a symbol record disagrees with its own type and homogeneity.
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
    c = _field(data, "config", dict)
    config = BuildConfig(
        maxh=_rational(c, "maxh", "config."),
        iter=_field(c, "iter", int, "config."),
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
    for i, rec in enumerate(_field(data, "symbols", list)):
        where = f"symbols[{i}]."
        if not isinstance(rec, dict):
            raise ValueError(f"malformed model space: {where[:-1]!r} must be dict")
        text = _field(rec, "symbol", str, where)
        sym = parse_symbol(text)
        h, _ = ms._types(sym)
        stored = (
            _field(rec, "p", int, where),
            _field(rec, "q", int, where),
            tuple(_field(rec, "k", list, where)),
        )
        actual = (sym.p, sym.q, _dense(sym.kvec, params.d))
        a, b = _field(rec, "a", str, where), _field(rec, "b", int, where)
        if stored != actual or _fstr(h.a) != a or h.b != b:
            raise ValueError(f"inconsistent symbol record: {text!r}")
        if sym in ms.generations:
            raise ValueError(f"duplicate symbol record: {text!r}")
        ms.generations[sym] = _field(rec, "generation", int, where)
    if ms.complete != complete:
        raise ValueError("stored completeness flag disagrees with certificate")
    return ms


def save_json(ms: ModelSpace, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(to_json_dict(ms), indent=2, sort_keys=True))
        fh.write("\n")


def load_json(path: str) -> ModelSpace:
    with open(path) as fh:
        return from_json_dict(json.load(fh))
