"""Decorated-tree symbols and their algebra.

A symbol is a rooted combinatorial tree with two edge colours and integer
multiindex decorations on vertices:

* a noise edge (XI) always points at an undecorated leaf and stands for one
  occurrence of the driving noise;
* an integration edge (INT) points at the subtree being convolved with the
  fractional heat kernel;
* a vertex decoration k encodes the polynomial factor X^k at that vertex.

The type of a symbol is the triple (p, q, k): p noise edges, q integration
edges, k the total decoration.  A symbol with p + q edges has p + q + 1
vertices.  Symbols are interned: equal live symbols are the same Python
object, keyed by a canonical byte encoding, so equality and hashing are
identity and sets of symbols deduplicate for free.  The intern pool maps
each encoding to a weak reference, so it keeps no symbol alive: a symbol
lives while something refers to it, and its finalizer drops its entry.
:func:`decorate` keeps each bare tree's decorated twin, and so the pair,
alive until ``trees.clear_bare_cache()`` drops them with the tree classes.
Input is checked once, by the public constructors; the internal node
constructor trusts them.

Multiplication concatenates edge multisets at the root and adds root
decorations; integration grafts a new root above the tree.  Neither operation
ever mutates, every symbol is immutable.

Text: :func:`render` writes a symbol's canonical text and
:func:`parse_symbol`, the one reader, reads any text.  A stored space is
loaded by rebuilding it and rendering the rebuilt symbols, so only the
texts a renderer would not write reach the parser.
"""

from __future__ import annotations

import re
import weakref
from collections import deque
from typing import Iterable, Iterator, Optional, Sequence

from .params import Homogeneity, Parameters

__all__ = [
    "Symbol",
    "XI",
    "INT",
    "one",
    "xi",
    "monomial",
    "multiply",
    "product",
    "integrate",
    "type_of",
    "homogeneity_of",
    "bare_tree",
    "decorate",
    "iter_vertices",
    "render",
    "parse_symbol",
    "to_dot",
]

XI = 0
INT = 1

_TAG_BYTES = (b"\x00", b"\x01")  # XI sorts before INT

# encoding -> the basic weak reference to the live symbol with that encoding
_POOL: "dict[bytes, weakref.ref[Symbol]]" = {}


def _trim(k: Sequence[int]) -> tuple[int, ...]:
    """Drop trailing zeros so decorations are stored in a dimension-free way."""
    kt = tuple(k)
    n = len(kt)
    while n and kt[n - 1] == 0:
        n -= 1
    return kt[:n]


def _vec_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Sum of two trimmed nonnegative vectors, which is trimmed too."""
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    return tuple(x + y for x, y in zip(a, b)) + a[len(b):]


class Symbol:
    """An interned decorated tree.  Build through the module functions.

    Interning makes equality identity: two live symbols that are
    structurally equal are the same object, so the default ``==`` and
    ``hash`` are exact.  ``<`` is the canonical order, by encoding.
    """

    __slots__ = ("decoration", "children", "enc", "p", "q", "kvec", "__weakref__")

    decoration: tuple[int, ...]
    children: tuple[tuple[int, "Symbol"], ...]
    enc: bytes
    p: int
    q: int
    kvec: tuple[int, ...]

    def __new__(cls, *args, **kwargs):
        raise TypeError("Symbol cannot be instantiated directly; use one/xi/monomial/...")

    @property
    def n_edges(self) -> int:
        return self.p + self.q

    @property
    def n_vertices(self) -> int:
        return self.p + self.q + 1

    def __lt__(self, other: "Symbol") -> bool:
        return self.enc < other.enc

    def __repr__(self) -> str:
        return f"<Symbol {render(self)}>"

    def __del__(self, _pool=_POOL) -> None:
        # The entry may already hold a newer symbol of this encoding: the
        # collector clears weak references to cyclic garbage before it runs
        # finalizers, and a symbol made in between replaces the dead entry.
        # The pool is bound as a default so it is still reachable while the
        # interpreter shuts down and clears module globals.
        ref = _pool.get(self.enc)
        if ref is not None:
            live = ref()
            if live is None or live is self:
                del _pool[self.enc]


def _make_node(decoration: tuple[int, ...], children: Iterable[tuple[int, Symbol]]) -> Symbol:
    """The interned node with root decoration ``decoration`` over ``children``.

    Trusted, so nothing is checked: ``decoration`` is a trimmed tuple of
    nonnegative ints, and each child is an edge ``(XI, one())`` or
    ``(INT, t)`` with ``t`` a Symbol, in any order.  Outside input is
    checked by the public constructors before it gets here.
    """
    keyed = sorted([(_TAG_BYTES[tag] + child.enc, tag, child) for tag, child in children])
    head = b"k" + ",".join(map(str, decoration)).encode() + b";" if decoration else b""
    enc = head + b"(" + b"".join([key for key, _, _ in keyed]) + b")"

    ref = _POOL.get(enc)
    if ref is not None:
        cached = ref()
        if cached is not None:
            return cached

    kids = []
    p = q = 0
    kv = decoration
    for _, tag, child in keyed:
        kids.append((tag, child))
        p += child.p
        q += child.q
        if tag == XI:
            p += 1
        else:
            q += 1
        kv = _vec_add(kv, child.kvec)
    sym = object.__new__(Symbol)
    sym.enc = enc
    sym.decoration = decoration
    sym.children = tuple(kids)
    sym.p, sym.q, sym.kvec = p, q, kv
    _POOL[enc] = weakref.ref(sym)
    return sym


_ONE = _make_node((), ())
_XI = _make_node((), ((XI, _ONE),))


def one() -> Symbol:
    """The empty tree, a single bare vertex.  Multiplicative unit."""
    return _ONE


def xi() -> Symbol:
    """The noise symbol: a root with a single noise edge, type (1, 0, 0)."""
    return _XI


def monomial(k: Sequence[int]) -> Symbol:
    """The polynomial symbol X^k; k = (k_time, k_1, ..., k_d), trailing zeros optional."""
    dec = _trim(k)
    if any((not isinstance(x, int)) or x < 0 for x in dec):
        raise ValueError(f"decoration must be nonnegative ints, got {dec}")
    if not dec:
        return _ONE
    return _make_node(dec, ())


def product(factors: Iterable[Symbol]) -> Symbol:
    """Tree product: one root carrying every factor's edges and the sum of
    their root decorations.  Unit factors drop out; the empty product is
    the unit."""
    last = _ONE
    n = 0
    dec: tuple[int, ...] = ()
    kids: list[tuple[int, Symbol]] = []
    for f in factors:
        if f is _ONE:
            continue
        if not isinstance(f, Symbol):
            raise TypeError("product factors must be Symbols")
        last = f
        n += 1
        dec = _vec_add(dec, f.decoration)
        kids.extend(f.children)
    return last if n < 2 else _make_node(dec, kids)


def multiply(a: Symbol, b: Symbol) -> Symbol:
    """The product of two symbols."""
    return product((a, b))


def integrate(t: Symbol) -> Optional[Symbol]:
    """Graft a new root above ``t`` via an integration edge.

    Integration annihilates the unit (the abstract kernel is applied to
    nothing), so ``integrate(one())`` returns None.
    """
    if t is _ONE:
        return None
    if not isinstance(t, Symbol):
        raise TypeError("integrate expects a Symbol")
    return _make_node((), ((INT, t),))


def type_of(t: Symbol) -> tuple[int, int, tuple[int, ...]]:
    """(p, q, k): noise edges, integration edges, total decoration (trimmed)."""
    return (t.p, t.q, t.kvec)


def homogeneity_of(t: Symbol, params: Parameters) -> Homogeneity:
    """Scaled degree p*alpha0 + q*rho + |k|_s of the symbol under ``params``."""
    return params.type_entry(t.p, t.q, t.kvec)[1]


def iter_vertices(t: Symbol) -> Iterator[tuple[int, int, Optional[int], Symbol]]:
    """Breadth-first vertices as (index, parent_index, incoming_tag, subtree).

    The root comes first with parent_index -1 and tag None.  Children are
    visited in canonical order, so indices are deterministic.
    """
    queue: deque[tuple[int, Optional[int], Symbol]] = deque([(-1, None, t)])
    idx = 0
    while queue:
        parent, tag, node = queue.popleft()
        yield idx, parent, tag, node
        for ctag, child in node.children:
            queue.append((idx, ctag, child))
        idx += 1


def bare_tree(t: Symbol) -> Symbol:
    """Strip every noise edge together with its leaf, keeping decorations."""
    kids = []
    for tag, c in t.children:  # a loop, not a comprehension: one frame per level
        if tag == INT:
            kids.append((INT, bare_tree(c)))
    return _make_node(t.decoration, kids)


def decorate(b: Symbol) -> Symbol:
    """Attach one noise edge to every leaf of an undecorated bare tree.

    Inverse of :func:`bare_tree` on the decoration-free symbols produced by
    the model recursion.  Raises if any vertex carries a decoration.
    """
    if b.kvec:
        raise ValueError("decorate expects a tree with all decorations zero")
    return _decorate(b)


# bare tree -> decorated twin, at most _TWINS_MAX; trees.clear_bare_cache() empties it
_TWINS: dict[Symbol, Symbol] = {}
_TWINS_MAX = 1 << 14


def _decorate(b: Symbol) -> Symbol:
    twin = _TWINS.get(b)
    if twin is None:
        if not b.children:
            return _XI
        kids = []
        for _, c in b.children:  # one frame per level, as in bare_tree
            kids.append((INT, _decorate(c)))
        twin = _make_node((), kids)
        if len(_TWINS) < _TWINS_MAX:
            _TWINS[b] = twin
    return twin


# ---------------------------------------------------------------------------
# text rendering and parsing


def _dense(k: tuple[int, ...], d: Optional[int]) -> tuple[int, ...]:
    if d is None:
        return k if k else (0,)
    if len(k) > d + 1:
        raise ValueError(f"decoration {k} does not fit dimension d={d}")
    return k + (0,) * (d + 1 - len(k))


def render(t: Symbol, d: Optional[int] = None, *, memo: Optional[dict[Symbol, str]] = None) -> str:
    """Canonical text form, e.g. ``I(I(Xi)^2)*I(Xi)^2`` or ``X^(1,0,0)``.

    When ``d`` is given, decorations are zero-padded to length d+1.
    ``memo`` maps each symbol rendered so far to its text; pass one dict to
    several calls to render each subtree they share once.  A memo belongs to
    one ``d``: the text it holds is padded for that dimension.
    """
    if memo is None:
        memo = {}
    text = memo.get(t)
    if text is not None:
        return text
    parts: list[str] = []
    if t.decoration:
        parts.append("X^(%s)" % ",".join(map(str, _dense(t.decoration, d))))
    i = 0
    kids = t.children
    while i < len(kids):
        tag, child = kids[i]
        j = i
        while j < len(kids) and kids[j] == (tag, child):
            j += 1
        run = j - i
        base = "Xi" if tag == XI else "I(%s)" % render(child, d, memo=memo)
        parts.append(base if run == 1 else f"{base}^{run}")
        i = j
    text = memo[t] = "*".join(parts) if parts else "1"
    return text


# Open I( at once that parse_symbol follows.  render, bare_tree and
# decorate recurse with one frame per level, so a parsed symbol stays
# within Python's default recursion limit (1000) for them.
_MAX_DEPTH = 500

# Most edges a parsed symbol, or any factor or power inside it, may have.
# A factor without edges (a monomial or the unit) counts as one in a power,
# so no exponent builds a list longer than this.  Stored spaces stay far
# below it: 43 edges at (2,2,73/100), 56 at (3,3,8/5).
_MAX_EDGES = 10_000

# One token after optional whitespace; the group number is its kind:
# 1 X^(k,...), 2 Xi, 3 I(, 4 the unit 1, 5 *, 6 ^n, 7 ).  Kinds 1-4 begin
# a factor, 5-7 follow one.
_TOKEN = re.compile(r"\s*(?:(X\^\(\d+(?:,\d+)*\))|(Xi)|(I\()|(1)|(\*)|(\^\d+)|(\)))")


def parse_symbol(text: str) -> Symbol:
    """Inverse of :func:`render` (accepting any dimension padding).

    Whitespace may precede any token but not sit inside ``X^(...)`` or
    after ``^``.  Malformed text raises ValueError, and so does nesting
    more than ``_MAX_DEPTH`` (500) levels of ``I(...)`` deep, or a symbol,
    factor or power with more than ``_MAX_EDGES`` (10,000) edges.
    """

    def error(at: int, msg: str) -> ValueError:
        return ValueError(f"cannot parse symbol at position {at}: {msg} in {text!r}")

    def too_large(at: int) -> ValueError:
        return error(at, f"more than {_MAX_EDGES} edges")

    match = _TOKEN.match
    stack: list[list[Symbol]] = []  # the factors of each enclosing product
    factors: list[Symbol] = []  # the factors of the innermost open product
    want_factor = True
    pos = 0
    while (m := match(text, pos)) is not None:
        kind = m.lastindex
        if (kind <= 4) != want_factor:
            raise error(m.start(kind), f"unexpected {m.group(kind)!r}")
        pos = m.end()
        want_factor = kind == 5 or kind == 3  # after * and after I(
        if kind == 3:
            if len(stack) == _MAX_DEPTH:
                raise ValueError(
                    f"cannot parse symbol: nested too deeply at position {pos - 2} of {len(text)}"
                )
            stack.append(factors)
            factors = []
        elif kind == 7:
            at = pos - 1
            if not stack:
                raise error(at, "unmatched ')'")
            if sum([f.p + f.q for f in factors]) >= _MAX_EDGES:
                raise too_large(at)
            got = integrate(product(factors))
            if got is None:
                raise error(at, "I(1) is zero, not a symbol")
            factors = stack.pop()
            factors.append(got)
        elif kind == 2:
            factors.append(_XI)
        elif kind == 6:
            at = m.start(6)
            digits = text[at + 1 : pos].lstrip("0")
            if len(digits) > len(str(_MAX_EDGES)):
                raise too_large(at)
            n = int(digits or 0)
            if n < 1:
                raise error(at, "exponent must be >= 1")
            f = factors[-1]
            if n * max(f.p + f.q, 1) > _MAX_EDGES:
                raise too_large(at)
            factors[-1] = product([f] * n)
        elif kind == 1:
            at = m.start(1)
            try:
                k = [int(x.lstrip("0") or 0) for x in text[at + 3 : pos - 1].split(",")]
            except ValueError:  # beyond Python's integer-conversion limit
                raise error(at, "decoration entry too long") from None
            factors.append(monomial(k))
        elif kind == 4:
            factors.append(_ONE)
    length = len(text)
    at = pos if pos == length else length - len(text[pos:].lstrip())
    if at < length:
        raise error(at, f"unexpected {text[at]!r}")
    if want_factor:
        raise error(at, "expected a factor")
    if stack:
        raise error(at, "expected ')'")
    if sum([f.p + f.q for f in factors]) > _MAX_EDGES:
        raise too_large(at)
    return product(factors)


# ---------------------------------------------------------------------------
# DOT export


def to_dot(t: Symbol, d: Optional[int] = None, name: str = "tree") -> str:
    """Graphviz source for one symbol.

    The root is drawn as a double circle, noise edges dashed, integration
    edges solid.  Nonzero decorations become vertex labels.  Vertex ids follow
    the canonical breadth-first order, so output is deterministic.
    """
    lines = [f"digraph {name} {{", '  node [shape=circle, label=""];']
    edges = []
    for idx, parent, tag, node in iter_vertices(t):
        attrs = []
        if idx == 0:
            attrs.append("shape=doublecircle")
        if node.decoration:
            label = ",".join(map(str, _dense(node.decoration, d)))
            attrs.append(f'label="({label})"')
        if attrs:
            lines.append(f"  v{idx} [{', '.join(attrs)}];")
        else:
            lines.append(f"  v{idx};")
        if parent >= 0:
            style = " [style=dashed]" if tag == XI else ""
            edges.append(f"  v{parent} -> v{idx}{style};")
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines)
