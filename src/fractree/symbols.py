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
vertices.  Symbols are interned: structurally equal trees are the same
Python object, keyed by a canonical byte encoding, so equality and hashing
are O(1) and sets of symbols deduplicate for free.

Multiplication concatenates edge multisets at the root and adds root
decorations; integration grafts a new root above the tree.  Neither operation
ever mutates, every symbol is immutable.
"""

from __future__ import annotations

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
    "degree_vector",
    "bare_tree",
    "decorate",
    "height",
    "diameter",
    "iter_vertices",
    "render",
    "parse_symbol",
    "to_dot",
]

XI = 0
INT = 1

_TAG_BYTES = (b"\x00", b"\x01")  # XI sorts before INT

_POOL: "weakref.WeakValueDictionary[bytes, Symbol]" = weakref.WeakValueDictionary()


def _trim(k: Sequence[int]) -> tuple[int, ...]:
    """Drop trailing zeros so decorations are stored in a dimension-free way."""
    kt = tuple(k)
    n = len(kt)
    while n and kt[n - 1] == 0:
        n -= 1
    return kt[:n]


def _vec_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    return _trim(tuple(x + y for x, y in zip(a, b)) + a[len(b):])


class Symbol:
    """An interned decorated tree.  Build through the module functions."""

    __slots__ = ("decoration", "children", "enc", "p", "q", "kvec", "_hash", "__weakref__")

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

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Symbol) and self.enc == other.enc)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Symbol") -> bool:
        return self.enc < other.enc

    def __repr__(self) -> str:
        return f"<Symbol {render(self)}>"


def _make_node(decoration: Sequence[int], children: Iterable[tuple[int, Symbol]]) -> Symbol:
    dec = _trim(decoration)
    if any((not isinstance(x, int)) or x < 0 for x in dec):
        raise ValueError(f"decoration must be nonnegative ints, got {dec}")
    kids = []
    for tag, child in children:
        if tag not in (XI, INT):
            raise ValueError(f"unknown edge tag {tag!r}")
        if not isinstance(child, Symbol):
            raise TypeError("child must be a Symbol")
        if tag == XI and (child.children or child.decoration):
            raise ValueError("a noise edge must point at an undecorated leaf")
        kids.append((tag, child))
    kids.sort(key=lambda tc: _TAG_BYTES[tc[0]] + tc[1].enc)

    if dec:
        head = b"k" + ",".join(map(str, dec)).encode() + b";"
    else:
        head = b""
    enc = head + b"(" + b"".join(_TAG_BYTES[t] + c.enc for t, c in kids) + b")"

    cached = _POOL.get(enc)
    if cached is not None:
        return cached

    sym = object.__new__(Symbol)
    sym.decoration = dec
    sym.children = tuple(kids)
    sym.enc = enc
    sym.p = sum(1 for t, _ in kids if t == XI) + sum(c.p for _, c in kids)
    sym.q = sum(1 for t, _ in kids if t == INT) + sum(c.q for _, c in kids)
    kv = dec
    for _, c in kids:
        kv = _vec_add(kv, c.kvec)
    sym.kvec = kv
    sym._hash = hash(enc)
    return _POOL.setdefault(enc, sym)


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
    if not dec:
        return _ONE
    return _make_node(dec, ())


def multiply(a: Symbol, b: Symbol) -> Symbol:
    """Tree product: merge roots, concatenating edges and adding decorations."""
    if a is _ONE:
        return b
    if b is _ONE:
        return a
    return _make_node(_vec_add(a.decoration, b.decoration), a.children + b.children)


def product(factors: Iterable[Symbol]) -> Symbol:
    out = _ONE
    for f in factors:
        out = multiply(out, f)
    return out


def integrate(t: Symbol) -> Optional[Symbol]:
    """Graft a new root above ``t`` via an integration edge.

    Integration annihilates the unit (the abstract kernel is applied to
    nothing), so ``integrate(one())`` returns None.
    """
    if t is _ONE:
        return None
    return _make_node((), ((INT, t),))


def type_of(t: Symbol) -> tuple[int, int, tuple[int, ...]]:
    """(p, q, k): noise edges, integration edges, total decoration (trimmed)."""
    return (t.p, t.q, t.kvec)


def homogeneity_of(t: Symbol, params: Parameters) -> Homogeneity:
    """Scaled degree p*alpha0 + q*rho + |k|_s of the symbol under ``params``."""
    return params.homogeneity_of_type(t.p, t.q, t.kvec)


def iter_vertices(t: Symbol) -> Iterator[tuple[int, int, Optional[int], Symbol]]:
    """Breadth-first vertices as (index, parent_index, incoming_tag, subtree).

    The root comes first with parent_index -1 and tag None.  Children are
    visited in canonical order, so indices are deterministic.
    """
    queue: deque[tuple[int, Optional[int], Symbol]] = deque([(-1, None, t)])
    idx = 0
    out = []
    while queue:
        parent, tag, node = queue.popleft()
        out.append((idx, parent, tag, node))
        for ctag, child in node.children:
            queue.append((idx, ctag, child))
        idx += 1
    return iter(out)


def _degrees(t: Symbol) -> list[int]:
    """Undirected vertex degrees in breadth-first order."""
    degs = []
    for _, parent, _, node in iter_vertices(t):
        d = len(node.children) + (0 if parent == -1 else 1)
        degs.append(d)
    return degs


def degree_vector(t: Symbol, N: int, bare: bool = False) -> tuple[int, ...]:
    """Counts (d_1, ..., d_{N+1}) of vertices by undirected degree.

    With ``bare=True`` the noise edges are stripped first.  A single-vertex
    tree has one degree-0 vertex, which this vector cannot represent; callers
    who care about the unit handle it separately.
    """
    tt = bare_tree(t) if bare else t
    counts = [0] * (N + 1)
    for d in _degrees(tt):
        if d == 0:
            continue
        if d > N + 1:
            raise ValueError(f"vertex of degree {d} exceeds N+1 = {N + 1}")
        counts[d - 1] += 1
    return tuple(counts)


def bare_tree(t: Symbol) -> Symbol:
    """Strip every noise edge together with its leaf, keeping decorations."""
    return _make_node(
        t.decoration,
        tuple((INT, bare_tree(c)) for tag, c in t.children if tag == INT),
    )


def decorate(b: Symbol) -> Symbol:
    """Attach one noise edge to every leaf of an undecorated bare tree.

    Inverse of :func:`bare_tree` on the decoration-free symbols produced by
    the model recursion.  Raises if any vertex carries a decoration.
    """
    if b.kvec:
        raise ValueError("decorate expects a tree with all decorations zero")
    return _decorate(b)


def _decorate(b: Symbol) -> Symbol:
    if not b.children:
        return _XI
    return _make_node((), tuple((INT, _decorate(c)) for _, c in b.children))


def height(t: Symbol) -> int:
    """Longest root-to-leaf edge count."""
    if not t.children:
        return 0
    return 1 + max(height(c) for _, c in t.children)


def diameter(t: Symbol) -> int:
    """Longest path length between any two vertices of the tree."""
    return _diam_height(t)[0]


def _diam_height(t: Symbol) -> tuple[int, int]:
    if not t.children:
        return (0, 0)
    best_diam = 0
    top1 = top2 = 0  # two largest child depths, each counted with its edge
    for _, c in t.children:
        cd, ch = _diam_height(c)
        best_diam = max(best_diam, cd)
        depth = ch + 1
        if depth > top1:
            top1, top2 = depth, top1
        elif depth > top2:
            top2 = depth
    return (max(best_diam, top1 + top2), top1)


# ---------------------------------------------------------------------------
# text rendering and parsing


def _dense(k: tuple[int, ...], d: Optional[int]) -> tuple[int, ...]:
    if d is None:
        return k if k else (0,)
    if len(k) > d + 1:
        raise ValueError(f"decoration {k} does not fit dimension d={d}")
    return k + (0,) * (d + 1 - len(k))


def render(t: Symbol, d: Optional[int] = None) -> str:
    """Canonical text form, e.g. ``I(I(Xi)^2)*I(Xi)^2`` or ``X^(1,0,0)``.

    When ``d`` is given, decorations are zero-padded to length d+1.
    """
    if t is _ONE:
        return "1"
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
        base = "Xi" if tag == XI else "I(%s)" % render(child, d)
        parts.append(base if run == 1 else f"{base}^{run}")
        i = j
    return "*".join(parts)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> Exception:
        return ValueError(f"cannot parse symbol at position {self.pos}: {msg} in {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def literal(self, s: str) -> bool:
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])

    def parse_product(self) -> Symbol:
        out = self.parse_factor()
        self.skip_ws()
        while self.literal("*"):
            self.skip_ws()
            out = multiply(out, self.parse_factor())
            self.skip_ws()
        return out

    def parse_factor(self) -> Symbol:
        atom = self.parse_atom()
        self.skip_ws()
        while self.literal("^"):
            n = self.integer()
            if n < 1:
                raise self.error("exponent must be >= 1")
            atom = product([atom] * n)
            self.skip_ws()
        return atom

    def parse_atom(self) -> Symbol:
        self.skip_ws()
        if self.literal("X^("):
            ks = [self.integer()]
            while self.literal(","):
                ks.append(self.integer())
            if not self.literal(")"):
                raise self.error("expected ')' after multiindex")
            return monomial(ks)
        if self.literal("Xi"):
            return _XI
        if self.literal("I("):
            inner = self.parse_product()
            if not self.literal(")"):
                raise self.error("expected ')' after integrand")
            got = integrate(inner)
            if got is None:
                raise self.error("I(1) is zero, not a symbol")
            return got
        if self.literal("1"):
            return _ONE
        raise self.error(f"unexpected {self.peek()!r}")


def parse_symbol(text: str) -> Symbol:
    """Inverse of :func:`render` (accepting any dimension padding).

    Malformed text raises ValueError, and so does nesting deeper than the
    recursive-descent parser can follow (a few hundred levels of ``I(...)``).
    """
    p = _Parser(text)
    try:
        out = p.parse_product()
    except RecursionError:
        raise ValueError(
            f"cannot parse symbol: nested too deeply at position {p.pos} of {len(text)}"
        ) from None
    p.skip_ws()
    if p.pos != len(p.text):
        raise p.error("trailing input")
    return out


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
