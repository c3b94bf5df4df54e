"""Independent tree combinatorics used to cross-check the recursive builder.

This module works on bare branching trees: rooted, unordered, undecorated,
every vertex carrying at most N subtrees.  It provides

* exact counting sequences (Wedderburn-Etherington numbers, N-regular tree
  counts, bounded-arity counts refined by leaf count), all computed by
  multiset dynamic programming over canonical size classes, and
* an exhaustive level-by-level enumerator producing each tree exactly once
  in canonical encoding order.

Nothing here knows about homogeneities or noise; the cross-check layer maps
bare trees into decorated symbols and compares against the fixed-point
construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .params import ExplosionError
from .symbols import INT, Symbol, _make_node, iter_vertices

__all__ = [
    "ExplosionError",
    "wedderburn",
    "count_regular",
    "count_bounded",
    "count_bounded_by_leaves",
    "enumerate_bare",
    "bare_level_size",
    "PruneReport",
    "verify_prune_structure",
    "clear_bare_cache",
]


# ---------------------------------------------------------------------------
# counting


_WEDDERBURN = [0, 1]


def wedderburn(n: int) -> int:
    """Number of non-planar binary trees with n leaves (OEIS A001190).

    Convention w_0 = 0, w_1 = 1; a root either splits its leaves into two
    unequal halves (unordered pair) or into two equal halves (multiset of
    two, hence the triangular term).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    while len(_WEDDERBURN) <= n:
        m = len(_WEDDERBURN)
        if m % 2:
            total = sum(
                _WEDDERBURN[i] * _WEDDERBURN[m - i] for i in range(1, (m - 1) // 2 + 1)
            )
        else:
            h = m // 2
            total = sum(_WEDDERBURN[i] * _WEDDERBURN[m - i] for i in range(1, h))
            total += _WEDDERBURN[h] * (_WEDDERBURN[h] + 1) // 2
        _WEDDERBURN.append(total)
    return _WEDDERBURN[n]


@lru_cache(maxsize=None)
def _tree_count(mode: str, N: int, n: int) -> int:
    """Unordered rooted trees with n vertices.

    mode "regular": every internal vertex has exactly N children.
    mode "bounded": every vertex has at most N children.
    """
    if n == 1:
        return 1
    if mode == "regular":
        if (n - 1) % N:
            return 0
        return _msets(mode, N, N, n - 1, n - 1)
    return sum(_msets(mode, N, c, n - 1, n - 1) for c in range(1, min(N, n - 1) + 1))


@lru_cache(maxsize=None)
def _msets(mode: str, N: int, slots: int, budget: int, maxsize: int) -> int:
    """Multisets of `slots` trees totalling `budget` vertices, each of size <= maxsize."""
    if slots == 0:
        return 1 if budget == 0 else 0
    if budget < slots or maxsize < 1 or budget > slots * maxsize:
        return 0
    t = _tree_count(mode, N, maxsize)
    total = 0
    jmax = min(slots, budget // maxsize)
    for j in range(jmax + 1):
        if j and t == 0:
            break
        rest = _msets(mode, N, slots - j, budget - j * maxsize, maxsize - 1)
        if rest:
            ways = 1 if j == 0 else math.comb(t + j - 1, j)
            total += ways * rest
    return total


def count_regular(N: int, n: int) -> int:
    """N-regular unordered rooted trees with n vertices.

    Every internal vertex has exactly N children, so n = 1 mod N is forced.
    For N = 2 this reproduces the Wedderburn-Etherington numbers indexed by
    leaves: count_regular(2, 2m+1) = wedderburn(m+1).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _tree_count("regular", N, n)


def count_bounded(N: int, n: int) -> int:
    """Unordered rooted trees with n vertices and at most N children per vertex."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _tree_count("bounded", N, n)


@lru_cache(maxsize=None)
def _tl(N: int, n: int, leaves: int) -> int:
    """Bounded-arity trees with n vertices and exactly `leaves` leaves."""
    if n == 1:
        return 1 if leaves == 1 else 0
    if leaves < 1 or leaves > n - 1:
        return 0
    return sum(
        _ml(N, c, n - 1, leaves, n - 1, n - 1) for c in range(1, min(N, n - 1) + 1)
    )


@lru_cache(maxsize=None)
def _ml(N: int, slots: int, vb: int, lb: int, size: int, leaf: int) -> int:
    """Multisets of `slots` bounded trees, total vertices vb and leaves lb.

    Tree classes (size, leaf) are consumed in lexicographically descending
    order; `size`, `leaf` mark the largest class still available.
    """
    if slots == 0:
        return 1 if vb == 0 and lb == 0 else 0
    if vb < slots or lb < slots or size < 1:
        return 0
    if leaf < 1:
        return _ml(N, slots, vb, lb, size - 1, size - 1)
    t = _tl(N, size, leaf)
    total = 0
    jmax = min(slots, vb // size, lb // leaf)
    for j in range(jmax + 1):
        if j and t == 0:
            break
        rest = _ml(N, slots - j, vb - j * size, lb - j * leaf, size, leaf - 1)
        if rest:
            ways = 1 if j == 0 else math.comb(t + j - 1, j)
            total += ways * rest
    return total


def count_bounded_by_leaves(N: int, n: int, leaves: int) -> int:
    """Bounded-arity tree count refined by exact leaf count.

    Summing over all leaf counts recovers count_bounded(N, n); the single
    vertex counts as one leaf.
    """
    if N < 1 or n < 1:
        raise ValueError("N and n must be >= 1")
    return _tl(N, n, leaves)


# ---------------------------------------------------------------------------
# enumeration

# level catalogue: (N, edge count) -> list of (canonical encoding, leaf count),
# sorted by encoding.  Encodings are exactly the Symbol encodings of the trees
# (all edges plain, no decorations), so parents can be assembled from child
# encodings without building Symbol objects.
_LEVELS: dict[tuple[int, int], list[tuple[bytes, int]]] = {}


def clear_bare_cache() -> None:
    """Drop the level catalogue (it can grow to hundreds of MB)."""
    _LEVELS.clear()


def _partitions_desc(total: int, parts: int, high: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Nonincreasing tuples of `parts` nonnegative ints summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if high is None:
        high = total
    lo = -(-total // parts)
    for first in range(min(high, total), lo - 1, -1):
        for rest in _partitions_desc(total - first, parts - 1, first):
            yield (first,) + rest


def _build_level(N: int, q: int) -> list[tuple[bytes, int]]:
    if q == 0:
        return [(b"()", 1)]
    out: list[tuple[bytes, int]] = []
    for c in range(1, min(N, q) + 1):
        for part in _partitions_desc(q - c, c):
            groups = [(e, len(tuple(g))) for e, g in itertools.groupby(part)]
            pools = [
                list(
                    itertools.combinations_with_replacement(
                        range(len(_LEVELS[(N, e)])), mult
                    )
                )
                for e, mult in groups
            ]
            for choice in itertools.product(*pools):
                encs: list[bytes] = []
                leaves = 0
                for (e, _mult), idxs in zip(groups, choice):
                    lvl = _LEVELS[(N, e)]
                    for i in idxs:
                        encs.append(lvl[i][0])
                        leaves += lvl[i][1]
                encs.sort()
                enc = b"(" + b"".join(b"\x01" + e for e in encs) + b")"
                out.append((enc, leaves))
    out.sort()
    return out


def _bare_level(N: int, q: int, cap: Optional[int] = None) -> list[tuple[bytes, int]]:
    if N < 1 or q < 0:
        raise ValueError("need N >= 1 and q >= 0")
    if (N, q) in _LEVELS:
        return _LEVELS[(N, q)]
    total = sum(len(v) for (n2, _), v in _LEVELS.items() if n2 == N)
    for m in range(q + 1):
        if (N, m) in _LEVELS:
            continue
        level = _build_level(N, m)
        total += len(level)
        if cap is not None and total > cap:
            raise ExplosionError(
                f"bare-tree catalogue for N={N} passed {total} entries at level {m}, cap={cap}"
            )
        _LEVELS[(N, m)] = level
    return _LEVELS[(N, q)]


def _symbol_from_bare_enc(enc: bytes) -> Symbol:
    pos = 0

    def node() -> Symbol:
        nonlocal pos
        if enc[pos : pos + 1] != b"(":
            raise ValueError(f"bad encoding at byte {pos}")
        pos += 1
        kids = []
        while enc[pos : pos + 1] != b")":
            if enc[pos] != 1:
                raise ValueError(f"unexpected edge tag at byte {pos}")
            pos += 1
            kids.append((INT, node()))
        pos += 1
        return _make_node((), tuple(kids))

    root = node()
    if pos != len(enc):
        raise ValueError("trailing bytes in encoding")
    return root


def bare_level_size(N: int, q: int, cap: Optional[int] = None) -> int:
    """Number of bounded-arity trees with q edges (equals count_bounded(N, q+1))."""
    return len(_bare_level(N, q, cap))


def enumerate_bare(
    N: int, q: int, leaves: Optional[int] = None, cap: Optional[int] = None
) -> Iterator[Symbol]:
    """Yield every bounded-arity bare tree with q edges, in encoding order.

    `leaves` filters to trees with exactly that many leaves.  `cap` bounds the
    cumulative catalogue size for this N and raises ExplosionError beyond it.
    Trees are yielded as undecorated symbols whose edges are all integrations.
    """
    for enc, lv in _bare_level(N, q, cap):
        if leaves is None or lv == leaves:
            yield _symbol_from_bare_enc(enc)


# ---------------------------------------------------------------------------
# slot structure


@dataclass(frozen=True)
class PruneReport:
    """Slot audit of a bare tree against arity N.

    r is the total branching deficit sum(N - children) over internal
    vertices, which equals N*(q+1-L) - q for a tree with q edges and L
    leaves.  witnesses lists (vertex index, deficit) for every internal
    vertex that has spare slots, in breadth-first order.
    """

    r: int
    witnesses: tuple[tuple[int, int], ...]


def verify_prune_structure(bare: Symbol, N: int) -> PruneReport:
    """Audit branching slots of a bare tree; raises if any vertex exceeds N."""
    if bare.p or bare.kvec:
        raise ValueError("expected a bare tree: no noise edges, no decorations")
    deficits = []
    for idx, _parent, _tag, sub in iter_vertices(bare):
        c = len(sub.children)
        if c > N:
            raise ValueError(f"vertex {idx} has {c} children, more than N={N}")
        if c:
            deficits.append((idx, N - c))
    witnesses = tuple((i, d) for i, d in deficits if d > 0)
    return PruneReport(r=sum(d for _, d in deficits), witnesses=witnesses)
