"""Independent tree combinatorics used to cross-check the recursive builder.

This module works on bare branching trees: rooted, unordered, undecorated,
every vertex carrying at most N subtrees.  It provides

* exact counting sequences: Wedderburn-Etherington numbers, and the
  bounded-arity counts (all trees, N-regular trees, trees by leaf count)
  read from one table of trees by (vertices, deficit), filled bottom-up by
  the multiset construction (Otter, Ann. Math. 49, 1948), and
* an exhaustive enumerator of one (edges, leaves) class at a time: a tree
  is a root over a multiset of 1..N smaller trees, built from the smaller
  classes in descending order (the multiset construction the counting
  uses), memoised per class and yielded in canonical encoding order.

Nothing here knows about homogeneities or noise; the cross-check layer maps
bare trees into decorated symbols and compares against the fixed-point
construction.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterator, Optional

from .params import ExplosionError  # re-exported: fractree.trees.ExplosionError
from .symbols import _TWINS, INT, Symbol, _make_node, iter_vertices, one

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


# (N, whether the deficit is kept) -> [(n, r, table)], none covering another
_TABLES: dict[tuple[int, bool], list[tuple[int, int, list[list[int]]]]] = {}


def _table(N: int, n: int, r: Optional[int]) -> list[list[int]]:
    """table[s][e]: bounded-arity trees with s <= n vertices and deficit e <= r.

    The deficit sums N minus the number of children over internal vertices
    (`PruneReport.r`): a root over j subtrees adds N - j.  With r = None no
    deficit is kept and table[s][0] counts all trees of s vertices.  Bottom-up,
    forests[j][e][v] counts multisets of j trees smaller than s with v
    vertices and deficit e; the trees of s vertices are read off them, then m
    copies of the t trees of a class (s, e) join each multiset in
    comb(t + m - 1, m) ways.  Deficits past r are dropped: they only grow.
    A kept table answers every query it covers; a new one is built for n and
    r rounded up to powers of two, n at least 32, and replaces those it covers.
    """
    kept = _TABLES.setdefault((N, r is None), [])
    for size, bound, table in kept:
        if size >= n and bound >= (r or 0):
            return table
    size = max(32, 1 << (n - 1).bit_length())
    bound = min(1 << (r - 1).bit_length(), (N - 1) * (size - 1)) if r else 0
    # A tree of s vertices has deficit 1 - s mod N, so with the deficit kept
    # forests[j][e][v] is 0 unless v = j - e mod N: rows are read every N-th v.
    step = 1 if r is None else N
    forests = [[[0] * size for _ in range(bound + 1)] for _ in range(N + 1)]
    forests[0][0][0] = 1
    table = [[], [1] + [0] * bound]
    for s in range(1, size):
        for d, t in enumerate(table[s]):
            if not t:
                continue
            for j in range(N, 0, -1):  # downwards: forests[j - m] is still without (s, d)
                for m in range(1, j + 1):
                    if m * s >= size or m * d > bound:
                        break
                    c = math.comb(t + m - 1, m)
                    if j == m:  # the m copies alone
                        forests[j][m * d][m * s] += c
                        continue
                    # j - m trees of v vertices have deficit at most (N - 1)(v - j + m)
                    top = min(bound, m * d + (N - 1) * (size - 1 - m * s - j + m))
                    for e in range(m * d, top + 1):
                        k = (j - m - e + m * d) % step  # the first v read
                        row, src, v = forests[j][e], forests[j - m][e - m * d], m * s + k
                        row[v::step] = map(add, row[v::step], map(c.__mul__, src[k::step]))
        trees = [0] * (bound + 1)
        for j in range(1, min(N, s) + 1):
            root = 0 if r is None else N - j
            for e in range(root, bound + 1):
                trees[e] += forests[j][e - root][s]
        table.append(trees)
    kept[:] = [old for old in kept if old[0] > size or old[1] > bound] + [(size, bound, table)]
    return table


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
    return _table(N, n, 0)[n][0]


def count_bounded(N: int, n: int) -> int:
    """Unordered rooted trees with n vertices and at most N children per vertex."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _table(N, n, None)[n][0]


def count_bounded_by_leaves(N: int, n: int, leaves: int) -> int:
    """Bounded-arity tree count refined by exact leaf count.

    Summing over all leaf counts recovers count_bounded(N, n); the single
    vertex counts as one leaf.  A tree with n vertices and L >= 1 leaves has
    deficit N*(n - L) - (n - 1), negative when L is too large to fit.
    """
    if N < 1 or n < 1:
        raise ValueError("N and n must be >= 1")
    r = N * (n - leaves) - (n - 1)
    if leaves < 1 or r < 0:
        return 0
    return _table(N, n, r)[n][r]


# ---------------------------------------------------------------------------
# enumeration


def _max_leaves(N: int, edges: int) -> int:
    """Most leaves a bounded-arity tree with `edges` edges can have.

    Each internal vertex carries at most N edges, so at least ceil(edges/N)
    of the edges + 1 vertices are internal.
    """
    return edges + 1 + (-edges // N)


def _fits(N: int, slots: int, vertices: int, leaves: int, edges: int) -> bool:
    """Whether at most `slots` trees, each with at most `edges` edges, can hold
    `vertices` vertices and `leaves` leaves between them (a necessary test)."""
    if vertices == 0:
        return leaves == 0
    n = min(slots, vertices)
    return (
        1 <= leaves
        and vertices <= slots * (edges + 1)
        and leaves <= vertices + (n - vertices) // N
    )


def _forests(
    N: int, slots: int, vertices: int, leaves: int, edges: int, top: int
) -> Iterator[tuple[Symbol, ...]]:
    """Multisets of at most `slots` trees with `vertices` vertices and `leaves`
    leaves in total, every tree's class (edges, leaves) at most (edges, top).

    Classes are taken in descending order, each as a block of j >= 1 copies;
    the call recurses only after filling a block, so the depth is at most
    `slots`.
    """
    if vertices == 0:
        if leaves == 0:
            yield ()
        return
    for e in range(min(edges, vertices - 1), -1, -1):
        if slots * (e + 1) < vertices:
            return
        hi = top if e == edges else leaves
        for lv in range(min(hi, leaves, _max_leaves(N, e)), 0, -1):
            trees = None
            for j in range(1, slots + 1):
                rest_v, rest_l = vertices - j * (e + 1), leaves - j * lv
                if rest_v < 0 or rest_l < 0:
                    break
                if not _fits(N, slots - j, rest_v, rest_l, e):
                    continue
                if trees is None:
                    trees = _trees(N, e, lv)
                for head in itertools.combinations_with_replacement(trees, j):
                    for tail in _forests(N, slots - j, rest_v, rest_l, e, lv - 1):
                        yield head + tail


@lru_cache(maxsize=None)
def _trees(N: int, edges: int, leaves: int) -> tuple[Symbol, ...]:
    """Every bounded-arity bare tree with `edges` edges and `leaves` leaves,
    sorted by encoding.  A tree is a root over a multiset of 1..N smaller
    trees whose vertices add up to `edges`."""
    if edges == 0:
        return (one(),) if leaves == 1 else ()
    if not 1 <= leaves <= _max_leaves(N, edges):
        return ()
    return tuple(
        sorted(
            _make_node((), tuple((INT, t) for t in kids))
            for kids in _forests(N, N, edges, leaves, edges - 1, leaves)
        )
    )


def clear_bare_cache() -> None:
    """Drop the memoised tree classes, the decorated twins that
    ``symbols.decorate`` keeps for their trees, and the count tables."""
    _trees.cache_clear()
    _TABLES.clear()
    _TWINS.clear()


def bare_level_size(N: int, q: int) -> int:
    """Number of bounded-arity trees with q edges (equals count_bounded(N, q+1))."""
    return count_bounded(N, q + 1)


def enumerate_bare(N: int, q: int, leaves: Optional[int] = None) -> Iterator[Symbol]:
    """Yield every bounded-arity bare tree with q edges, in encoding order.

    `leaves` restricts the trees to exactly that many leaves.  Trees are
    yielded as undecorated symbols whose edges are all integrations.
    """
    if N < 1 or q < 0:
        raise ValueError("need N >= 1 and q >= 0")
    if leaves is not None:
        return iter(_trees(N, q, leaves))
    return heapq.merge(*(_trees(N, q, lv) for lv in range(1, q + 2)))


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
