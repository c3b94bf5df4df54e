"""Independent tree combinatorics used to cross-check the recursive builder.

This module works on bare branching trees: rooted, unordered, undecorated,
every vertex carrying at most N subtrees.  It provides

* exact counting sequences (Wedderburn-Etherington numbers, N-regular tree
  counts, bounded-arity counts refined by leaf count), all computed by
  multiset dynamic programming over canonical size classes, and
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
    """Multisets of `slots` trees totalling `budget` vertices, each of size <= maxsize.

    The loop picks the largest size taken and its j >= 1 copies, so the
    call recurses only when a slot is filled.
    """
    if slots == 0:
        return 1 if budget == 0 else 0
    total = 0
    for s in range(min(maxsize, budget - slots + 1), 0, -1):
        if slots * s < budget:
            break
        t = _tree_count(mode, N, s)
        if not t:
            continue
        for j in range(1, min(slots, budget // s) + 1):
            rest = _msets(mode, N, slots - j, budget - j * s, s - 1)
            if rest:
                total += math.comb(t + j - 1, j) * rest
    return total


def _count(mode: str, N: int, n: int) -> int:
    """_tree_count(mode, N, n), filling the memo from the smallest size up so
    that the recursion stays within the N slots of one size."""
    for m in range(1, n):
        _tree_count(mode, N, m)
    return _tree_count(mode, N, n)


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
    return _count("regular", N, n)


def count_bounded(N: int, n: int) -> int:
    """Unordered rooted trees with n vertices and at most N children per vertex."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _count("bounded", N, n)


@lru_cache(maxsize=None)
def _tl(N: int, n: int, leaves: int) -> int:
    """Bounded-arity trees with n vertices and exactly `leaves` leaves."""
    if n == 1:
        return 1 if leaves == 1 else 0
    if not 1 <= leaves <= _max_leaves(N, n - 1):
        return 0
    return sum(
        _ml(N, c, n - 1, leaves, n - 1, n - 1) for c in range(1, min(N, n - 1) + 1)
    )


@lru_cache(maxsize=None)
def _ml(N: int, slots: int, vb: int, lb: int, size: int, leaf: int) -> int:
    """Multisets of `slots` bounded trees, total vertices vb and leaves lb.

    Every tree's class (size, leaf) is at most (`size`, `leaf`) in
    lexicographic order.  The loop picks the largest class taken and its
    j >= 1 copies, so the call recurses only when a slot is filled.  It
    takes only classes with room for their leaves and leaves over only
    what the remaining slots can hold (`_fits`), so no term it skips is
    nonzero.
    """
    if slots == 0:
        return 1 if vb == 0 and lb == 0 else 0
    total = 0
    for s in range(min(size, vb - slots + 1), 0, -1):
        if slots * s < vb:
            break
        top = min(leaf if s == size else s, lb - slots + 1, _max_leaves(N, s - 1))
        for lv in range(top, 0, -1):
            t = None
            for j in range(1, min(slots, vb // s, lb // lv) + 1):
                if not _fits(N, slots - j, vb - j * s, lb - j * lv, s - 1):
                    continue
                if t is None:
                    t = _tl(N, s, lv)
                rest = _ml(N, slots - j, vb - j * s, lb - j * lv, s, lv - 1)
                if rest:
                    total += math.comb(t + j - 1, j) * rest
    return total


def count_bounded_by_leaves(N: int, n: int, leaves: int) -> int:
    """Bounded-arity tree count refined by exact leaf count.

    Summing over all leaf counts recovers count_bounded(N, n); the single
    vertex counts as one leaf.  The memo is filled from the smallest size
    up, as `_count` does, over the (size, leaves) classes a subtree of such
    a tree can have: those whose leaves fit and leave no more than the rest
    of the tree, with the subtree as one leaf, has room for.  Every class
    `_ml` reaches from one of them is among them, so the recursion stays
    within the N slots of one class.
    """
    if N < 1 or n < 1:
        raise ValueError("N and n must be >= 1")
    for m in range(2, n):
        rest = _max_leaves(N, n - m)  # leaves of the rest, n - m edges
        for lv in range(max(1, leaves + 1 - rest), min(leaves, _max_leaves(N, m - 1)) + 1):
            _tl(N, m, lv)
    return _tl(N, n, leaves)


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
    """Drop the memoised tree classes and the decorated twins that
    ``symbols.decorate`` keeps for their trees."""
    _trees.cache_clear()
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
