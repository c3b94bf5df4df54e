"""Type-class census: the certified negative sector counted without symbols.

A symbol's homogeneity depends on its class (p, q, s) alone: p noises, q
integration edges and s the scaled degree of all its decorations.  In the
integer units of :attr:`Parameters.units` (L the common denominator of
alpha0 and rho, A and R those two in units) a class weighs
u = p*A + q*R + s units.  The census counts the symbols of each class by
the multiset construction (Otter, "The number of trees", Ann. Math. 49,
1948; Flajolet and Sedgewick, *Analytic Combinatorics*, sec. I.2) over
exactly the family the builder stores at the completeness threshold T:

* W is the noise, class (1, 0, 0), and every root over 1..N children
  I(sigma) with at most one monomial taking a slot, kept while u <= 0 (the
  builder's bound max(T - R, 0) is 0: T - R is minus the positive slack);
* a child I(sigma) of class (p, q + 1, s) exists when u(sigma) + R <= T,
  and a decorating monomial is a pool member, 0 < s <= T < R, so one in
  the space variables alone (a time exponent weighs R).

Children are added to the multiset tables in order of q, since a class at
level q only feeds parents above it; m copies of a class of t symbols give
comb(t + m - 1, m) multisets.  Everything is an exact integer, and no
symbol is built, so the census reaches gaps the enumeration cannot.
``_frame`` refuses a point without a finite sector and sets out the units
every walk reads; each walk records every W class it forms, and ``_counts``
alone keeps the negative ones, as it does for :meth:`Census.at`.

:func:`census` keeps the counts alone.  ``scan`` runs it once per call,
at the lowest certified rho, and reads every certified row off it with
:meth:`Census.at`.
:func:`marked_census` carries, next to the counts, the integer marks that
``stats.stat_report`` sums over the elements, each in the table whose key
it needs.  A first walk, keyed (P, S) as :func:`census` is, carries S1
and S2 (the sums of the subtree sizes and of their squares) and the bare
degree vector per class.  A mark is additive over a multiset, and m copies
drawn from a class of t symbols whose marks total X add
comb(t + m - 1, m - 1) * X to each multiset counted before (Flajolet and
Sedgewick, ch. III).  The decorated degrees are filled in as a W entry is
formed: Xi is never a factor (the pool holds monomials and integrals) and
no I(X^k) is a child, so above level 0 the p bare leaves are the noise's
vertices, each raised to degree 2 by its noise edge, which ends at a new
leaf.  So they are the bare degrees plus p at degree 2, and
(0, 2, 0, ...) for the noise itself.  A second walk splits each class by
the bare tree's height and diameter, keyed (P, S, top, D), and carries
only the count and the periphery, the vertices at maximal depth, which
depends on the height.  ``stats`` answers every certified request from
the two tables, so it builds no symbol either.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from math import comb
from operator import add

from .params import Parameters, alpha0_white_noise, require_subcritical

__all__ = ["Census", "census", "marked_census"]


@dataclass(frozen=True)
class Census:
    """Counts of the certified negative sector.

    ``sizes`` is the law of q as ascending (q, count) pairs, as in
    ``stats.size_distribution``; ``classes`` holds each sector class
    (p, q, s), s in units, with its number of symbols.
    """

    c_F: int
    h_F: int
    h0_F: int
    sizes: tuple[tuple[int, int], ...]
    classes: tuple[tuple[tuple[int, int, int], int], ...]

    def at(self, base: Parameters, params: Parameters) -> "Census":
        """The census at ``params``, read off this one, the census at ``base``
        (the same N, d and noise, and a rho at least base's).  Raising rho
        raises the homogeneity of every class with an edge, and a class
        keeps its count, a tree count without rho, so the sector at
        ``params`` is the classes that stay negative, re-keyed by |k| = s / L.
        """
        white = alpha0_white_noise
        if (params.N, params.d) != (base.N, base.d) or not (
            params.alpha0 == base.alpha0
            or base.alpha0 == white(base.rho, base.d)
            and params.alpha0 == white(params.rho, params.d)
        ):
            raise ValueError(
                f"a census at N={base.N}, d={base.d}, alpha0={base.alpha0} cannot be read "
                f"at N={params.N}, d={params.d}, alpha0={params.alpha0}: another N, d or noise"
            )
        if params.rho < base.rho:
            raise ValueError(f"a census at rho={base.rho} cannot be read at the lower rho={params.rho}")
        L0, L = base.units[0], params.units[0]
        return _counts(params, {(p, q, s // L0 * L): t for (p, q, s), t in self.classes})


def _frame(params: Parameters) -> tuple[int, int, int, int, int, Counter]:
    """(A, R, T, top, step, D), or SubcriticalityError as :func:`builder.build`
    raises: alpha0, rho and the threshold in units, the largest level q of a
    kept W symbol, the least weight a child slot adds, and D(s), the number
    of monomials of s units, 0 < s <= T."""
    require_subcritical(params)
    d = params.d
    L, A, R = params.units
    T = params.threshold_units
    # No negative symbol has more than q* edges; a child weighs at least A + R.
    # T < R, so no monomial has a time exponent; one of space degree t weighs t*L.
    mono = Counter({t * L: comb(t + d - 1, d - 1) for t in range(1, T // L + 1)})
    return A, R, T, params.q_top, min(A + R, 0), mono


def _counts(params: Parameters, formed: dict[tuple[int, int, int], int]) -> Census:
    """The Census of the W classes (p, q, s) ``formed``, with their counts,
    that are negative at ``params``: u < 0, or u = 0 with a negative kappa
    part p*b0."""
    _, A, R = params.units
    b0 = params.alpha0.b
    keys = {(p, q, s): (p * A + q * R + s, p * b0) for p, q, s in formed}
    sector = {key: formed[key] for key, h in keys.items() if h < (0, 0)}
    sizes: Counter = Counter()
    for (p, q, s), c in sector.items():
        sizes[q] += c
    return Census(
        c_F=sum(sector.values()),
        h_F=len({keys[key] for key in sector}),
        h0_F=len({keys[key] for key in sector if key[2] == 0}),
        sizes=tuple(sorted(sizes.items())),
        classes=tuple(sorted(sector.items())),
    )


def census(params: Parameters) -> Census:
    """Count the negative sector a certified build finds, class by class.

    Raises SubcriticalityError, as :func:`builder.build` does, for
    parameters without a finite negative sector.
    """
    N = params.N
    A, R, T, top, step, mono = _frame(params)

    # G[j][Q][(P, S)]: multisets of j children with Q edges, P noises, S units
    G = [defaultdict(Counter) for _ in range(N + 1)]
    G[0][0][(0, 0)] = 1
    formed: dict[tuple[int, int, int], int] = {}
    level: Counter = Counter({(1, 0): 1})
    for q in range(top + 1):
        if q:
            level = Counter()
            for j in range(1, N + 1):
                for (P, S), c in G[j].get(q, {}).items():
                    u = P * A + q * R + S
                    if u <= 0:
                        level[(P, S)] += c
                    if j < N:
                        for s, m in mono.items():
                            if u + s <= 0:
                                level[(P, S + s)] += c * m
        for (p, s), t in level.items():
            formed[(p, q, s)] = t
            u = p * A + q * R + s
            if u + R > T:
                continue
            for j in range(N, 0, -1):
                room = -(N - j) * step  # what j children may weigh
                into = G[j]
                for m in range(1, j + 1):
                    w, qm, um = comb(t + m - 1, m), m * (q + 1), m * (u + R)
                    for Q0, row in G[j - m].items():
                        Q = Q0 + qm
                        if Q > top:
                            continue
                        dest = into[Q]
                        for (P0, S0), c0 in row.items():
                            if P0 * A + Q0 * R + S0 + um <= room:
                                dest[(P0 + m * p, S0 + m * s)] += c0 * w
    return _counts(params, formed)


def _plus(table: dict, key: tuple, marks: list) -> None:
    """Add ``marks`` to the entry of ``key``, elementwise."""
    old = table.get(key)
    table[key] = marks if old is None else list(map(add, old, marks))


def _class_marks(params: Parameters) -> dict[tuple[int, int, int], list[int]]:
    """The first walk of :func:`marked_census`: every W class (p, q, s) formed,
    with the sums over its symbols of (count, S1, S2, bare degrees 0..N+1,
    decorated degrees 0..N+1).

    A multiset table entry is keyed (P, S), as in :func:`census`, and totals
    the children's count, S1, S2 and bare degree vector, each child's read
    with the edge above its root.  A level entry, keyed (p, s), holds the
    marks of its W symbols as elements (bare degrees without an up edge),
    then the bare degrees they have as children, where the root gains the
    up edge; the decorated degrees are filled in as it is formed.
    """
    N = params.N
    A, R, T, top, step, mono = _frame(params)
    w = N + 2  # degrees 0..N+1
    B, K = 3, 3 + w  # the bare vector starts at B; K element marks, then the child vector

    # G[j][Q][(P, S)]: marks of the multisets of j children with Q edges, P
    # noises and S units; level[(p, s)]: element marks of the W symbols at
    # level q, then their bare degrees as children
    G = [defaultdict(dict) for _ in range(N + 1)]
    G[0][0][(0, 0)] = [1] + [0] * (K - 1)
    formed: dict[tuple[int, int, int], list[int]] = {}
    xi = [1, 1, 1] + [0] * (2 * w)
    xi[B] = xi[K + 1] = 1  # one bare vertex, degree 0 as an element, 1 as a child
    level: dict[tuple, list[int]] = {(1, 0): xi}
    for q in range(top + 1):
        if q:
            n = q + 1
            level = {}
            for j in range(1, N + 1):
                for (P, S), v in G[j].get(q, {}).items():
                    # a root over j children: n vertices, degree j as an
                    # element and j + 1 as a child
                    c = v[0]
                    marks = v + v[B:]
                    marks[1] += c * n
                    marks[2] += c * n * n
                    marks[B + j] += c
                    marks[K + j + 1] += c
                    u = P * A + q * R + S
                    if u <= 0:
                        _plus(level, (P, S), marks)
                    if j < N:
                        for s, m in mono.items():
                            if u + s <= 0:
                                _plus(level, (P, S + s), [x * m for x in marks])
        for (p, s), marks in level.items():
            if q:  # p noise edges, each at a bare leaf, which goes to degree 2
                decorated = marks[B:K]
                decorated[2] += marks[0] * p
            else:  # the noise: its root and the leaf its edge ends at
                decorated = [0, 2] + [0] * N
            formed[(p, q, s)] = marks[:K] + decorated
            u = p * A + q * R + s
            if u + R > T:
                continue
            t = marks[0]
            child = [0, *marks[1:B], *marks[K:]]  # the count only multiplies
            # for m copies, what each multiset counted before gains: its
            # count times comb(t + m - 1, m - 1) times the class marks
            copies = []
            for m in range(1, N + 1):
                gain = comb(t + m - 1, m - 1)
                copies.append((m, comb(t + m - 1, m), [gain * x for x in child]))
            for j in range(N, 0, -1):
                room = -(N - j) * step  # what j children may weigh
                into = G[j]
                for m, wm, more in copies[:j]:
                    qm, um, pm, sm = m * (q + 1), m * (u + R), m * p, m * s
                    for Q0, row in G[j - m].items():
                        Q = Q0 + qm
                        if Q > top:
                            continue
                        dest = into[Q]
                        lim = room - um - Q0 * R
                        for (P0, S0), v0 in row.items():
                            if P0 * A + S0 > lim:
                                continue
                            key = (P0 + pm, S0 + sm)
                            c0 = v0[0]
                            old = dest.get(key)
                            if old is None:
                                dest[key] = [a * wm + c0 * b for a, b in zip(v0, more)]
                            else:
                                dest[key] = [o + a * wm + c0 * b for o, a, b in zip(old, v0, more)]
    return formed


def _shape_marks(params: Parameters) -> dict[tuple[int, int, int, int, int], tuple[int, int]]:
    """The second walk of :func:`marked_census`: every W shape (p, q, s,
    height, diameter) formed, with its count and periphery total.

    A multiset table entry is keyed (P, S, top, D): top is the largest child
    height + 1, the depth of the deepest vertex below the root, and D the
    diameter of the root over those children; its periphery counts the
    vertices at depth top.  Adding m copies of children of height h and
    diameter D' makes the diameter max(D, D', h + 1 + top), and 2(h + 1)
    when m >= 2; the periphery is kept, added to or replaced as h + 1 is
    below, at or above top.  A root over the multiset has height top and
    the same periphery.
    """
    N = params.N
    A, R, T, top, step, mono = _frame(params)

    # G[j][Q][(P, S, top, D)]: (count, periphery) of the multisets of j
    # children with Q edges, P noises and S units
    G = [defaultdict(dict) for _ in range(N + 1)]
    G[0][0][(0, 0, 0, 0)] = (1, 0)
    formed: dict[tuple[int, int, int, int, int], tuple[int, int]] = {}
    level: dict[tuple, tuple[int, int]] = {(1, 0, 0, 0): (1, 1)}
    for q in range(top + 1):
        if q:
            level = {}
            for j in range(1, N + 1):
                for (P, S, h, D), pair in G[j].get(q, {}).items():
                    u = P * A + q * R + S
                    if u <= 0:
                        _plus(level, (P, S, h, D), pair)
                    if j < N:
                        c, peri = pair
                        for s, m in mono.items():
                            if u + s <= 0:
                                _plus(level, (P, S + s, h, D), (c * m, peri * m))
        for (p, s, h, D), (t, peri) in level.items():
            formed[(p, q, s, h, D)] = (t, peri)
            u = p * A + q * R + s
            if u + R > T:
                continue
            h1 = h + 1
            # m copies: comb(t + m - 1, m) multisets of them, and
            # comb(t + m - 1, m - 1) times the class periphery at depth h1
            copies = [
                (m, comb(t + m - 1, m), comb(t + m - 1, m - 1) * peri,
                 max(D, 2 * h1) if m >= 2 else D)
                for m in range(1, N + 1)
            ]
            for j in range(N, 0, -1):
                room = -(N - j) * step  # what j children may weigh
                into = G[j]
                for m, wm, gain, Dm in copies[:j]:
                    qm, um, pm, sm = m * (q + 1), m * (u + R), m * p, m * s
                    for Q0, row in G[j - m].items():
                        Q = Q0 + qm
                        if Q > top:
                            continue
                        dest = into[Q]
                        lim = room - um - Q0 * R
                        for (P0, S0, top0, D0), (c0, p0) in row.items():
                            if P0 * A + S0 > lim:
                                continue
                            D1 = h1 + top0
                            if D1 < D0:
                                D1 = D0
                            if D1 < Dm:
                                D1 = Dm
                            if top0 > h1:  # the copies end above top: the periphery stays
                                key = (P0 + pm, S0 + sm, top0, D1)
                                peri1 = p0 * wm
                            elif top0 == h1:
                                key = (P0 + pm, S0 + sm, h1, D1)
                                peri1 = p0 * wm + c0 * gain
                            else:  # deeper than any before: the periphery is replaced
                                key = (P0 + pm, S0 + sm, h1, D1)
                                peri1 = c0 * gain
                            old = dest.get(key)
                            if old is None:
                                dest[key] = (c0 * wm, peri1)
                            else:
                                dest[key] = (old[0] + c0 * wm, old[1] + peri1)
    return formed


def marked_census(params: Parameters) -> tuple[Census, tuple, tuple]:
    """The census of :func:`census`, with the tree marks ``stats`` sums over
    the elements: (counts, classes, shapes).

    ``counts`` is the :class:`Census`.  ``classes`` holds, in ascending key
    order, each sector class (p, q, s) with the sums over its symbols of
    (count, S1, S2, bare degrees 0..N+1, decorated degrees 0..N+1).
    ``shapes`` splits each sector class by the bare tree's height and
    diameter: (p, q, s, height, diameter) with (count, periphery).  The two
    come from independent walks, :func:`_class_marks` and
    :func:`_shape_marks`, and ``counts`` from the first one's class counts.
    """
    formed = _class_marks(params)
    counts = _counts(params, {key: marks[0] for key, marks in formed.items()})
    kept = {key for key, _ in counts.classes}
    shapes = _shape_marks(params)
    return (
        counts,
        tuple((key, tuple(formed[key])) for key, _ in counts.classes),
        tuple(sorted((key, pair) for key, pair in shapes.items() if key[:3] in kept)),
    )
