"""Type-class census: the certified negative sector counted without symbols.

A symbol's homogeneity depends on its class (p, q, s) alone: p noises, q
integration edges and s the scaled degree of all its decorations.  In the
integer units of :attr:`Parameters.units` (L the common denominator of
alpha0 and rho, A and R those two in units) a class weighs
u = p*A + q*R + s units.  The census counts the symbols of each class by
the multiset construction (Otter, "The number of trees", Ann. Math. 49,
1948; Flajolet and Sedgewick, *Analytic Combinatorics*, sec. I.2) over
exactly the family the builder stores at the completeness threshold T:

* W is the noise, class (1, 0, 0), the nonzero monomials, classes (0, 0, s)
  counted by D(s), and every root over 1..N children I(sigma) with at most
  one monomial taking a slot, kept while u <= max(T - R, 0);
* a child I(sigma) of class (p, q + 1, s) exists when u(sigma) + R <= T,
  and a decorating monomial is a pool member, 0 < s <= T.

Children are added to the multiset tables in order of q, since a class at
level q only feeds parents above it; m copies of a class of t symbols give
comb(t + m - 1, m) multisets.  Everything is an exact integer, and no
symbol is built, so the census reaches gaps the enumeration cannot.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from math import comb

from .params import Parameters, completeness_threshold, require_subcritical

__all__ = ["Census", "census"]


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


def census(params: Parameters) -> Census:
    """Count the negative sector a certified build finds, class by class.

    Raises SubcriticalityError, as :func:`builder.build` does, for
    parameters without a finite negative sector.
    """
    require_subcritical(params)
    N, d, b0 = params.N, params.d, params.alpha0.b
    L, A, R = params.units
    T = int(completeness_threshold(params) * L)
    cut = max(T - R, 0)
    slope = int(params.slack * L)
    # A W symbol at level q weighs at least A + q*slope/N units, so none
    # above `top` is kept; a child weighs at least A + R.
    top = N * (cut - A) // slope
    step = min(A + R, 0)

    mono: Counter = Counter()  # D(s): monomials of s units, 0 < s <= T
    for k0 in range(T // R + 1):
        for t in range((T - k0 * R) // L + 1):
            if k0 or t:
                mono[k0 * R + t * L] += comb(t + d - 1, d - 1)

    # G[j][Q][(P, S)]: multisets of j children with Q edges, P noises, S units
    G = [defaultdict(Counter) for _ in range(N + 1)]
    G[0][0][(0, 0)] = 1
    sector: dict[tuple[int, int, int], int] = {}
    level: Counter = Counter({(1, 0): 1, **{(0, s): c for s, c in mono.items() if s <= cut}})
    for q in range(top + 1):
        if q:
            level = Counter()
            for j in range(1, N + 1):
                for (P, S), c in G[j].get(q, {}).items():
                    u = P * A + q * R + S
                    if u <= cut:
                        level[(P, S)] += c
                    if j < N:
                        for s, m in mono.items():
                            if u + s <= cut:
                                level[(P, S + s)] += c * m
        for (p, s), t in level.items():
            u = p * A + q * R + s
            if u < 0 or (u == 0 and p * b0 < 0):
                sector[(p, q, s)] = t
            if u + R > T:
                continue
            for j in range(N, 0, -1):
                room = cut - (N - j) * step  # what j children may weigh
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

    keys = {(p, q, s): (p * A + q * R + s, p * b0) for p, q, s in sector}
    sizes: Counter = Counter()
    for (p, q, s), c in sector.items():
        sizes[q] += c
    return Census(
        c_F=sum(sector.values()),
        h_F=len(set(keys.values())),
        h0_F=len({h for (p, q, s), h in keys.items() if s == 0}),
        sizes=tuple(sorted(sizes.items())),
        classes=tuple(sorted(sector.items())),
    )
