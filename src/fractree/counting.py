"""Closed-form counting theory for the negative sector.

Everything here is lattice geometry: a negative-homogeneity symbol of type
(p, q, k) corresponds to the lattice point (p, q) inside a truncated cone,
and the counting functions h_F (distinct homogeneities) and c_F (symbols)
are controlled by where the zero-homogeneity line p*alpha0 + q*rho = 0 exits
that cone.  All bound formulas are evaluated at kappa = 0 exactly, from
the integer units (L, A, R) of :attr:`Parameters.units` and the slack in
units S = N*R + (N-1)*A: a bound is a Fraction only where one is
returned.  The enumeration elsewhere keeps kappa symbolic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .params import Parameters, RationalLike, _frac, require_subcritical

__all__ = [
    "ALPHA_N",
    "ALPHA_LIMIT",
    "LAMBDA2",
    "LatticeBounds",
    "DioSystem",
    "d0_contains",
    "p_of_q",
    "lattice_bounds",
    "h0_bounds",
    "hF_bounds",
    "beta_N",
    "dio_count",
    "dio_solutions",
]

# Radius of convergence of the generating series counting rooted N-regular
# non-homeomorphic trees (N=2 is the Wedderburn-Etherington case, see OEIS
# A240943; the N -> infinity limit is documented for reference).
ALPHA_N: dict[int, float] = {2: 0.4026975, 3: 0.3551817}
ALPHA_LIMIT = 0.3383219

# Singularity constant in the height/diameter asymptotics of random
# unordered binary trees (Broutin-Flajolet analysis).
LAMBDA2 = 1.1300337


def _subcritical(N: int, d: int, rho: RationalLike) -> Parameters:
    """The white-noise Parameters of (N, d, rho), refused as build does."""
    params = Parameters.white_noise(N, d, rho)
    require_subcritical(params)
    return params


def d0_contains(p: int, q: int, N: int) -> bool:
    """Membership of (p, q) in the admissibility cone of realized types.

    The unit occupies (0,0); every other realized type has p >= 1 and the
    branching constraint p <= 1 + (N-1)q/N, compared exactly.
    """
    if (p, q) == (0, 0):
        return True
    return p >= 1 and q >= 0 and N * p <= N + (N - 1) * q


def p_of_q(q: int, N: int) -> int:
    """The unique noise count on the cone's upper boundary: 1 + floor((N-1)q/N).

    Negative-sector symbols with q >= 1 integration edges and no decoration
    sit exactly at this p.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    return 1 + ((N - 1) * q) // N


@dataclass(frozen=True)
class LatticeBounds:
    """Exit point (p*, q*) of the zero-homogeneity line from the cone, at kappa=0."""

    p_star: Fraction
    q_star: Fraction
    rho_gap: Fraction


def lattice_bounds(N: int, d: int, rho: RationalLike) -> LatticeBounds:
    """Where the zero line leaves the cone at the white-noise point (N, d, rho).

    Raises SubcriticalityError, as :func:`builder.build` does, unless
    rho > rho_c (and ValueError for a point :class:`Parameters` refuses).
    ``p_star`` = N*rho/slack and ``q_star`` = N*(rho + d)/(2*slack) are the
    exit point and ``rho_gap`` = rho - rho_c the distance to the boundary;
    the last two are :attr:`Parameters.q_star` and :attr:`Parameters.rho_gap`.
    """
    params = _subcritical(N, d, rho)
    return LatticeBounds(
        p_star=Fraction(N * params.units[2], params.slack_units),
        q_star=params.q_star,
        rho_gap=params.rho_gap,
    )


def h0_bounds(N: int, d: int, rho: RationalLike) -> tuple[Fraction, Fraction]:
    """Two-sided bound for the count of distinct negative (p, q) types.

    Returns (lower, upper) with the additive 1 already folded into the
    upper bound, so the guarantee is lower <= h0_F <= upper.
    """
    q_star = lattice_bounds(N, d, rho).q_star
    return (q_star / N, 1 + q_star)


def hF_bounds(N: int, d: int, rho: RationalLike) -> tuple[Fraction, Fraction]:
    """Two-sided bound for h_F, the count of distinct negative homogeneities.

    Decorations widen the upper bound by a factor d against :func:`h0_bounds`;
    the lower bound is shared.  The additive 1 is folded into the upper bound.
    """
    q_star = lattice_bounds(N, d, rho).q_star
    return (q_star / N, 1 + d * q_star)


def beta_N(N: int, alpha: Optional[float] = None) -> float:
    """Growth exponent 2N^2/(N+1)^2 * ln(1/alpha_N) of the symbol count.

    alpha_N is tabulated for N in {2, 3}; for other N pass the radius of
    convergence of the N-regular counting series yourself.
    """
    if alpha is None:
        try:
            alpha = ALPHA_N[N]
        except KeyError:
            raise ValueError(
                f"alpha_N is tabulated only for N in {sorted(ALPHA_N)}; "
                "pass alpha= explicitly for other N"
            ) from None
    return 2.0 * N * N / float((N + 1) ** 2) * math.log(1.0 / alpha)


# ---------------------------------------------------------------------------
# the Diophantine side


@dataclass(frozen=True)
class DioSystem:
    """The linear system A c = b over c in N_0^6 behind the homogeneity count.

    Variables: c = (c1 - 1, c2, c3 - 1, c4, c5, c6) where, for a candidate
    homogeneity v = (rho/2)c1 + c2 - (d/2)c3 in units of 1/(2*q_rho),

    * c3 counts noise factors, c1 = 2*(integrations) - c3, c2 spatial
      polynomial weight,
    * c4, c5 are the slacks of v <= 0 and v >= N(rho-d)/2,
    * c6 is the slack of c1 >= c3.

    ``p_rho``/``q_rho`` are the numerator and denominator of rho; the matrix
    is insensitive to common factors in that representation.
    """

    N: int
    d: int
    p_rho: int
    q_rho: int

    @classmethod
    def from_params(cls, N: int, d: int, rho: RationalLike) -> "DioSystem":
        r = _frac(rho)
        return cls(N=N, d=d, p_rho=r.numerator, q_rho=r.denominator)

    @property
    def A(self) -> tuple[tuple[int, ...], ...]:
        p, q, d = self.p_rho, self.q_rho, self.d
        return (
            (p, 2 * q, -d * q, 1, 0, 0),
            (p, 2 * q, -d * q, 0, -1, 0),
            (-1, 0, 1, 0, 0, 1),
        )

    @property
    def b(self) -> tuple[int, int, int]:
        p, q, d = self.p_rho, self.q_rho, self.d
        return (d * q - p, -(self.N - 1) * (d * q - p), 0)

    def check(self, c: Iterable[int]) -> bool:
        """Exact verification A c = b with c nonnegative."""
        cv = tuple(c)
        if len(cv) != 6 or any(x < 0 for x in cv):
            return False
        return all(
            sum(a * x for a, x in zip(row, cv)) == rhs
            for row, rhs in zip(self.A, self.b)
        )


def _dio_ranges(
    N: int, d: int, rho: RationalLike, boundary: str
) -> Iterator[tuple[int, int, int, int, int, int]]:
    """(qt, p, v0, w, c2_lo, c2_hi) for each (qt, p) of the realizability box.

    v is counted in units of 1/(2 den(rho)), where it is an integer: v0 is
    v at c2 = 0, w the lower end N(rho-d)/2 of the window, and one unit
    of c2 is 2 den(rho) units of v.
    """
    if boundary not in ("le", "lt"):
        raise ValueError("boundary must be 'le' or 'lt'")
    params = _subcritical(N, d, rho)
    q_top = params.q_top
    num, den = params.rho.numerator, params.rho.denominator
    scale = 2 * den
    w = N * (num - d * den)
    shift = 0 if boundary == "le" else 1  # "lt" needs v <= -1 unit
    for qt in range(1, q_top + 1):
        for p in range(1, 2 + ((N - 1) * qt) // N):
            v0 = 2 * num * qt - p * (num + d * den)
            c2_lo = max(0, -((v0 - w) // scale))
            c2_hi = (-v0 - shift) // scale
            yield qt, p, v0, w, c2_lo, c2_hi


def dio_solutions(
    N: int, d: int, rho: RationalLike, boundary: str = "le"
) -> Iterator[tuple[int, int, int, int, int, int]]:
    """Solutions of the DioSystem within the realizability box, as 6-vectors.

    The raw system admits infinitely many nonnegative solutions (the slack
    variables absorb arbitrarily large c1, c3), so a counting convention must
    bound the search.  The box used here is the region the model space can
    actually realize:

    * c3 = p >= 1 noise factors, with the cone constraint
      N*p <= N + (N-1)*qt (which also forces c1 >= c3),
    * qt = (c1 + c3)/2 >= 1 combined integration/time-polynomial weight,
      bounded by qt <= q* where the zero line leaves the cone,
    * c2 >= 0 spatial polynomial weight solving the two-sided window
      N(rho-d)/2 <= v <= 0.

    ``boundary`` picks the upper end of the window: "le" keeps v = 0
    solutions (the kappa-aware reading, where a = 0 symbols still count as
    negative), "lt" drops them.  The unit and the bare noise are not part of
    the system; the usual comparison is len(solutions) + 1 against h_F.
    The arithmetic is in integer units of v, with no Fraction in the loop.
    """
    scale = 2 * _frac(rho).denominator
    for qt, p, v0, w, c2_lo, c2_hi in _dio_ranges(N, d, rho, boundary):
        c1 = 2 * qt - p
        for c2 in range(c2_lo, c2_hi + 1):
            v = v0 + c2 * scale
            yield (c1 - 1, c2, p - 1, -v, v - w, c1 - p)


def dio_count(N: int, d: int, rho: RationalLike, boundary: str = "le") -> int:
    """Number of box-bounded solutions of the homogeneity counting system.

    See :func:`dio_solutions` for the box and the boundary conventions.  The
    companion quantity for cross-checks is dio_count + 1 (adding the bare
    noise symbol) against the enumerated h_F; both conventions are worth
    reporting side by side since they differ exactly on the a = 0 symbols.
    Each (qt, p) contributes the length of its c2 range.
    """
    total = 0
    for *_, c2_lo, c2_hi in _dio_ranges(N, d, rho, boundary):
        if c2_hi >= c2_lo:
            total += c2_hi - c2_lo + 1
    return total
