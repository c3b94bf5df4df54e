"""Parameters and homogeneity arithmetic for the fractional Allen-Cahn model space.

The equation under consideration is

    du/dt = -(-Laplace)^(rho/2) u + u - u^N + noise

on R^d, driven by space-time white noise unless a custom noise regularity is
supplied.  Everything downstream (symbol homogeneities, subcriticality,
counting bounds) is exact rational arithmetic in the parabolic scaling
s = (rho, 1, ..., 1), where the time direction counts with weight rho.

Homogeneities carry an infinitesimal regularity loss kappa > 0 symbolically:
a value is stored as the pair (a, b) meaning a + b*kappa with a rational and
b an integer.  Comparisons are lexicographic, which is the correct order for
every sufficiently small kappa at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence, Union

__all__ = [
    "Rational",
    "RationalLike",
    "Homogeneity",
    "Parameters",
    "SubcriticalityError",
    "ExplosionError",
    "TooManyDigitsError",
    "rho_c",
    "alpha0_white_noise",
    "scaled_degree",
    "is_locally_subcritical",
    "require_subcritical",
    "completeness_threshold",
]

Rational = Fraction
RationalLike = Union[Fraction, int, str]


class TooManyDigitsError(ValueError):
    """Raised for a rational text whose value has too many digits to handle."""


def _frac(x: RationalLike) -> Fraction:
    """Coerce ints, strings like '3/2' or '0.9', and Fractions to Fraction.

    The one reader of outside text: a value with more digits than Python
    prints raises TooManyDigitsError, a decimal exponent past 100,000 before
    Fraction computes its power of ten (hours for 1e999999999)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        _, e, exponent = x.lower().partition("e")
        try:
            huge = bool(e) and abs(int(exponent)) > 100_000
        except ValueError:  # no integer exponent: Fraction says what is wrong
            huge = False
        if not huge:
            value = Fraction(x)
            try:
                str(value)
                return value
            except ValueError:  # past Python's limit on int-to-string digits
                pass
        raise TooManyDigitsError(f"{x!r} has too many digits")
    if isinstance(x, float):
        raise TypeError(
            "refusing float %r: pass a Fraction or a string such as '9/10' "
            "so homogeneities stay exact" % (x,)
        )
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _fstr(x: Fraction) -> str:
    """Exact "num/den" text of a rational, as every output file writes it."""
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True, order=True)
class Homogeneity:
    """A scaled degree of the form a + b*kappa.

    ``a`` is the kappa-free rational part, ``b`` the integer coefficient of
    the symbolic infinitesimal kappa.  The total order is lexicographic in
    (a, b); this is the pointwise order for all small enough kappa > 0.
    """

    a: Fraction
    b: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _frac(self.a))
        if not isinstance(self.b, int):
            raise TypeError("kappa coefficient must be an int")

    @property
    def is_negative(self) -> bool:
        """Strictly below zero for every sufficiently small kappa > 0."""
        n = self.a.numerator  # the denominator is positive
        return n < 0 or (n == 0 and self.b < 0)

    def __add__(self, other: "Homogeneity") -> "Homogeneity":
        if not isinstance(other, Homogeneity):
            return NotImplemented
        return Homogeneity(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Homogeneity") -> "Homogeneity":
        if not isinstance(other, Homogeneity):
            return NotImplemented
        return Homogeneity(self.a - other.a, self.b - other.b)

    def __mul__(self, n: int) -> "Homogeneity":
        if not isinstance(n, int):
            return NotImplemented
        return Homogeneity(self.a * n, self.b * n)

    __rmul__ = __mul__

    def shift(self, delta: RationalLike) -> "Homogeneity":
        """Add a plain rational (no kappa component)."""
        return Homogeneity(self.a + _frac(delta), self.b)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        sign = "-" if self.b < 0 else "+"
        mag = abs(self.b)
        kappa = "kappa" if mag == 1 else f"{mag}*kappa"
        return f"{self.a} {sign} {kappa}"


class SubcriticalityError(ValueError):
    """Raised when a construction requires local subcriticality and lacks it."""


class ExplosionError(RuntimeError):
    """Raised when an enumeration or construction exceeds its size cap.

    ``partial`` may carry whatever incomplete result the caller attached.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


def rho_c(N: int, d: int) -> Fraction:
    """Critical fractional order d*(N-1)/(N+1).

    The model space is locally subcritical for white noise exactly when
    rho > rho_c, with the boundary excluded.
    """
    if N < 1 or d < 1:
        raise ValueError("need N >= 1 and d >= 1")
    return Fraction(d * (N - 1), N + 1)


def alpha0_white_noise(rho: RationalLike, d: int) -> Homogeneity:
    """Regularity of space-time white noise under the scaling (rho, 1, ..., 1).

    The scaled space-time dimension is rho + d, and white noise sits just
    below -(rho + d)/2, hence the -kappa term.
    """
    r = _frac(rho)
    if r <= 0:
        raise ValueError("rho must be positive")
    return Homogeneity(-(r + d) / 2, -1)


def scaled_degree(k: Sequence[int], rho: RationalLike) -> Fraction:
    """Parabolic degree rho*k[0] + k[1] + ... + k[d] of a multiindex.

    ``k[0]`` is the time exponent.  Trailing entries may be omitted; missing
    coordinates count as zero.
    """
    kt = tuple(k)
    if any((not isinstance(x, int)) or x < 0 for x in kt):
        raise ValueError(f"multiindex entries must be nonnegative ints, got {kt}")
    if not kt:
        return Fraction(0)
    return _frac(rho) * kt[0] + sum(kt[1:])


@dataclass(frozen=True)
class Parameters:
    """Model parameters (N, d, rho) plus the noise regularity alpha0.

    ``N`` is the power in the nonlinearity u^N, ``d`` the spatial dimension,
    ``rho`` the order of the fractional Laplacian, restricted to (0, 2].
    Use :meth:`white_noise` unless you are deliberately overriding alpha0.
    """

    N: int
    d: int
    rho: Fraction
    alpha0: Homogeneity
    # (p, q, kvec) -> type_entry, one per type met under these parameters
    _types: dict = field(default_factory=dict, init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _frac(self.rho))
        if not (isinstance(self.N, int) and self.N >= 1):
            raise ValueError("N must be an integer >= 1")
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError("d must be an integer >= 1")
        if not (0 < self.rho <= 2):
            raise ValueError("rho must lie in (0, 2]")
        if not isinstance(self.alpha0, Homogeneity):
            raise TypeError("alpha0 must be a Homogeneity")
        if self.alpha0.a >= 0:
            raise ValueError("alpha0 must have a negative rational part")

    @classmethod
    def white_noise(cls, N: int, d: int, rho: RationalLike) -> "Parameters":
        r = _frac(rho)
        return cls(N=N, d=d, rho=r, alpha0=alpha0_white_noise(r, d))

    @cached_property
    def units(self) -> tuple[int, int, int]:
        """(L, A, R): L the common denominator of alpha0 and rho, A and R
        their rational parts in units of 1/L.  A type (p, q, k) weighs
        p*A + q*R + k[0]*R + (k[1] + ...)*L units, an exact multiple of 1/L."""
        L = lcm(self.alpha0.a.denominator, self.rho.denominator)
        return L, int(self.alpha0.a * L), int(self.rho * L)

    @property
    def scale(self) -> int:
        """L, the common denominator of alpha0 and rho."""
        return self.units[0]

    def floor_units(self, x: Fraction) -> int:
        """Largest integer u with u / L <= x, for a threshold such as maxh."""
        return x.numerator * self.units[0] // x.denominator

    @property
    def slack(self) -> Fraction:
        """N*rho + (N-1)*alpha0 at kappa = 0.

        The line p*alpha0 + q*rho = 0 leaves the cone p <= 1 + (N-1)q/N at a
        finite q exactly when the slack is positive; a subcritical point with
        zero slack (on the boundary, with a positive kappa coefficient) has an
        infinite negative sector, which :func:`require_subcritical` refuses.
        """
        return self.N * self.rho + (self.N - 1) * self.alpha0.a

    @property
    def q_star(self) -> Fraction:
        """Lattice bound N*(-alpha0)/slack, where the zero line leaves the cone.

        No negative symbol has more integration edges.  For white noise this
        is ``counting.lattice_bounds(N, d, rho).q_star``.  Defined for
        positive slack only.
        """
        return -self.N * self.alpha0.a / self.slack

    @property
    def rho_gap(self) -> Fraction:
        """Distance 2*slack/(N+1) to the subcriticality boundary.

        For white noise this is rho - rho_c; for a custom alpha0 it measures
        the same distance through the noise regularity.
        """
        return 2 * self.slack / (self.N + 1)

    def type_entry(self, p: int, q: int, kvec: tuple) -> tuple[tuple[int, int], Homogeneity]:
        """Integer sort key (units, kappa coefficient) and the one shared
        homogeneity of a Symbol's type (ints, kvec a tuple), memoized.  Keys
        order as homogeneities do; a key below (0, 0) marks a negative one."""
        hit = self._types.get((p, q, kvec))
        if hit is None:
            L, A, R = self.units
            u = p * A + q * R + (kvec[0] * R + sum(kvec[1:]) * L if kvec else 0)
            key = (u, p * self.alpha0.b)
            hit = self._types[p, q, kvec] = (key, Homogeneity(Fraction(u, L), key[1]))
        return hit

    def homogeneity_of_type(self, p: int, q: int, k: Sequence[int] = ()) -> Homogeneity:
        """Homogeneity p*alpha0 + q*rho + |k|_s of a symbol of type (p, q, k)."""
        kt = tuple(k)
        if type(p) is type(q) is int and all(type(x) is int and x >= 0 for x in kt):
            return self.type_entry(p, q, kt)[1]
        # anything else (a Fraction q, a float, a bad k) keeps the exact formula and its errors
        base = self.alpha0 * p
        return Homogeneity(base.a + self.rho * q + scaled_degree(kt, self.rho), base.b)


def is_locally_subcritical(params: Parameters) -> tuple[bool, str]:
    """Decide local subcriticality, returning (verdict, case).

    The criterion has two branches:

    * case "i":   alpha0 + rho > 0, so even the noise itself gains
      regularity under one integration;
    * case "ii":  N*rho > -(N-1)*alpha0, the generic branch (for white
      noise this reduces to rho > rho_c, boundary excluded).

    Comparisons are kappa-aware, which is what makes the boundary strict:
    at rho = rho_c the right-hand side of case "ii" wins by (N-1)*kappa.
    """
    zero = Homogeneity(Fraction(0), 0)
    gain = params.alpha0.shift(params.rho)
    if gain > zero:
        return True, "i"
    lhs = Homogeneity(params.rho * params.N, 0)
    rhs = params.alpha0 * (-(params.N - 1))
    if lhs > rhs:
        return True, "ii"
    return False, "none"


def require_subcritical(params: Parameters) -> None:
    """Raise SubcriticalityError unless ``params`` has a finite negative sector.

    That needs local subcriticality and a positive slack; the two differ
    only on the boundary with a positive kappa coefficient, where case "ii"
    holds but every full tree has homogeneity alpha0 plus a kappa multiple.
    """
    where = (
        f"parameters N={params.N}, d={params.d}, rho={params.rho}, "
        f"alpha0={params.alpha0}"
    )
    if not is_locally_subcritical(params)[0]:
        raise SubcriticalityError(f"{where} satisfy no subcriticality condition")
    if params.slack <= 0:
        raise SubcriticalityError(
            f"{where}: the negative sector is infinite on the subcriticality boundary"
        )


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
