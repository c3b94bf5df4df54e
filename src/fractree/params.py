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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

__all__ = [
    "Rational",
    "RationalLike",
    "Homogeneity",
    "Parameters",
    "SubcriticalityError",
    "ExplosionError",
    "rho_c",
    "alpha0_white_noise",
    "scaled_degree",
    "is_locally_subcritical",
]

Rational = Fraction
RationalLike = Union[Fraction, int, str]


def _frac(x: RationalLike) -> Fraction:
    """Coerce ints, strings like '3/2' or '0.9', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError(
            "refusing float %r: pass a Fraction or a string such as '9/10' "
            "so homogeneities stay exact" % (x,)
        )
    raise TypeError(f"cannot interpret {x!r} as a rational number")


@dataclass(frozen=True, order=False)
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
        return self.a < 0 or (self.a == 0 and self.b < 0)

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

    def _key(self) -> tuple[Fraction, int]:
        return (self.a, self.b)

    def __lt__(self, other: "Homogeneity") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "Homogeneity") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "Homogeneity") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "Homogeneity") -> bool:
        return self._key() >= other._key()

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

    @property
    def rho_gap(self) -> Fraction:
        """Distance rho - rho_c to the subcriticality boundary."""
        return self.rho - rho_c(self.N, self.d)

    def homogeneity_of_type(self, p: int, q: int, k: Sequence[int] = ()) -> Homogeneity:
        """Homogeneity p*alpha0 + q*rho + |k|_s of a symbol of type (p, q, k)."""
        base = self.alpha0 * p
        return Homogeneity(
            base.a + self.rho * q + scaled_degree(k, self.rho), base.b
        )


def is_locally_subcritical(params: Parameters) -> tuple[bool, str]:
    """Decide local subcriticality, returning (verdict, case).

    The criterion has three branches:

    * case "i":   alpha0 + rho > 0, so even the noise itself gains
      regularity under one integration;
    * case "ii":  N*rho > -(N-1)*alpha0, the generic branch (for white
      noise this reduces to rho > rho_c, boundary excluded);
    * case "iii": N = 0, a linear equation, always subcritical.

    Comparisons are kappa-aware, which is what makes the boundary strict:
    at rho = rho_c the right-hand side of case "ii" wins by (N-1)*kappa.
    """
    zero = Homogeneity(Fraction(0), 0)
    if params.N == 0:  # unreachable through Parameters, kept for completeness
        return True, "iii"
    gain = params.alpha0.shift(params.rho)
    if gain > zero:
        return True, "i"
    lhs = Homogeneity(params.rho * params.N, 0)
    rhs = params.alpha0 * (-(params.N - 1))
    if lhs > rhs:
        return True, "ii"
    return False, "none"
