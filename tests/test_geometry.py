"""A point's geometry in integer units against the Fraction formulas it replaced.

The reference functions below are the Fraction arithmetic that
``params`` and ``counting`` used before the geometry was read off the
units (L, A, R) and the slack in units S = N*R + (N-1)*A.  Every verdict,
value and refusal text must agree on a grid that takes in both boundaries
of the criterion, A + R = 0 and S = 0, with every sign of the kappa
coefficient.
"""

import math
from fractions import Fraction as F

import pytest

from fractree.counting import LatticeBounds, dio_count, lattice_bounds
from fractree.params import (
    Homogeneity,
    Parameters,
    SubcriticalityError,
    alpha0_white_noise,
    completeness_threshold,
    is_locally_subcritical,
    require_subcritical,
    rho_c,
)


def ref_alpha0_white_noise(rho, d):
    r = F(rho)
    if r <= 0:
        raise ValueError("rho must be positive")
    return Homogeneity(-(r + d) / 2, -1)


def ref_units(params):
    L = math.lcm(params.alpha0.a.denominator, params.rho.denominator)
    return L, int(params.alpha0.a * L), int(params.rho * L)


def ref_is_locally_subcritical(params):
    zero = Homogeneity(F(0), 0)
    if params.alpha0.shift(params.rho) > zero:
        return True, "i"
    lhs = Homogeneity(params.rho * params.N, 0)
    if lhs > params.alpha0 * (-(params.N - 1)):
        return True, "ii"
    return False, "none"


def ref_slack(params):
    return params.N * params.rho + (params.N - 1) * params.alpha0.a


def ref_q_star(params):
    return -params.N * params.alpha0.a / ref_slack(params)


def ref_rho_gap(params):
    return 2 * ref_slack(params) / (params.N + 1)


def ref_completeness_threshold(params):
    climb = params.alpha0.a + params.rho
    if climb >= 0:
        return F(0)
    return -(params.N - 1) * climb


def ref_require_subcritical(params):
    where = (
        f"parameters N={params.N}, d={params.d}, rho={params.rho}, "
        f"alpha0={params.alpha0}"
    )
    if not ref_is_locally_subcritical(params)[0]:
        raise SubcriticalityError(f"{where} satisfy no subcriticality condition")
    if ref_slack(params) <= 0:
        raise SubcriticalityError(
            f"{where}: the negative sector is infinite on the subcriticality boundary"
        )


def ref_lattice_bounds(N, d, rho):
    r = F(rho)
    ref_require_subcritical(Parameters(N=N, d=d, rho=r, alpha0=ref_alpha0_white_noise(r, d)))
    gap = r - rho_c(N, d)
    denom = gap * (N + 1)
    return LatticeBounds(
        p_star=F(2 * N) * r / denom, q_star=F(N) * (r + d) / denom, rho_gap=gap
    )


def ref_dio_count(N, d, rho, boundary):
    r = F(rho)
    q_top = math.floor(ref_lattice_bounds(N, d, r).q_star)
    num, den = r.numerator, r.denominator
    scale, w = 2 * den, N * (num - d * den)
    shift = 0 if boundary == "le" else 1
    total = 0
    for qt in range(1, q_top + 1):
        for p in range(1, 2 + ((N - 1) * qt) // N):
            v0 = 2 * num * qt - p * (num + d * den)
            total += max((-v0 - shift) // scale - max(0, -((v0 - w) // scale)) + 1, 0)
    return total


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # compared by type and text
        return type(exc), str(exc)


RHOS = [F(k, 20) for k in range(1, 41)]


def _custom_alpha0s(N, rho, d):
    """Noise regularities at and around both boundaries, each with kappa
    coefficient -1, 0 and 1."""
    parts = {-rho, -rho / 2, -2 * rho, -(rho + d) / 2, -rho - F(1, 7)}  # -rho: A + R = 0
    if N > 1:
        edge = -N * rho / (N - 1)  # slack 0
        parts |= {edge, edge + F(1, 11), edge - F(1, 11)}
    return [Homogeneity(a, b) for a in sorted(parts) if a < 0 for b in (-1, 0, 1)]


def _check_point(params):
    assert params.units == ref_units(params)
    assert is_locally_subcritical(params) == ref_is_locally_subcritical(params)
    assert _outcome(require_subcritical, params) == _outcome(ref_require_subcritical, params)
    assert params.slack == ref_slack(params)
    assert params.rho_gap == ref_rho_gap(params)
    assert completeness_threshold(params) == ref_completeness_threshold(params)
    if params.slack:
        assert params.q_star == ref_q_star(params)
    else:  # q* is defined for a nonzero slack only
        with pytest.raises(ZeroDivisionError):
            params.q_star


@pytest.mark.parametrize("N", range(1, 6))
class TestGeometryOracle:
    def test_white_noise(self, N):
        refused = 0
        for d in range(1, 4):
            for rho in RHOS:
                alpha0 = alpha0_white_noise(rho, d)
                assert alpha0 == ref_alpha0_white_noise(rho, d)
                params = Parameters.white_noise(N, d, rho)
                _check_point(params)
                want = _outcome(ref_lattice_bounds, N, d, rho)
                assert _outcome(lattice_bounds, N, d, rho) == want
                for boundary in ("le", "lt"):
                    got = _outcome(dio_count, N, d, rho, boundary)
                    assert got == _outcome(ref_dio_count, N, d, rho, boundary)
                refused += isinstance(want, tuple)
        if N > 1:  # both sides of rho_c are on the grid
            assert 0 < refused < 3 * len(RHOS)

    def test_custom_noise(self, N):
        verdicts = set()
        for d in range(1, 4):
            for rho in RHOS[1::2]:
                for alpha0 in _custom_alpha0s(N, rho, d):
                    params = Parameters(N=N, d=d, rho=rho, alpha0=alpha0)
                    _check_point(params)
                    _, A, R = params.units
                    verdicts.add((is_locally_subcritical(params)[1], A + R == 0, params.slack > 0))
        if N > 1:  # every case, both boundaries, refused and accepted
            assert {v[0] for v in verdicts} == {"i", "ii", "none"}
            assert ("i", True, True) in verdicts and ("ii", True, True) in verdicts
            assert ("ii", False, False) in verdicts and ("none", False, False) in verdicts
