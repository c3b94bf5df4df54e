"""Lattice-side counting: cone membership, exit points, bounds, the linear system."""

import math
from fractions import Fraction as F

import pytest

from fractree.counting import (
    ALPHA_LIMIT,
    ALPHA_N,
    DioSystem,
    beta_N,
    d0_contains,
    dio_count,
    dio_solutions,
    h0_bounds,
    hF_bounds,
    lattice_bounds,
    p_of_q,
)
from fractree.params import SubcriticalityError


class TestCone:
    def test_membership(self):
        assert d0_contains(0, 0, 2)
        assert d0_contains(1, 0, 2)
        assert not d0_contains(2, 0, 2)
        assert not d0_contains(0, 1, 2)
        assert not d0_contains(1, -1, 2)
        assert d0_contains(3, 4, 2)  # boundary: 6 <= 2 + 4
        assert not d0_contains(3, 3, 2)
        assert d0_contains(5, 8, 3)

    def test_boundary_profile(self):
        assert [p_of_q(q, 2) for q in range(1, 9)] == [1, 2, 2, 3, 3, 4, 4, 5]
        assert [p_of_q(q, 3) for q in range(1, 7)] == [1, 2, 3, 3, 4, 5]
        with pytest.raises(ValueError):
            p_of_q(0, 2)

    def test_boundary_points_lie_in_cone(self):
        for N in (2, 3, 4):
            for q in range(1, 40):
                p = p_of_q(q, N)
                assert d0_contains(p, q, N)
                assert not d0_contains(p + 1, q, N)


class TestExitPoint:
    def test_frozen_values(self):
        lb = lattice_bounds(2, 2, F(9, 10))
        assert (lb.p_star, lb.q_star, lb.rho_gap) == (F(36, 7), F(58, 7), F(7, 30))
        lb = lattice_bounds(3, 3, F(21, 11))
        assert (lb.p_star, lb.q_star, lb.rho_gap) == (F(7), F(9), F(9, 22))
        assert lattice_bounds(2, 2, F(3, 4)).q_star == 22
        assert lattice_bounds(3, 3, 2).q_star == F(15, 2)

    def test_refuses_at_or_below_critical(self):
        for rho in (F(2, 3), F(1, 2)):
            with pytest.raises(SubcriticalityError):
                lattice_bounds(2, 2, rho)
        with pytest.raises(SubcriticalityError):
            h0_bounds(3, 3, F(3, 2))

    def test_exit_scales_like_inverse_gap(self):
        q1 = lattice_bounds(2, 2, F(2, 3) + F(1, 10)).q_star
        q2 = lattice_bounds(2, 2, F(2, 3) + F(1, 20)).q_star
        assert q2 / q1 > F(3, 2)  # near-doubling, the numerator barely moves


class TestBounds:
    def test_frozen_windows(self):
        assert h0_bounds(2, 2, F(9, 10)) == (F(29, 7), F(65, 7))
        assert hF_bounds(2, 2, F(9, 10)) == (F(29, 7), F(123, 7))
        assert h0_bounds(2, 2, 1) == (3, 7)
        assert hF_bounds(2, 2, 1) == (3, 13)
        assert h0_bounds(3, 3, F(21, 11)) == (3, 10)
        assert hF_bounds(3, 3, F(21, 11)) == (3, 28)
        assert h0_bounds(2, 2, F(3, 4)) == (11, 23)
        assert hF_bounds(2, 2, F(3, 4)) == (11, 45)

    def test_lower_bounds_shared_and_ordered(self):
        for rho in (F(9, 10), F(17, 20), F(4, 5), F(3, 4)):
            lo0, hi0 = h0_bounds(2, 2, rho)
            loF, hiF = hF_bounds(2, 2, rho)
            assert lo0 == loF < hi0 <= hiF

    def test_growth_constants(self):
        assert beta_N(2) == pytest.approx(0.8085063282127601, rel=1e-12)
        assert beta_N(3) == pytest.approx(1.1645165131443078, rel=1e-12)
        assert beta_N(4, alpha=0.25) == pytest.approx(32 / 25 * math.log(4.0), rel=1e-12)
        with pytest.raises(ValueError):
            beta_N(4)
        assert ALPHA_N[3] > ALPHA_LIMIT  # radii decrease toward the limit
        assert ALPHA_N[2] > ALPHA_N[3]


class TestDioSystem:
    def test_matrix_frozen(self):
        s = DioSystem.from_params(2, 2, F(9, 10))
        assert s.A == ((9, 20, -20, 1, 0, 0), (9, 20, -20, 0, -1, 0), (-1, 0, 1, 0, 0, 1))
        assert s.b == (11, -11, 0)

    def test_representation_insensitive(self):
        a = DioSystem(N=2, d=2, p_rho=9, q_rho=10)
        b = DioSystem(N=2, d=2, p_rho=18, q_rho=20)
        c = (0, 0, 0, 11, 11, 0)
        assert a.check(c) and b.check(tuple(2 * x for x in c[:3]) + (22, 22, 0))

    def test_check_accepts_all_solver_output(self):
        for N, d, rho in ((2, 2, F(9, 10)), (3, 3, F(21, 11)), (2, 2, 1), (3, 3, 2)):
            s = DioSystem.from_params(N, d, rho)
            for boundary in ("le", "lt"):
                sols = list(dio_solutions(N, d, rho, boundary))
                assert len(sols) == len(set(sols))
                assert all(s.check(c) for c in sols)

    def test_check_rejects_tampering(self):
        s = DioSystem.from_params(2, 2, F(9, 10))
        good = (0, 0, 0, 11, 11, 0)
        assert s.check(good)
        assert not s.check((0, 0, 0, 11, 10, 0))
        assert not s.check((0, 0, 0, 11, 11))
        assert not s.check((-1, 0, 1, 11, 11, 0))

    def test_counts_frozen(self):
        assert dio_count(2, 2, F(9, 10)) == 7
        assert dio_count(2, 2, F(9, 10), "lt") == 7  # no zero-homogeneity types here
        assert dio_count(2, 2, 1) == 6
        assert dio_count(2, 2, 1, "lt") == 3
        assert dio_count(3, 3, F(21, 11)) == 8
        assert dio_count(3, 3, F(21, 11), "lt") == 7
        assert dio_count(3, 3, 2) == 7
        assert dio_count(3, 3, 2, "lt") == 5
        assert dio_count(2, 2, F(3, 4)) == 20
        assert dio_count(2, 2, F(3, 4), "lt") == 17

    def test_boundary_validation(self):
        with pytest.raises(ValueError):
            list(dio_solutions(2, 2, 1, boundary="leq"))
        with pytest.raises(SubcriticalityError):
            dio_count(2, 2, F(2, 3))

    def test_solutions_store_consistent_slacks(self):
        """Slack entries must reproduce the window membership they encode."""
        r = F(21, 11)
        for c1m, c2, c3m, c4, c5, c6 in dio_solutions(3, 3, r):
            c1, p = c1m + 1, c3m + 1
            assert (c1 + p) % 2 == 0
            qt = (c1 + p) // 2
            v = r * qt + c2 - p * (r + 3) / 2
            assert v <= 0 and c4 == -v * 2 * r.denominator
            assert c6 == c1 - p >= 0



def _reference_dio_solutions(N, d, rho, boundary="le"):
    """The Fraction-arithmetic box walk that integer units replaced, kept as the oracle."""
    r = F(rho)
    q_star = lattice_bounds(N, d, r).q_star
    half = (r + d) / 2
    window_lo = F(N) * (r - d) / 2
    scale = 2 * r.denominator
    for qt in range(1, q_star.numerator // q_star.denominator + 1):
        p_max = 1 + ((N - 1) * qt) // N
        for p in range(1, p_max + 1):
            base = r * qt - p * half
            c2_lo = max(0, math.ceil(window_lo - base))
            hi = -base
            c2_hi = math.floor(hi) if boundary == "le" else math.ceil(hi) - 1
            for c2 in range(c2_lo, c2_hi + 1):
                v = base + c2
                c1 = 2 * qt - p
                yield (c1 - 1, c2, p - 1, int(-v * scale), int((v - window_lo) * scale), c1 - p)


_DIO_POINTS = [
    (N, d, rho)
    for N in range(1, 6)
    for d in range(1, 4)
    for rho in [F(k, 20) for k in range(1, 41)]
    if rho > F(d * (N - 1), N + 1)
]


class TestDioIntegerUnits:
    @pytest.mark.parametrize("boundary", ["le", "lt"])
    def test_same_vectors_in_the_same_order(self, boundary):
        for N, d, rho in _DIO_POINTS:
            ref = list(_reference_dio_solutions(N, d, rho, boundary))
            assert list(dio_solutions(N, d, rho, boundary)) == ref, (N, d, rho)
            assert dio_count(N, d, rho, boundary) == len(ref), (N, d, rho)

    def test_vectors_are_ints(self):
        for sol in dio_solutions(2, 2, F(3, 4), "lt"):
            assert all(type(x) is int for x in sol)
