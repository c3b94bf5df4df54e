"""Homogeneity arithmetic, parameter validation, subcriticality verdicts."""

import ast
import importlib
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import fractree
import fractree.trees
from fractree.params import (
    ExplosionError,
    Homogeneity,
    Parameters,
    alpha0_white_noise,
    is_locally_subcritical,
    rho_c,
    scaled_degree,
)


class TestHomogeneity:
    def test_value_and_str(self):
        h = Homogeneity(F(-7, 4), -1)
        assert h.a == F(-7, 4) and h.b == -1
        assert str(h) == "-7/4 - kappa"
        assert str(Homogeneity(F(0), -7)) == "0 - 7*kappa"
        assert str(Homogeneity(F(1, 2))) == "1/2"

    def test_is_negative_lexicographic(self):
        assert Homogeneity(F(-1, 10), 5).is_negative
        assert Homogeneity(F(0), -1).is_negative
        assert not Homogeneity(F(0), 0).is_negative
        assert not Homogeneity(F(0), 1).is_negative
        assert not Homogeneity(F(1, 10), -100).is_negative

    def test_order(self):
        assert Homogeneity(F(0), -7) < Homogeneity(F(0), -6)
        assert Homogeneity(F(-1), 100) < Homogeneity(F(0), -100)
        assert Homogeneity(F(1, 2), -1) <= Homogeneity(F(1, 2), -1)

    def test_arithmetic(self):
        a = Homogeneity(F(-7, 4), -1)
        assert a + a == Homogeneity(F(-7, 2), -2)
        assert a * 3 == Homogeneity(F(-21, 4), -3)
        assert 2 * a - a == a
        assert a.shift(F(3, 2)) == Homogeneity(F(-1, 4), -1)

    def test_float_refused(self):
        with pytest.raises(TypeError):
            Homogeneity(0.5)
        with pytest.raises(TypeError):
            Homogeneity(F(1)).shift(0.1)

    @given(
        st.fractions(min_value=-4, max_value=4),
        st.integers(min_value=-40, max_value=40),
        st.fractions(min_value=-4, max_value=4),
        st.integers(min_value=-40, max_value=40),
    )
    def test_order_matches_small_kappa_evaluation(self, a1, b1, a2, b2):
        """Lexicographic order equals pointwise order at small enough kappa."""
        h1, h2 = Homogeneity(a1, b1), Homogeneity(a2, b2)
        if a1 != a2:
            kappa = abs(a1 - a2) / (2 * (abs(b1 - b2) + 1))
        else:
            kappa = F(1, 2)
        v1, v2 = a1 + b1 * kappa, a2 + b2 * kappa
        assert (h1 < h2) == (v1 < v2)
        assert ((h1 + h2).a, (h1 + h2).b) == (a1 + a2, b1 + b2)


class TestScaledDegree:
    def test_time_weight(self):
        assert scaled_degree((2, 1, 3), F(3, 2)) == F(7)
        assert scaled_degree((), F(1, 2)) == 0
        assert scaled_degree((0, 1), "0.9") == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            scaled_degree((-1,), F(1))


class TestCritical:
    def test_rho_c_values(self):
        assert rho_c(2, 2) == F(2, 3)
        assert rho_c(3, 3) == F(3, 2)
        assert rho_c(2, 3) == F(1)
        assert rho_c(3, 2) == F(1)
        assert rho_c(1, 5) == 0
        assert rho_c(4, 6) == F(18, 5)

    def test_alpha0(self):
        a = alpha0_white_noise(F(3, 2), 2)
        assert a == Homogeneity(F(-7, 4), -1)
        assert alpha0_white_noise("0.9", 2).a == F(-29, 20)


class TestParameters:
    def test_white_noise_constructor(self):
        p = Parameters.white_noise(2, 2, "0.9")
        assert p.rho == F(9, 10)
        assert p.alpha0 == Homogeneity(F(-29, 20), -1)
        assert p.rho_gap == F(9, 10) - F(2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            Parameters.white_noise(0, 2, F(1))
        with pytest.raises(ValueError):
            Parameters.white_noise(2, 0, F(1))
        with pytest.raises(ValueError):
            Parameters.white_noise(2, 2, F(5, 2))  # rho > 2
        with pytest.raises(ValueError):
            Parameters.white_noise(2, 2, F(0))
        with pytest.raises(ValueError):
            Parameters(N=2, d=2, rho=F(1), alpha0=Homogeneity(F(1), -1))

    def test_homogeneity_of_type(self):
        p = Parameters.white_noise(2, 2, F(3, 2))
        assert p.homogeneity_of_type(1, 0) == Homogeneity(F(-7, 4), -1)
        assert p.homogeneity_of_type(2, 2) == Homogeneity(F(-1, 2), -2)
        assert p.homogeneity_of_type(1, 1, (1, 0, 0)) == Homogeneity(F(5, 4), -1)

    def test_boundary_element_types(self):
        """(7,9,0) sits exactly at zero minus kappas at rho=21/11, above at rho=2."""
        at = Parameters.white_noise(3, 3, F(21, 11)).homogeneity_of_type(7, 9)
        assert at == Homogeneity(F(0), -7) and at.is_negative
        above = Parameters.white_noise(3, 3, F(2)).homogeneity_of_type(7, 9)
        assert above == Homogeneity(F(1, 2), -7) and not above.is_negative


class TestSubcriticality:
    def test_boundary_is_strict(self):
        ok, case = is_locally_subcritical(Parameters.white_noise(3, 3, F(3, 2)))
        assert not ok and case == "none"

    def test_generic_case(self):
        ok, case = is_locally_subcritical(Parameters.white_noise(2, 2, F(9, 10)))
        assert ok and case == "ii"

    def test_gain_case(self):
        # alpha0 + rho > 0: d=1, rho=2 gives -3/2 + 2 > 0
        ok, case = is_locally_subcritical(Parameters.white_noise(5, 1, F(2)))
        assert ok and case == "i"

    def test_below_boundary(self):
        ok, case = is_locally_subcritical(Parameters.white_noise(3, 3, F(7, 5)))
        assert not ok and case == "none"

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.fractions(min_value=F(1, 100), max_value=2),
    )
    def test_verdict_equals_gap_sign_for_white_noise(self, N, d, rho):
        """For white noise the three-case criterion collapses to rho > rho_c."""
        params = Parameters.white_noise(N, d, rho)
        ok, _ = is_locally_subcritical(params)
        assert ok == (rho > rho_c(N, d))


class TestLayering:
    def test_explosion_error_lives_in_params(self):
        assert fractree.ExplosionError is ExplosionError
        assert fractree.trees.ExplosionError is ExplosionError
        err = ExplosionError("cap reached", partial=[1])
        assert isinstance(err, RuntimeError) and err.partial == [1]

    @pytest.mark.parametrize("module", ["builder", "cli"])
    def test_module_does_not_import_trees(self, module):
        source = importlib.import_module(f"fractree.{module}").__file__
        with open(source, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        imported = {
            node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        }
        assert "trees" not in imported and "fractree.trees" not in imported
