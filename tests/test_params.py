"""Homogeneity arithmetic, parameter validation, subcriticality verdicts."""

import ast
import importlib
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import fractree
import fractree.trees
from conftest import alarm
from fractree.builder import BuildConfig, build
from fractree.counting import lattice_bounds
from fractree.params import (
    ExplosionError,
    Homogeneity,
    Parameters,
    TooManyDigitsError,
    _frac,
    alpha0_white_noise,
    completeness_threshold,
    is_locally_subcritical,
    rho_c,
    scaled_degree,
)
from fractree.symbols import homogeneity_of

from test_builder import GRID_COUNTS


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

    @pytest.mark.parametrize(
        "call,args,error",
        [
            (_frac, (None,), TypeError),
            (Homogeneity, (F(1), 0.5), TypeError),
            (rho_c, (0, 2), ValueError),
            (Parameters, (2, 2, F(1), F(-2)), TypeError),
        ],
        ids=["frac-none", "kappa-float", "rho_c-N0", "alpha0-not-homogeneity"],
    )
    def test_refusals(self, call, args, error):
        with pytest.raises(error):
            call(*args)

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


def _old_formula(params, p, q, k=()):
    """The homogeneity arithmetic before the per-type memo: five Fraction
    operations per call."""
    base = params.alpha0 * p
    return Homogeneity(base.a + params.rho * q + scaled_degree(k, params.rho), base.b)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the seed's exception type and text, compared below
        return type(exc), str(exc)


class TestTypeMemo:
    """The memoized integer-unit homogeneity against the direct formula."""

    @pytest.mark.parametrize("point", [*sorted(GRID_COUNTS, key=str), "custom noise"])
    def test_every_stored_type(self, spaces, point):
        if point == "custom noise":  # slack 2*8/5 - 29/10 = 3/10
            params = Parameters(N=2, d=2, rho=F(8, 5), alpha0=Homogeneity(F(-29, 10), -1))
            ms = build(params, BuildConfig(maxh=completeness_threshold(params)))
        else:
            ms = spaces(*point)
        params, L = ms.params, ms.params.scale
        seen = {}
        for s in ms.generations:
            h = params.homogeneity_of_type(s.p, s.q, s.kvec)
            key, shared = params.type_entry(s.p, s.q, s.kvec)
            assert h == _old_formula(params, s.p, s.q, s.kvec)
            assert h is shared is homogeneity_of(s, params)
            assert key == (h.a * L, h.b) and h.is_negative == (key < (0, 0))
            seen[key] = h
        keys = sorted(seen)
        assert [seen[k] for k in keys] == sorted(seen.values())

    @given(
        st.fractions(min_value=F(1, 10**6), max_value=2, max_denominator=10**6),
        st.integers(min_value=1, max_value=6),
        st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=40),
                st.integers(min_value=-3, max_value=40),
                st.lists(st.integers(min_value=0, max_value=9), max_size=4),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_large_denominators(self, rho, d, types):
        """rho in (0, 2] with denominators up to 10^6; types drawn at random."""
        params = Parameters.white_noise(2, d, rho)
        entries = []
        for p, q, k in types:
            h = params.homogeneity_of_type(p, q, k)
            assert h == _old_formula(params, p, q, k)
            assert params.homogeneity_of_type(p, q, tuple(k)) is h
            key = params.type_entry(p, q, tuple(k))[0]
            assert h.is_negative == (h < Homogeneity(F(0), 0)) == (key < (0, 0))
            entries.append((key, h))
        for k1, h1 in entries:
            for k2, h2 in entries:
                assert (k1 < k2) == (h1 < h2) and (k1 == k2) == (h1 == h2)
        x = rho / 3 + F(1, 7)
        assert params.floor_units(x) == math.floor(x * params.scale)

    @pytest.mark.parametrize(
        "args",
        [
            (1, 1, (-1,)),
            (1, 1, (0, 1, -2)),
            (1, 1, (1.0,)),
            (1, 1, [0, F(1)]),
            (1.5, 1, ()),
            (1.0, 1, ()),
            (1, 0.5, ()),
            (1, 1.0, ()),
            (F(1), 1, ()),
            (1.0, 1, (-1,)),
            (1, 1.0, (-1,)),
            (1, F(1, 2), ()),
            (2, F(3, 2), (0, 1)),
            (True, 1, (1,)),
            (1, 1, (True,)),
        ],
        ids=repr,
    )
    def test_unusual_input_keeps_its_outcome(self, args):
        """Refusals and exact non-int values, also after the memo holds the
        integer type they compare equal to."""
        params = Parameters.white_noise(2, 2, F(3, 4))
        want = _outcome(_old_formula, params, *args)
        assert _outcome(params.homogeneity_of_type, *args) == want
        p, q = (int(x) for x in args[:2])
        params.homogeneity_of_type(p, q, tuple(abs(int(x)) for x in args[2]))
        assert _outcome(params.homogeneity_of_type, *args) == want

    def test_memo_is_invisible(self):
        a, b = Parameters.white_noise(2, 2, F(3, 4)), Parameters.white_noise(2, 2, F(3, 4))
        a.homogeneity_of_type(3, 2, (1,))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "_types" not in repr(a) and b.units == (8, -11, 6)


class TestGeometry:
    @pytest.mark.parametrize("point", sorted(GRID_COUNTS, key=str))
    def test_white_noise_matches_lattice_bounds(self, point):
        params = Parameters.white_noise(*point)
        bounds = lattice_bounds(*point)
        assert params.q_star == bounds.q_star
        assert params.rho_gap == bounds.rho_gap == params.rho - rho_c(params.N, params.d)

    def test_custom_noise_gap(self):
        # alpha0 = -1/2 at rho = 1/2 lies below the white-noise rho_c = 2/3,
        # yet the slack 2*(1/2) - 1/2 is positive: gap 2*(1/2)/3, q* 2*(1/2)/(1/2)
        params = Parameters(N=2, d=2, rho=F(1, 2), alpha0=Homogeneity(F(-1, 2), -1))
        assert (params.slack, params.rho_gap, params.q_star) == (F(1, 2), F(1, 3), F(2))
        assert params.scale == 2

    def test_scale_is_the_common_denominator(self):
        assert Parameters.white_noise(2, 2, F(3, 4)).scale == 8  # alpha0 = -11/8
        assert Parameters.white_noise(3, 3, F(21, 11)).scale == 11  # alpha0 = -27/11


class TestRationalText:
    """params._frac reads every outside text, refusing one with too many
    digits at once and apart from a malformed one."""

    CALLS = {
        "white_noise": lambda text: Parameters.white_noise(2, 2, text),
        "BuildConfig": lambda text: BuildConfig(maxh=text),
        "Homogeneity": lambda text: Homogeneity(text),
        "lattice_bounds": lambda text: lattice_bounds(2, 2, text),
        "scaled_degree": lambda text: scaled_degree((1,), text),
    }

    @pytest.mark.parametrize("text", ["1e-999999999", "1e99999999", "1e-100000"])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_too_many_digits(self, call, text):
        with alarm(10), pytest.raises(TooManyDigitsError, match="has too many digits"):
            self.CALLS[call](text)

    @pytest.mark.parametrize("text", ["1e1.5", "abc", "1/0", "9/10/2"])
    def test_malformed_is_not_too_long(self, text):
        with pytest.raises((ValueError, ZeroDivisionError)) as info:
            _frac(text)
        assert not isinstance(info.value, TooManyDigitsError)

    def test_within_the_limits(self):
        assert _frac("1e-4000") == F(1, 10**4000)


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


def _imported(module: str) -> set:
    """Modules that ``fractree.<module>`` imports names from."""
    with open(importlib.import_module(f"fractree.{module}").__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}


class TestLayering:
    def test_explosion_error_lives_in_params(self):
        assert fractree.ExplosionError is ExplosionError
        assert fractree.trees.ExplosionError is ExplosionError
        err = ExplosionError("cap reached", partial=[1])
        assert isinstance(err, RuntimeError) and err.partial == [1]

    @pytest.mark.parametrize("module", ["builder", "cli"])
    def test_module_does_not_import_trees(self, module):
        imported = _imported(module)
        assert "trees" not in imported and "fractree.trees" not in imported

    def test_census_does_not_import_builder(self):
        """The census reads the boundary geometry from params alone."""
        assert _imported("census").isdisjoint({"builder", "fractree.builder"})
