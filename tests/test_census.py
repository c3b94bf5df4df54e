"""The type-class census against the builder, the size law and the tree tables."""

from fractions import Fraction as F

import pytest

import fractree
import fractree.symbols
from fractree import (
    BuildConfig,
    ExplosionError,
    Homogeneity,
    Parameters,
    SubcriticalityError,
    build,
    c_F,
    completeness_threshold,
    count_regular,
    from_json_dict,
    h0_F,
    h_F,
    is_locally_subcritical,
    to_json_dict,
)
from fractree.census import census, marked_census
from fractree.counting import h0_bounds, hF_bounds
from fractree.params import rho_c
from fractree.stats import size_distribution

from test_builder import GRID_COUNTS


def _counts(ms):
    return (h0_F(ms), h_F(ms), c_F(ms))


def _census_counts(params):
    got = census(params)
    return (got.h0_F, got.h_F, got.c_F)


def _certified(params, **kwargs):
    ms = build(params, BuildConfig(maxh=completeness_threshold(params), **kwargs))
    assert ms.complete
    return ms


class TestAgainstBuild:
    @pytest.mark.parametrize(
        "point",
        sorted(GRID_COUNTS, key=str) + [(2, 2, F(73, 100)), (3, 3, F(8, 5))],
    )
    def test_certified_points(self, spaces, point):
        ms = spaces(*point)
        assert ms.complete
        assert _census_counts(ms.params) == _counts(ms)

    @pytest.mark.parametrize(
        "N,d,rho,a,b",
        [
            (2, 2, F(8, 5), F(-29, 10), -1),
            (3, 2, F(19, 10), F(-27, 10), -1),
            (2, 3, F(13, 10), F(-23, 10), -1),
            (3, 3, F(7, 4), F(-5, 2), -1),
            (2, 2, F(1, 2), F(-1, 2), -1),
            (2, 2, F(1), F(-3, 2), 0),  # no kappa: u = 0 symbols are not negative
        ],
    )
    def test_custom_noise(self, N, d, rho, a, b):
        params = Parameters(N=N, d=d, rho=rho, alpha0=Homogeneity(a, b))
        assert _census_counts(params) == _counts(_certified(params))

    # (5, 3) is left out: its rho_c is 2, so no rho in (0, 2] is subcritical.
    @pytest.mark.parametrize(
        "N,d", [(N, d) for N in range(1, 6) for d in range(1, 4) if (N, d) != (5, 3)]
    )
    def test_sweep(self, N, d):
        """Every rho = k/20 from 2 down, until the builder needs more than
        3,000 symbols (c_F stays under about 2,000)."""
        compared = 0
        for k in range(40, 0, -1):
            params = Parameters.white_noise(N, d, F(k, 20))
            if not is_locally_subcritical(params)[0]:
                break
            try:
                ms = _certified(params, cap=3000)
            except ExplosionError:
                break
            assert _census_counts(params) == _counts(ms), params
            compared += 1
        assert compared >= 3

    @pytest.mark.parametrize(
        "params,counts",
        [
            (Parameters.white_noise(1, 1000, 1), (501, 501, 501)),
            (Parameters(N=2, d=5000, rho=F(1), alpha0=Homogeneity(F(-1, 2), -1)), (1, 1, 1)),
        ],
        ids=["N1-d1000", "N2-d5000-noise"],
    )
    def test_high_dimension(self, params, counts):
        """Seeding enumerates monomials without recursing once per coordinate."""
        assert _census_counts(params) == _counts(_certified(params)) == counts


class TestSizeLaw:
    @pytest.mark.parametrize("point", [(2, 2, F(3, 4)), (3, 3, F(17, 10))])
    def test_law_matches_size_distribution(self, spaces, point):
        ms = spaces(*point)
        assert census(ms.params).sizes == size_distribution(ms).counts

    @pytest.mark.parametrize(
        "point", [(2, 2, F(3, 4)), (2, 2, F(18, 25)), (3, 3, F(8, 5)), (3, 2, F(13, 10))]
    )
    def test_full_trees_are_regular_trees(self, point):
        """Undecorated classes with q = 0 mod N and every leaf a noise are
        the N-regular trees with q + 1 vertices."""
        N = point[0]
        full = [
            (q, count)
            for (p, q, s), count in census(Parameters.white_noise(*point)).classes
            if s == 0 and q % N == 0 and N * p == N + (N - 1) * q
        ]
        assert [q for q, _ in full] == list(range(0, full[-1][0] + 1, N))
        assert all(count == count_regular(N, q + 1) for q, count in full)

    def test_deep_point_18_25(self):
        """The builder's certified (2, 2, 18/25) counts, without building."""
        got = census(Parameters.white_noise(2, 2, F(18, 25)))
        assert (got.c_F, got.h_F) == (101427, 27)
        assert sum(count for _, count in got.sizes) == got.c_F


# rho = rho_c + 1/k for N 2..5, d 1..3, k in {3, 5, 10, 20, 50, 100}, where
# rho <= 2 (Parameters refuses larger rho): 65 points.
BOUND_POINTS = [
    (N, d, rho_c(N, d) + F(1, k))
    for N in range(2, 6)
    for d in range(1, 4)
    for k in (3, 5, 10, 20, 50, 100)
    if rho_c(N, d) + F(1, k) <= 2
]


class TestInsideBounds:
    """The census counts lie inside the closed-form windows, far past the
    gaps the builder reaches.  (3, 3) at gap 1/1000 is left out: its census
    takes about 12 s."""

    def test_point_count(self):
        assert len(BOUND_POINTS) == 65

    @pytest.mark.parametrize(
        "N,d,rho",
        BOUND_POINTS + [(2, 2, rho_c(2, 2) + F(1, 1000)), (3, 3, rho_c(3, 3) + F(1, 300))],
        ids=str,
    )
    def test_h_counts_inside_windows(self, N, d, rho):
        got = census(Parameters.white_noise(N, d, rho))
        lo0, hi0 = h0_bounds(N, d, rho)
        loF, hiF = hF_bounds(N, d, rho)
        assert lo0 <= got.h0_F <= hi0
        assert loF <= got.h_F <= hiF


class TestNoSymbols:
    def test_census_builds_no_symbol(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("census built a symbol")

        monkeypatch.setattr(fractree.symbols, "_make_node", refuse)
        assert census(Parameters.white_noise(2, 2, F(73, 100))).c_F == 9050
        assert marked_census(Parameters.white_noise(2, 2, F(73, 100)))[0].c_F == 9050


class TestMarkedCounts:
    # (5, 3) is left out: its rho_c is 2, so no rho in (0, 2] is subcritical.
    @pytest.mark.parametrize(
        "N,d", [(N, d) for N in range(1, 6) for d in range(1, 4) if (N, d) != (5, 3)]
    )
    def test_sweep(self, N, d):
        """The marked census counts what the count-only census counts, at
        every rho = k/20 from 2 down while c_F stays under 3,000, and its
        marks total c_F."""
        compared = 0
        for k in range(40, 0, -1):
            params = Parameters.white_noise(N, d, F(k, 20))
            if not is_locally_subcritical(params)[0]:
                break
            want = census(params)
            if want.c_F > 3000:
                break
            counts, marks = marked_census(params)
            assert counts == want, params
            assert sum(entry[0] for _, entry in marks) == want.c_F
            compared += 1
        assert compared >= 3


class TestModule:
    def test_both_spellings(self):
        import fractree.census as module
        from fractree.census import census as function

        assert module.census is function is census
        assert module.marked_census is marked_census
        assert fractree.census is module and fractree.Census is module.Census


class TestRefusal:
    @pytest.mark.parametrize(
        "params",
        [
            Parameters.white_noise(2, 2, F(2, 3)),
            Parameters.white_noise(3, 3, F(1)),
            Parameters(N=2, d=2, rho=F(1, 2), alpha0=Homogeneity(F(-3, 2), -1)),
        ],
    )
    def test_same_refusal_as_build(self, params):
        with pytest.raises(SubcriticalityError) as from_build:
            build(params, BuildConfig(maxh=1))
        with pytest.raises(SubcriticalityError) as from_census:
            census(params)
        with pytest.raises(SubcriticalityError) as from_marked:
            marked_census(params)
        assert str(from_census.value) == str(from_marked.value) == str(from_build.value)

    def test_one_refusal_for_the_infinite_boundary(self):
        """build, census and the JSON loader refuse the boundary point with a
        positive kappa coefficient with one message; the cap makes a build
        that runs instead fail fast with ExplosionError."""
        params = Parameters(N=2, d=2, rho=F(2, 3), alpha0=Homogeneity(F(-4, 3), 1))
        with pytest.raises(SubcriticalityError) as from_build:
            build(params, BuildConfig(maxh=completeness_threshold(params), cap=2000))
        with pytest.raises(SubcriticalityError) as from_census:
            census(params)
        doc = to_json_dict(build(Parameters.white_noise(2, 2, F(1)), BuildConfig(maxh=1)))
        doc["parameters"].update(rho="2/3", alpha0={"a": "-4/3", "b": 1})
        with pytest.raises(SubcriticalityError) as from_json:
            from_json_dict(doc)
        message = str(from_build.value)
        assert "the negative sector is infinite on the subcriticality boundary" in message
        assert str(from_census.value) == message == str(from_json.value)

    def test_infinite_sector_on_the_boundary(self):
        """With a positive kappa coefficient the boundary point passes the
        kappa-aware criterion, but every full tree sits at alpha0."""
        params = Parameters(N=2, d=2, rho=F(2, 3), alpha0=Homogeneity(F(-4, 3), 1))
        assert is_locally_subcritical(params)[0]
        with pytest.raises(ValueError, match="infinite"):
            census(params)
