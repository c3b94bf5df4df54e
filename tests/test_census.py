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
    count_bounded_by_leaves,
    count_regular,
    from_json_dict,
    h0_F,
    h_F,
    is_locally_subcritical,
    to_json_dict,
)
from fractree.census import census, marked_census
from fractree.counting import h0_bounds, hF_bounds
from fractree.params import alpha0_white_noise, rho_c
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


CERTIFIED_POINTS = sorted(GRID_COUNTS, key=str) + [(2, 2, F(73, 100)), (3, 3, F(8, 5))]

CUSTOM_NOISE = [
    (2, 2, F(8, 5), F(-29, 10), -1),
    (3, 2, F(19, 10), F(-27, 10), -1),
    (2, 3, F(13, 10), F(-23, 10), -1),
    (3, 3, F(7, 4), F(-5, 2), -1),
    (2, 2, F(1, 2), F(-1, 2), -1),
    (2, 2, F(1), F(-3, 2), 0),  # no kappa: u = 0 symbols are not negative
]


class TestAgainstBuild:
    @pytest.mark.parametrize("point", CERTIFIED_POINTS)
    def test_certified_points(self, spaces, point):
        ms = spaces(*point)
        assert ms.complete
        assert _census_counts(ms.params) == _counts(ms)

    @pytest.mark.parametrize("N,d,rho,a,b", CUSTOM_NOISE)
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


def _is_white(params):
    return params.alpha0 == alpha0_white_noise(params.rho, params.d)


def _exit_rho(params, p, q, k):
    """The rho where class (p, q, |k|) reaches homogeneity 0 (kappa aside) at
    the N, d and noise of ``params``: p*alpha0 + q*rho + |k| = 0."""
    if _is_white(params):  # alpha0 = -(rho + d)/2 - kappa
        return (F(p * params.d, 2) - k) / (q - F(p, 2))
    return -(p * params.alpha0.a + k) / q


EXIT_BASES = [
    Parameters.white_noise(2, 2, F(3, 4)),
    Parameters.white_noise(3, 3, F(8, 5)),
    Parameters(N=2, d=2, rho=F(8, 5), alpha0=Homogeneity(F(-29, 10), -1)),
    Parameters(N=2, d=2, rho=F(1), alpha0=Homogeneity(F(-3, 2), 0)),
]
EXIT_IDS = ["2-2-3/4", "3-3-8/5", "2-2-8/5-noise", "2-2-1-no-kappa"]


def _exit_points(params):
    """The points above ``params`` at each class's exit rho and 1e-6 above
    it, where one class sits at homogeneity 0 or has just left."""
    L0 = params.scale
    for (p, q, s), _ in census(params).classes:
        if not q:
            continue
        r = _exit_rho(params, p, q, s // L0)
        for rho in (r, r + F(1, 10**6)):
            if params.rho < rho <= 2:
                alpha0 = alpha0_white_noise(rho, params.d) if _is_white(params) else params.alpha0
                yield Parameters(N=params.N, d=params.d, rho=rho, alpha0=alpha0)


class TestReadAtHigherRho:
    """``Census.at`` reads the census at a higher rho off a lower one's
    classes; the direct census at the higher point is the oracle."""

    @pytest.mark.parametrize("N,d", sorted({point[:2] for point in CERTIFIED_POINTS}))
    def test_certified_points(self, N, d):
        points = [Parameters.white_noise(*point) for point in CERTIFIED_POINTS if point[:2] == (N, d)]
        base = min(points, key=lambda params: params.rho)
        lowest = census(base)
        for params in points:
            assert lowest.at(base, params) == census(params), params

    @pytest.mark.parametrize("N,d,rho,a,b", CUSTOM_NOISE)
    def test_custom_noise(self, N, d, rho, a, b):
        """From the midpoint between the least subcritical rho, where the
        slack N*rho + (N-1)*a is 0, and the point."""
        params = Parameters(N=N, d=d, rho=rho, alpha0=Homogeneity(a, b))
        base = Parameters(N=N, d=d, rho=(rho - (N - 1) * a / N) / 2, alpha0=params.alpha0)
        assert census(base).at(base, params) == census(params)

    @pytest.mark.parametrize(
        "params",
        [
            Parameters.white_noise(2, 2, F(3, 4)),
            Parameters.white_noise(3, 3, F(8, 5)),
            Parameters(N=2, d=2, rho=F(8, 5), alpha0=Homogeneity(F(-29, 10), -1)),
            Parameters(N=2, d=2, rho=F(1), alpha0=Homogeneity(F(-3, 2), 0)),
        ],
        ids=["2-2-3/4", "3-3-8/5", "2-2-8/5-noise", "2-2-1-no-kappa"],
    )
    def test_exit_rhos(self, params):
        """At a class's exit rho the class stays when its kappa coefficient
        p*b0 is negative, and just above it the class has left."""
        lowest = census(params)
        L0, b0 = params.scale, params.alpha0.b
        exits = 0
        for (p, q, s), _ in lowest.classes:
            if not q:
                continue
            r = _exit_rho(params, p, q, s // L0)
            for rho in (r, r + F(1, 10**6)):
                if not params.rho < rho <= 2:
                    continue
                alpha0 = alpha0_white_noise(rho, params.d) if _is_white(params) else params.alpha0
                there = Parameters(N=params.N, d=params.d, rho=rho, alpha0=alpha0)
                got = lowest.at(params, there)
                assert got == census(there), there
                kept = (p, q, s // L0 * there.scale) in dict(got.classes)
                assert kept == (rho == r and p * b0 < 0), (p, q, s, there)
                exits += 1
        assert exits >= 6

    @pytest.mark.parametrize("params", EXIT_BASES, ids=EXIT_IDS)
    def test_marks_keep_the_census_classes_at_exit_rhos(self, params):
        """Where a class sits at exactly zero, the marked census keeps the
        classes the census keeps, and its marks hold no other class."""
        points = list(_exit_points(params))
        assert len(points) >= 6
        for there in points:
            counts, marks = marked_census(there)
            assert counts == census(there), there
            assert {key[:3] for key, _ in marks} == {c for c, _ in counts.classes}, there

    def test_sweep(self):
        """At all 350 subcritical points of N 1..5, d 1..3, rho = k/20, read
        off one census per (N, d) at its lowest subcritical rho."""
        compared = 0
        for N in range(1, 6):
            for d in range(1, 4):
                points = [Parameters.white_noise(N, d, F(k, 20)) for k in range(1, 41)]
                points = [params for params in points if params.slack_units > 0]
                if not points:
                    continue
                lowest = census(points[0])
                for params in points:
                    assert lowest.at(points[0], params) == census(params), params
                    compared += 1
        assert compared == 350

    def test_same_point(self):
        params = Parameters.white_noise(2, 2, F(37, 50))
        assert census(params).at(params, params) == census(params)

    def test_custom_noise_that_is_white_at_the_target(self):
        """A custom alpha0 is the white noise of one rho: read from a white
        base there, and from the same alpha0 below it, as ``scan`` does."""
        white = Parameters.white_noise(2, 2, F(3, 4))
        there = Parameters(N=2, d=2, rho=F(9, 10), alpha0=alpha0_white_noise(F(9, 10), 2))
        same = Parameters(N=2, d=2, rho=F(3, 4), alpha0=there.alpha0)
        assert census(white).at(white, there) == census(same).at(same, there) == census(there)

    @pytest.mark.parametrize(
        "base,params,message",
        [
            ((2, 2, F(3, 4)), (3, 2, F(3, 2)), "another N, d or noise"),
            ((2, 2, F(3, 4)), (2, 3, F(3, 2)), "another N, d or noise"),
            ((2, 2, F(3, 4)), Parameters(N=2, d=2, rho=F(1), alpha0=Homogeneity(F(-7, 5), -1)),
             "another N, d or noise"),
            (Parameters(N=2, d=2, rho=F(8, 5), alpha0=Homogeneity(F(-29, 10), -1)), (2, 2, F(17, 10)),
             "another N, d or noise"),
            (Parameters(N=2, d=2, rho=F(8, 5), alpha0=Homogeneity(F(-29, 10), -1)),
             Parameters(N=2, d=2, rho=F(17, 10), alpha0=Homogeneity(F(-29, 10), 0)),
             "another N, d or noise"),
            ((2, 2, F(4, 5)), (2, 2, F(3, 4)), "the lower rho=3/4"),
        ],
        ids=["N", "d", "noise", "custom-to-white", "kappa", "lower-rho"],
    )
    def test_refusals(self, base, params, message):
        base, params = (p if isinstance(p, Parameters) else Parameters.white_noise(*p) for p in (base, params))
        with pytest.raises(ValueError, match=message):
            census(base).at(base, params)


class TestTreeCounts:
    @pytest.mark.parametrize(
        "point",
        [(2, 2, F(3, 4)), (2, 2, F(37, 50)), (3, 3, F(8, 5)), (4, 2, F(3, 2)), (2, 2, F(83, 120))],
        ids=str,
    )
    def test_undecorated_classes_are_tree_counts(self, point):
        """An undecorated class (p, q, 0) with q >= 1 holds the bounded-arity
        trees with q edges and p leaves, a count without rho: the reason a
        census at a lower rho holds every higher point's classes."""
        N = point[0]
        plain = [(p, q, count) for (p, q, s), count in census(Parameters.white_noise(*point)).classes
                 if s == 0 and q >= 1]
        assert len(plain) >= 5
        for p, q, count in plain:
            assert count == count_bounded_by_leaves(N, q + 1, p), (p, q)

    @pytest.mark.parametrize(
        "N,d,gap", [(2, 2, 100), (2, 2, 200), (2, 2, 500), (3, 3, 100), (3, 3, 200)], ids=str
    )
    def test_gap_ladder(self, N, d, gap):
        """The same identity at rho = rho_c + 1/gap, where no build reaches;
        at (2, 2) Xi is the only other class, so the tree counts add up to
        c_F."""
        got = census(Parameters.white_noise(N, d, rho_c(N, d) + F(1, gap)))
        plain = [(p, q, count) for (p, q, s), count in got.classes if s == 0 and q >= 1]
        for p, q, count in plain:
            assert count == count_bounded_by_leaves(N, q + 1, p), (p, q)
        if (N, d) == (2, 2):
            assert 1 + sum(count for _, _, count in plain) == got.c_F


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
