"""Sector statistics: exact small-case values, cross-library checks, trends.

The four-symbol space at (2, 2, 3/2) is small enough to aggregate by hand,
so every statistic is pinned there exactly.  Larger sweeps check monotone
behavior toward the boundary plus a frozen endpoint, and betweenness,
PageRank and periphery are verified against networkx on a mid-size build;
every record at (2, 2, 3/4) is checked against networkx tree by tree.  The
full reports at (2, 2, 3/4) and (3, 3, 17/10) are pinned by digest.
"""

import hashlib
import io
import json
from collections import Counter
from fractions import Fraction as F

import networkx as nx
import pytest

from conftest import SWEEP_22, SWEEP_33
from fractree.builder import BuildConfig, ModelSpace, c_F, h_F, negative_sector
from fractree.cli import main
from fractree.counting import p_of_q
from fractree.params import Homogeneity, Parameters
from fractree.stats import (
    degree_distribution,
    graph_measures,
    height_diameter,
    homogeneity_histogram,
    report_json_dict,
    scaling_fit,
    size_distribution,
    stat_report,
    tree_records,
    write_histogram_csv,
)
from fractree.symbols import bare_tree, iter_vertices, one
from fractree.trees import count_regular


def _nx_graph(b):
    g = nx.Graph()
    for idx, parent, _, _ in iter_vertices(b):
        g.add_node(idx)
        if parent >= 0:
            g.add_edge(parent, idx)
    return g


def _degree_counts(g, N):
    hist = Counter(deg for _, deg in g.degree())
    return tuple(hist.get(j, 0) for j in range(N + 2))


class TestSmallCaseExact:
    def test_size_distribution(self, spaces):
        sd = size_distribution(spaces(2, 2, F(3, 2)))
        assert sd.counts == ((0, 1), (1, 1), (2, 1))
        assert sd.pmf == ((0, F(1, 3)), (1, F(1, 3)), (2, F(1, 3)))
        assert sd.off_grid == F(1, 3)
        assert sd.q_star == F(14, 5)
        assert sd.mean_ratio == F(5, 14)
        assert sd.var_ratio == F(25, 294)
        assert sd.certified

    def test_homogeneity_histogram(self, spaces):
        ms = spaces(2, 2, F(3, 2))
        assert homogeneity_histogram(ms) == ((F(-7, 4), 1), (F(-1, 2), 1), (F(-1, 4), 1))
        assert homogeneity_histogram(ms, drop_kappa=False) == (
            ((F(-7, 4), -1), 1),
            ((F(-1, 2), -2), 1),
            ((F(-1, 4), -1), 1),
        )

    def test_degree_distributions(self, spaces):
        ms = spaces(2, 2, F(3, 2))
        dec = degree_distribution(ms, bare=False)
        assert dec.pooled_counts == (1, 6, 4, 0)
        assert dec.pooled == (F(1, 11), F(6, 11), F(4, 11), F(0))
        assert dec.per_tree_mean == (F(0), F(31, 45), F(14, 45), F(0))
        bare = degree_distribution(ms, bare=True)
        assert bare.bare and not dec.bare
        assert bare.pooled_counts == (2, 4, 1, 0)
        assert bare.pooled == (F(2, 7), F(4, 7), F(1, 7), F(0))

    def test_height_diameter(self, spaces):
        hd = height_diameter(spaces(2, 2, F(3, 2)))
        assert hd.heights == (0, 1, 1)
        assert hd.diameters == (0, 2, 1)
        assert hd.mean_height == F(2, 3)
        assert hd.mean_diameter == 1
        gap = 3 / 2 - 2 / 3
        assert hd.scaled_mean_height == pytest.approx(gap**0.5 * 2 / 3, rel=1e-12)
        assert hd.scaled_sq_height == pytest.approx(gap * 2 / 3, rel=1e-12)
        assert hd.height_reference == pytest.approx(2.9575852762986923, rel=1e-12)
        assert hd.diameter_reference == pytest.approx(3.943447035064923, rel=1e-12)

    def test_graph_measures(self, spaces):
        gm = graph_measures(spaces(2, 2, F(3, 2)))
        assert gm.density == F(5, 18)
        assert gm.betweenness == F(1, 9)
        assert gm.pagerank == pytest.approx(11 / 18, abs=1e-9)
        assert gm.periphery == F(4, 3)

    def test_tree_records(self, spaces):
        ms = spaces(2, 2, F(3, 2))
        recs = tree_records(ms)
        assert [r.symbol for r in recs] == [s for s, _ in negative_sector(ms)]
        xi_rec = recs[0]
        assert (xi_rec.p, xi_rec.q, xi_rec.height, xi_rec.diameter) == (1, 0, 0, 0)
        assert xi_rec.degrees == (1, 0, 0, 0)  # bare noise is an isolated vertex
        assert xi_rec.homogeneity == Homogeneity(F(-7, 4), -1)
        assert xi_rec.poly_degree == 0


class TestRecordInvariants:
    @pytest.mark.parametrize("point", [(2, 2, F(4, 5)), (3, 3, F(17, 10))])
    def test_structural_identities(self, spaces, point):
        ms = spaces(*point)
        params = ms.params
        for r in tree_records(ms):
            assert sum(r.degrees) == r.q + 1
            assert sum(j * c for j, c in enumerate(r.degrees)) == 2 * r.q
            assert r.height <= r.q
            assert r.height <= r.diameter <= 2 * r.height
            assert r.degrees[0] == (1 if r.q == 0 else 0)
            assert sum(r.decorated_degrees) == r.p + r.q + 1
            assert sum(j * c for j, c in enumerate(r.decorated_degrees)) == 2 * (r.p + r.q)
            assert r.decorated_degrees[0] == 0
            assert r.homogeneity == params.homogeneity_of_type(r.p, r.q, r.symbol.kvec)
            assert r.homogeneity.is_negative

    @pytest.mark.parametrize("point", [(2, 2, F(4, 5)), (3, 3, F(17, 10))])
    def test_boundary_noise_count(self, spaces, point):
        """Undecorated sector elements sit exactly on the cone's upper edge."""
        ms = spaces(*point)
        N = ms.params.N
        seen = 0
        for s, _ in negative_sector(ms):
            if not s.kvec and s.q >= 1:
                assert s.p == p_of_q(s.q, N)
                seen += 1
        assert seen > 0

    def test_empty_sector_rejected(self):
        params = Parameters.white_noise(2, 2, F(3, 2))
        ms = ModelSpace(
            params=params,
            config=BuildConfig(maxh=F(1, 4)),
            converged=True,
            aborted=False,
            generations={one(): 0},
        )
        with pytest.raises(ValueError):
            size_distribution(ms)


class TestAgainstNetworkx:
    def test_betweenness_pagerank_periphery(self, spaces):
        ms = spaces(2, 2, F(17, 20))
        gm = graph_measures(ms)
        bsum = F(0)
        prsum = 0.0
        peri = 0
        n_trees = 0
        for sym, _ in negative_sector(ms):
            b = bare_tree(sym)
            g = _nx_graph(b)
            n = g.number_of_nodes()
            n_trees += 1
            btw = nx.betweenness_centrality(g, normalized=False)
            bsum += F(sum(round(v * 2) for v in btw.values()), 2 * n)
            prsum += sum(nx.pagerank(g, alpha=0.85, tol=1e-10, max_iter=1000).values()) / n
            if n == 1:
                peri += 1
            else:
                depths = nx.single_source_shortest_path_length(g, 0)
                dmax = max(depths.values())
                peri += sum(1 for v in depths.values() if v == dmax)
        assert gm.betweenness == bsum / n_trees
        assert gm.pagerank == pytest.approx(prsum / n_trees, abs=1e-8)
        assert gm.periphery == F(peri, n_trees)

    def test_every_tree_at_three_quarters(self, spaces):
        """Each record's walked fields against networkx, on all 932 trees."""
        ms = spaces(2, 2, F(3, 4))
        records = tree_records(ms)
        assert len(records) == 932
        for r in records:
            dec = _nx_graph(r.symbol)
            bare = _nx_graph(bare_tree(r.symbol))
            n = bare.number_of_nodes()
            assert n == r.vertices
            assert r.decorated_degrees == _degree_counts(dec, 2)
            assert r.degrees == _degree_counts(bare, 2)
            btw = nx.betweenness_centrality(bare, normalized=False)
            assert r.betweenness == round(sum(btw.values()))
            depths = nx.single_source_shortest_path_length(bare, 0)
            assert r.height == max(depths.values())
            assert r.periphery == sum(1 for v in depths.values() if v == r.height)
            assert r.diameter == (nx.diameter(bare) if n > 1 else 0)

    def test_height_diameter_against_networkx(self, spaces):
        ms = spaces(2, 2, F(17, 20))
        hd = height_diameter(ms)
        for (sym, _), h, dia in zip(negative_sector(ms), hd.heights, hd.diameters):
            g = _nx_graph(bare_tree(sym))
            if g.number_of_nodes() == 1:
                assert h == dia == 0
                continue
            depths = nx.single_source_shortest_path_length(g, 0)
            assert h == max(depths.values())
            assert dia == nx.diameter(g)


# SHA-256 of report_json_dict without "pagerank" (json.dumps, sort_keys=True),
# of the five CSVs written by ``stats --out``, and the pagerank float, all
# computed with the per-tree power iteration the statistics used to run.
REPORT_PINS = {
    (2, 2, "3/4"): {
        "report": "c536ace3a537a45abe3a1e1eb3b014f8ed41f360bb9db79b56dfd358815ec799",
        "size.csv": "105f6596bbb4866f9b7fbf668f791a1845b73c75a27413e0bc152996ee649dd3",
        "homogeneity.csv": "4e5537debea7a40001e00f4af1127b3ef4bd628bbe94cc5f5d28ec3b40605d64",
        "homogeneity_pairs.csv": "bac6aa6a82714b2d787e5d3c9fd101fea687eaf6c4364e9e370c44dedcc0b462",
        "degree_decorated.csv": "0f29cdfd4bddf77b807fdffd9cf8d98bb2f3d655f5d31d59395d630f14489587",
        "degree_bare.csv": "c3c920a804167735e497ee8226ef88adfff2c58e73b6160de26f86ebc4b350b3",
        "pagerank": 0.054755298579851966,
    },
    (3, 3, "17/10"): {
        "report": "a2f5d9a01d6c499b91569a64508aac497aca2c5d4db9347c21830eab029b1fe6",
        "size.csv": "55e7743adb9f3dbf6a63e7c7a3ab5c6e4dc9362b6cf77bebe43362458faf6ee0",
        "homogeneity.csv": "12c1d98570d39bb1c165f29e70bcd20d0e6981b8c5f4d5d8e8d028fedbcbd898",
        "homogeneity_pairs.csv": "6538c87809c94fd00942d360d87895f3b3baa477df50e5bd273fa9b01ab133f8",
        "degree_decorated.csv": "5eea84b0986d19a1ad0ff3d26b76527fcb9710b286ff1ab0beca4dddd4eb00cb",
        "degree_bare.csv": "ae98fa987e9ef189c30e095420ae9a47ab29c254f4d7cd8446acef9de621ff0c",
        "pagerank": 0.15279026529026524,
    },
}


class TestReportPins:
    @pytest.mark.parametrize("point", sorted(REPORT_PINS))
    def test_report_and_csvs(self, spaces, capsys, tmp_path, point):
        N, d, rho = point
        pins = REPORT_PINS[point]
        doc = report_json_dict(stat_report(spaces(N, d, F(rho))))
        pagerank = doc["graph_measures"].pop("pagerank")
        assert pagerank == pytest.approx(pins["pagerank"], abs=1e-12)
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == pins["report"]
        assert main(["stats", "--N", str(N), "--d", str(d), "--rho", rho, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        for name, pin in pins.items():
            if name.endswith(".csv"):
                assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == pin, name

    def test_pagerank_is_density_plus_single_vertex_share(self, spaces):
        ms = spaces(2, 2, F(3, 4))
        records = tree_records(ms)
        gm = graph_measures(ms, records=records)
        singles = F(sum(1 for r in records if r.vertices == 1), len(records))
        assert gm.pagerank == float(gm.density + singles)


class TestSweepTrends:
    """Monotone approach to the boundary along the certified (2, 2) sweep."""

    def test_size_ratio_concentrates(self, spaces):
        sds = [size_distribution(spaces(2, 2, r)) for r in SWEEP_22]
        means = [sd.mean_ratio for sd in sds]
        assert means == [F(25, 48), F(343, 638), F(473, 798), F(323, 448), F(8947, 10252)]
        assert all(a < b for a, b in zip(means, means[1:]))
        assert all(m < 1 for m in means)
        vars = [sd.var_ratio for sd in sds]
        assert all(a > b for a, b in zip(vars, vars[1:]))

    def test_off_grid_mass_decays(self, spaces):
        # the monotone sub-grid; the full sweep dips at 17/20
        rhos = [F(1), F(9, 10), F(4, 5), F(3, 4)]
        off = [size_distribution(spaces(2, 2, r)).off_grid for r in rhos]
        assert off == [F(3, 8), F(3, 11), F(1, 4), F(41, 466)]
        assert all(a > b for a, b in zip(off, off[1:]))

    def test_homogeneity_mass_concentrates(self, spaces):
        masses = []
        for r in SWEEP_22:
            hist = homogeneity_histogram(spaces(2, 2, r))
            total = sum(c for _, c in hist)
            masses.append(sum((F(c, total) for a, c in hist if a > F(-1, 2)), F(0)))
        assert masses == [F(1, 2), F(7, 11), F(5, 7), F(55, 64), F(881, 932)]
        assert all(a < b for a, b in zip(masses, masses[1:]))

    def test_degree_distance_shrinks(self, spaces):
        limit = (F(0), F(1, 3), F(1, 3), F(1, 3))
        dists = []
        for r in SWEEP_22:
            ptm = degree_distribution(spaces(2, 2, r)).per_tree_mean
            dists.append(sum(abs(a - b) for a, b in zip(ptm, limit)))
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] == pytest.approx(0.119601, abs=1e-6)

    def test_degree_distance_shrinks_threefold(self, spaces):
        limit = (F(0), F(2, 5), F(2, 5), F(0), F(1, 5))
        dists = []
        for r in SWEEP_33:
            ptm = degree_distribution(spaces(3, 3, r)).per_tree_mean
            dists.append(sum(abs(a - b) for a, b in zip(ptm, limit)))
        assert all(a >= b for a, b in zip(dists, dists[1:]))
        assert dists[0] > dists[-1]
        assert dists[0] == dists[1]  # the two outer sectors coincide

    def test_graph_measures_trend(self, spaces):
        gms = [graph_measures(spaces(2, 2, r)) for r in SWEEP_22]
        dens = [g.density for g in gms]
        prs = [g.pagerank for g in gms]
        peri = [g.periphery for g in gms]
        btw = [g.betweenness for g in gms]
        assert dens[0] == F(191, 840) and peri[0] == F(15, 8)
        assert all(a > b for a, b in zip(dens, dens[1:]))
        assert all(a > b for a, b in zip(prs, prs[1:]))
        assert all(a < b for a, b in zip(peri, peri[1:]))
        assert all(a < b for a, b in zip(btw, btw[1:]))

    def test_scaled_height_walks_toward_reference(self, spaces):
        hds = [height_diameter(spaces(2, 2, r)) for r in SWEEP_22]
        sh = [h.scaled_mean_height for h in hds]
        sd = [h.scaled_mean_diameter for h in hds]
        assert all(a < b for a, b in zip(sh, sh[1:]))
        assert all(a < b for a, b in zip(sd, sd[1:]))
        assert sh[-1] == pytest.approx(1.7806795587828104, rel=1e-12)
        assert sd[-1] == pytest.approx(2.4078975282618833, rel=1e-12)
        assert all(x < hds[0].height_reference for x in sh)
        assert all(x < hds[0].diameter_reference for x in sd)


class TestLawAtMultiplesOfN:
    def test_regular_counts_on_grid(self, spaces):
        sd = size_distribution(spaces(2, 2, F(4, 5)))
        assert sd.counts == (
            (0, 1), (1, 1), (2, 1), (3, 2), (4, 1), (5, 4),
            (6, 2), (7, 9), (8, 3), (10, 6), (12, 11), (14, 23),
        )
        for q, c in sd.counts:
            if q % 2 == 0:
                assert c == count_regular(2, q + 1)

    def test_threefold_grid(self, spaces):
        sd = size_distribution(spaces(3, 3, F(17, 10)))
        for q, c in sd.counts:
            if q % 3 == 0:
                assert c == count_regular(3, q + 1)


class TestScalingFit:
    def _points(self, spaces):
        return [(r, h_F(spaces(2, 2, r)), c_F(spaces(2, 2, r))) for r in SWEEP_22]

    def test_frozen_fit(self, spaces):
        fit = scaling_fit(self._points(spaces), 2, 2)
        assert fit.coefficient == pytest.approx(1.5661958595118135, rel=1e-9)
        assert fit.envelope == (pytest.approx(0.9533333333333334), pytest.approx(4.006666666666667))
        assert fit.envelope_ok
        assert fit.intercept == pytest.approx(1.3901115890753948, rel=1e-9)
        assert fit.beta == pytest.approx(0.382949069352231, rel=1e-9)
        assert fit.beta_reference == pytest.approx(0.8085063282127601, rel=1e-12)
        assert fit.beta_relative_error == pytest.approx(0.5263499418752142, rel=1e-9)
        assert fit.gap_products == (2.0, pytest.approx(49 / 30), 1.65, pytest.approx(1.6), 1.5)
        assert fit.rhos == (F(1), F(9, 10), F(17, 20), F(4, 5), F(3, 4))

    def test_rows_any_order(self, spaces):
        pts = self._points(spaces)
        again = scaling_fit(reversed(pts), 2, 2)
        assert again.coefficient == scaling_fit(pts, 2, 2).coefficient

    def test_residuals_reconstruct_inputs(self, spaces):
        import math

        fit = scaling_fit(self._points(spaces), 2, 2)
        for r, h, c in self._points(spaces):
            i = fit.rhos.index(r)
            gap = float(r - F(2, 3))
            assert fit.coefficient / gap + fit.h_residuals[i] == pytest.approx(h, rel=1e-9)
            logc = fit.intercept + 1.5 * math.log(gap) + fit.beta * 2 / gap + fit.logc_residuals[i]
            assert logc == pytest.approx(math.log(c), rel=1e-9)

    def test_refuses_degenerate_grids(self):
        with pytest.raises(ValueError):
            scaling_fit([(F(1), 6, 8), (F(9, 10), 7, 11), (F(4, 5), 12, 64)], 2, 2)
        with pytest.raises(ValueError):
            scaling_fit(
                [(F(1), 6, 8), (F(1), 6, 8), (F(9, 10), 7, 11), (F(4, 5), 12, 64)], 2, 2
            )
        with pytest.raises(ValueError):
            scaling_fit(
                [(F(2, 3), 6, 8), (F(1), 6, 8), (F(9, 10), 7, 11), (F(4, 5), 12, 64)], 2, 2
            )
        with pytest.raises(ValueError):
            scaling_fit(
                [(F(1), 0, 8), (F(9, 10), 7, 11), (F(4, 5), 12, 64), (F(3, 4), 18, 932)], 2, 2
            )


class TestReportSerialization:
    def test_report_bundle(self, spaces):
        ms = spaces(2, 2, F(3, 2))
        rep = stat_report(ms)
        assert rep.certified
        assert rep.sizes.off_grid == F(1, 3)
        assert rep.measures.density == F(5, 18)
        data = report_json_dict(rep)
        assert set(data) == {
            "certified", "size", "homogeneity", "degree", "height_diameter",
            "graph_measures",
        }
        assert data["size"]["off_grid"] == "1/3"
        assert data["size"]["counts"] == {"0": 1, "1": 1, "2": 1}
        assert data["homogeneity"]["values"][0] == ["-7/4", 1]
        assert data["homogeneity"]["pairs"][0] == ["-7/4", -1, 1]
        assert data["degree"]["decorated"]["pooled_counts"] == [1, 6, 4, 0]
        assert data["graph_measures"]["density"] == "5/18"

    def test_histogram_csv(self, spaces):
        ms = spaces(2, 2, F(3, 2))
        sd = size_distribution(ms)
        buf = io.StringIO()
        write_histogram_csv(buf, sd.counts, c_F(ms))
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "bin,count,normalized"
        assert lines[1].startswith("0,1,0.333")
        assert len(lines) == 4
