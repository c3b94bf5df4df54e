"""Command-line interface: exit codes, frozen outputs, file emission, env overrides."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys

import pytest
from cli_dispatch import differences
from conftest import alarm

import fractree
import fractree.cli
from fractree.builder import json_text, to_json_dict
from fractree.cli import main
from fractree.stats import census_report, stat_report

SCAN_22 = ["scan", "--N", "2", "--d", "2", "--rho", "1,0.9,0.85,0.8,0.75"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_subcritical_flags(self, capsys):
        code, out, _ = run(capsys, ["check", "--N", "2", "--d", "2", "--rho", "0.9"])
        assert code == 0
        assert out.splitlines() == [
            "N = 2  d = 2  rho = 9/10  alpha0 = -29/20 - kappa",
            "rho_c = 2/3",
            "subcritical (case ii)",
        ]

    def test_positional_shorthand(self, capsys):
        code, out, _ = run(capsys, ["check", "2", "2", "0.9"])
        assert code == 0 and "subcritical (case ii)" in out

    def test_case_i(self, capsys):
        code, out, _ = run(capsys, ["check", "5", "1", "2"])
        assert code == 0
        assert "alpha0 = -3/2 - kappa" in out
        assert out.splitlines()[-1] == "subcritical (case i)"

    def test_boundary(self, capsys):
        code, out, _ = run(capsys, ["check", "2", "2", "2/3"])
        assert code == 1
        assert out.splitlines()[-1] == "not subcritical (boundary)"

    def test_below(self, capsys):
        code, out, _ = run(capsys, ["check", "2", "2", "0.5"])
        assert code == 1
        assert out.splitlines()[-1] == "not subcritical"

    @pytest.mark.parametrize(
        "rho,noise,verdict",
        [
            # slack N*rho + (N-1)*alpha0 = 1 - 1 = 0, although rho != rho_c
            ("1/2", "-1", "not subcritical (boundary)"),
            # slack 4/3 - 2 = -2/3, although rho == rho_c
            ("2/3", "-2", "not subcritical"),
        ],
    )
    def test_boundary_under_custom_noise(self, capsys, rho, noise, verdict):
        argv = ["check", "--N", "2", "--d", "2", "--rho", rho, f"--noise={noise}"]
        code, out, _ = run(capsys, argv)
        assert code == 1
        assert out.splitlines()[-1] == verdict

    def test_malformed_rho(self, capsys):
        code, _, err = run(capsys, ["check", "2", "2", "bogus"])
        assert code == 2
        assert err.startswith("error: malformed rho 'bogus'")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["check", "x", "2", "0.9"], "N 'x' is not an integer"),
            (["check", "2", "2.5", "0.9"], "d '2.5' is not an integer"),
        ],
    )
    def test_positional_count_not_an_integer(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_wrong_positional_arity(self, capsys):
        code, _, err = run(capsys, ["check", "2", "2"])
        assert code == 2 and "positional form" in err

    def test_missing_parameters_exit_2(self, capsys, monkeypatch):
        for var in ("FRACTREE_N", "FRACTREE_D", "FRACTREE_RHO"):
            monkeypatch.delenv(var, raising=False)
        cases = [
            (["check", "--N", "2", "--d", "2"], ["rho"]),
            (["list", "--d", "2", "--rho", "1"], ["N"]),
            (["scan", "--N", "2"], ["d", "rho"]),
        ]
        for argv, missing in cases:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.splitlines() == [
                f"error: missing --{name} (or set FRACTREE_{name.upper()})" for name in missing
            ]


class TestBuild:
    def test_stdout_json_and_stderr_label(self, capsys):
        code, out, err = run(capsys, ["build", "--N", "2", "--d", "2", "--rho", "1.5"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["symbols"]) == 4
        assert doc["complete"] is True
        assert err.strip() == "negative sector: c_F 3, h_F 3, h0_F 3"

    def test_file_output_deterministic(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        args = ["build", "--N", "3", "--d", "3", "--rho", "21/11", "--out", str(path)]
        code, out, _ = run(capsys, args)
        assert code == 0
        assert out.strip() == "negative sector: c_F 12, h_F 8, h0_F 7"
        first = path.read_bytes()
        assert run(capsys, args)[0] == 0
        assert path.read_bytes() == first

    def test_cap_gives_partial_and_exit_3(self, capsys):
        code, out, err = run(
            capsys, ["build", "--N", "2", "--d", "2", "--rho", "0.75", "--cap", "500"]
        )
        assert code == 3
        assert "warning: symbol cap 500 reached at iteration 6" in err
        assert "negative sector: c_F >= 321, h_F >= 18, h0_F >= 18 (lower bounds, not certified)" in err
        doc = json.loads(out)
        assert doc["aborted"] is True and doc["complete"] is False
        assert len(doc["symbols"]) == 500

    def test_explicit_noise_regularity(self, capsys):
        code, out, _ = run(
            capsys,
            ["build", "--N", "2", "--d", "2", "--rho", "1.5", "--noise=-7/4"],
        )
        assert code == 0
        assert json.loads(out)["parameters"]["alpha0"] == {"a": "-7/4", "b": -1}

    def test_refuses_supercritical(self, capsys):
        code, _, err = run(capsys, ["build", "--N", "2", "--d", "2", "--rho", "0.5"])
        assert code == 1 and err.startswith("error:")


class TestList:
    def test_table_frozen(self, capsys):
        code, out, _ = run(capsys, ["list", "--N", "2", "--d", "2", "--rho", "1.5"])
        assert code == 0
        assert out.splitlines() == [
            "negative sector: c_F 3, h_F 3, h0_F 3",
            "symbol   p  q  k        homogeneity",
            "Xi       1  0  (0,0,0)  -7/4 - kappa",
            "I(Xi)^2  2  2  (0,0,0)  -1/2 - 2*kappa",
            "I(Xi)    1  1  (0,0,0)  -1/4 - kappa",
        ]

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, ["list", "--N", "2", "--d", "2", "--rho", "1.5", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["symbol", "p", "q", "k", "homogeneity"]
        assert rows[1] == ["Xi", "1", "0", "(0,0,0)", "-7/4 - kappa"]
        assert len(rows) == 4

    def test_table_makes_at_most_three_render_calls_per_row(self, capsys, monkeypatch):
        # 2,766 calls for 932 rows, counting the recursion; 11,789 unshared
        calls = []
        real = fractree.symbols.render

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(fractree.symbols, "render", counted)
        monkeypatch.setattr(fractree.cli, "render", counted)
        code, out, _ = run(capsys, ["list", "--N", "2", "--d", "2", "--rho", "3/4"])
        assert code == 0 and out.startswith("negative sector: c_F 932,")
        assert len(calls) <= 3 * 932


class TestStats:
    def test_txt_frozen(self, capsys):
        code, out, _ = run(
            capsys, ["stats", "--N", "2", "--d", "2", "--rho", "1.5", "--format", "txt"]
        )
        assert code == 0
        assert out == (
            "negative sector: c_F 3, h_F 3, h0_F 3\n"
            "q*: 14/5\n"
            "P(Q off the full-tree grid): 1/3 = 0.333333333\n"
            "E(Q/q*): 0.357142857  Var(Q/q*): 0.0850340136\n"
            "mean height: 0.666666667  mean diameter: 1\n"
            "scaled sqrt-gap height: 0.608580619 (reference 2.95758528)\n"
            "scaled sqrt-gap diameter: 0.912870929 (reference 3.94344704)\n"
            "M_d (density): 0.277777778\n"
            "M_b (betweenness): 0.111111111\n"
            "M_r (pagerank): 0.611111111\n"
            "M_p (periphery): 1.33333333\n"
        )

    def test_json_stdout(self, capsys):
        code, out, err = run(capsys, ["stats", "--N", "2", "--d", "2", "--rho", "1.5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["parameters"] == {"N": 2, "d": 2, "rho": "3/2"}
        rep = doc["report"]
        assert rep["size"]["off_grid"] == "1/3"
        assert rep["degree"]["bare"]["pooled_counts"] == [2, 4, 1, 0]
        assert "negative sector" in err

    def test_directory_output(self, capsys, tmp_path):
        outdir = tmp_path / "report"
        code, out, _ = run(
            capsys,
            ["stats", "--N", "2", "--d", "2", "--rho", "1.5", "--out", str(outdir)],
        )
        assert code == 0 and "negative sector" in out
        names = sorted(p.name for p in outdir.iterdir())
        assert names == [
            "degree_bare.csv",
            "degree_decorated.csv",
            "homogeneity.csv",
            "homogeneity_pairs.csv",
            "report.json",
            "size.csv",
        ]
        size_rows = (outdir / "size.csv").read_text().strip().splitlines()
        assert size_rows[0] == "bin,count,normalized"
        assert len(size_rows) == 4
        pair_rows = (outdir / "homogeneity_pairs.csv").read_text().strip().splitlines()
        assert pair_rows[1].startswith("-7/4-1k,1,")
        doc = json.loads((outdir / "report.json").read_text())
        assert doc["report"]["graph_measures"]["density"] == "5/18"

    @pytest.fixture()
    def reports(self, monkeypatch):
        """The calls stats makes to each route's report, by route."""
        calls = {"census": [], "symbols": []}

        def from_census(params, marks=None):
            calls["census"].append(params)
            return census_report(params, marks)

        def from_symbols(ms):
            calls["symbols"].append(ms)
            return stat_report(ms)

        monkeypatch.setattr(fractree.cli, "census_report", from_census)
        monkeypatch.setattr(fractree.cli, "stat_report", from_symbols)
        return calls

    def test_txt_builds_the_report_once(self, capsys, monkeypatch, reports):
        def refuse(params, config):
            raise AssertionError("stats built a certified point")

        monkeypatch.setattr(fractree.cli, "build", refuse)
        code, out, _ = run(
            capsys, ["stats", "--N", "2", "--d", "2", "--rho", "3/4", "--format", "txt"]
        )
        assert code == 0 and out.startswith("negative sector: c_F 932,")
        assert len(reports["census"]) == 1 and reports["symbols"] == []

    def test_truncated_txt_folds_the_symbols_once(self, capsys, reports):
        argv = ["stats", "--N", "2", "--d", "2", "--rho", "3/4", "--format", "txt"]
        code, out, _ = run(capsys, argv + ["--iter", "64"])
        assert code == 0 and out.startswith("negative sector: c_F 932,")
        assert len(reports["symbols"]) == 1 and reports["census"] == []
        assert run(capsys, argv) == (0, out, "")

    def test_txt_writes_no_json(self, capsys, monkeypatch, tmp_path):
        # test_txt_frozen pins the text itself
        def refused(*_):
            raise AssertionError("the txt report builds no JSON document")

        monkeypatch.setattr(fractree.cli, "json_text", refused)
        monkeypatch.setattr(fractree.cli, "report_json_dict", refused)
        argv = ["stats", "--N", "2", "--d", "2", "--rho", "1.5", "--format", "txt"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and out.startswith("negative sector: c_F 3,")
        path = tmp_path / "report.txt"
        assert run(capsys, argv + ["--out", str(path)]) == (0, "", "")
        assert path.read_text() == out

    def test_csv_needs_out(self, capsys):
        code, out, err = run(
            capsys, ["stats", "--N", "2", "--d", "2", "--rho", "1.5", "--format", "csv"]
        )
        assert code == 2 and out == ""
        assert "--out DIR" in err

    def test_custom_noise(self, capsys):
        # rho = 1/2 is below the white-noise critical value 2/3, but with
        # alpha0 = -1/2 the equation is subcritical and build certifies c_F 3.
        # With a = 1/2: q* = 2a / (2 rho - a) = 2 and gap = 2 (2 rho - a) / 3 = 1/3.
        argv = ["stats", "--N", "2", "--d", "2", "--rho", "1/2", "--noise=-1/2"]
        code, out, err = run(capsys, argv + ["--format", "txt"])
        assert code == 0, err
        lines = out.splitlines()
        assert lines[:2] == ["negative sector: c_F 3, h_F 3, h0_F 3", "q*: 2/1"]
        assert "scaled sqrt-gap height: 0.384900179 (reference 2.95758528)" in lines
        code, out, _ = run(capsys, argv + ["--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["parameters"] == {
            "N": 2, "d": 2, "rho": "1/2", "alpha0": {"a": "-1/2", "b": -1},
        }
        rep = doc["report"]
        assert rep["size"]["q_star"] == "2/1"
        assert rep["size"]["mean_ratio"] == "1/2"
        assert rep["height_diameter"]["scaled_sq_height"] == pytest.approx(2 / 9, rel=1e-12)
        assert rep["graph_measures"]["density"] == "5/18"


STATS_POINTS = (
    [["--N", "2", "--d", "2", "--rho", rho] for rho in ("1", "9/10", "17/20", "4/5", "3/4")]
    + [["--N", "3", "--d", "3", "--rho", rho] for rho in ("21/11", "19/10", "9/5", "17/10")]
    + [["--N", "2", "--d", "2", "--rho", "8/5", "--noise=-29/10"]]
)


class TestStatsRoutes:
    """A certified request is counted from the census, a truncated one folds
    the symbols of a build; both say the same, byte for byte."""

    @pytest.mark.parametrize("point", STATS_POINTS, ids=" ".join)
    def test_json_and_txt(self, capsys, point):
        for fmt in ("json", "txt"):
            argv = ["stats", *point, "--format", fmt]
            counted = run(capsys, argv)
            assert counted[0] == 0
            assert run(capsys, argv + ["--iter", "64"]) == counted

    @pytest.mark.parametrize("point", STATS_POINTS, ids=" ".join)
    def test_directory(self, capsys, tmp_path, point):
        outputs = []
        for name, extra in (("census", []), ("symbols", ["--iter", "64"])):
            out_dir = tmp_path / name
            result = run(capsys, ["stats", *point, "--out", str(out_dir), *extra])
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            assert len(files) == 6
            outputs.append((result, files))
        assert outputs[0] == outputs[1]
        assert outputs[0][0][0] == 0

    @pytest.mark.parametrize("extra", [[], ["--iter", "64"]])
    def test_same_refusal(self, capsys, extra):
        code, out, err = run(capsys, ["stats", "--N", "2", "--d", "2", "--rho", "2/3", *extra])
        assert (code, out) == (1, "")
        assert err == (
            "error: parameters N=2, d=2, rho=2/3, alpha0=-4/3 - kappa "
            "satisfy no subcriticality condition\n"
        )


class TestScan:
    def test_certified_sweep_frozen(self, capsys):
        code, out, _ = run(capsys, SCAN_22)
        assert code == 0
        assert out.splitlines() == [
            "rho,h_F,c_F,certified",
            "1/1,6,8,true",
            "9/10,7,11,true",
            "17/20,9,21,true",
            "4/5,12,64,true",
            "3/4,18,932,true",
        ]

    def test_uncertified_sweep_frozen(self, capsys):
        code, out, _ = run(
            capsys,
            ["scan", "--N", "3", "--d", "3", "--rho", "1.8,1.75,1.7,1.65,1.6,1.58",
             "--maxh", "1.5", "--iter", "3"],
        )
        assert code == 0
        assert out.splitlines() == [
            "rho,h_F,c_F,certified",
            "9/5,11,23,false",
            "7/4,11,23,false",
            "17/10,13,35,false",
            "33/20,18,71,false",
            "8/5,27,162,false",
            "79/50,31,207,false",
        ]

    def test_deterministic(self, capsys):
        first = run(capsys, SCAN_22)[1]
        assert run(capsys, SCAN_22)[1] == first

    def test_empty_grid_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", "--N", "2", "--d", "2", "--rho", ","])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "rho,value",
        [("1,1,1,9/10,17/20,4/5", "1/1"), ("1,1.0", "1/1"), ("2/2,0.9,1", "1/1"),
         ("0.9,0.85,9/10", "9/10")],
    )
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_repeated_rho_exit_2(self, capsys, monkeypatch, tmp_path, builds, rho, value, source):
        path = tmp_path / "scan.csv"
        argv = ["scan", "--N", "2", "--d", "2", "--out", str(path)]
        if source == "flag":
            argv += ["--rho", rho]
        else:
            monkeypatch.setenv("FRACTREE_RHO", rho)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err == f"error: --rho lists {value} more than once\n"
        assert not path.exists() and builds == []

    @pytest.fixture()
    def builds(self, monkeypatch):
        """Count the calls scan makes to the builder."""
        calls = []

        def counted(params, config):
            calls.append(params.rho)
            return fractree.builder.build(params, config)

        monkeypatch.setattr(fractree.cli, "build", counted)
        return calls

    def test_certified_rows_need_no_build(self, capsys, monkeypatch):
        def refuse(params, config):
            raise AssertionError("scan built a certified point")

        monkeypatch.setattr(fractree.cli, "build", refuse)
        code, out, _ = run(capsys, SCAN_22)
        assert code == 0
        assert out.splitlines()[1:] == [
            "1/1,6,8,true", "9/10,7,11,true", "17/20,9,21,true", "4/5,12,64,true",
            "3/4,18,932,true",
        ]

    @pytest.mark.parametrize(
        "extra,env",
        [
            (["--iter", "64"], {}),
            ([], {"FRACTREE_ITER": "64"}),
            (["--cap", "100000"], {}),
            ([], {"FRACTREE_CAP": "100000"}),
            (["--maxh", "1/4"], {}),  # below the threshold 1/2 at rho = 1
        ],
    )
    def test_truncation_requests_build(self, capsys, monkeypatch, builds, extra, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code, _, _ = run(capsys, ["scan", "--N", "2", "--d", "2", "--rho", "1,3/4"] + extra)
        assert code == 0
        assert builds == [fractree.Rational(1), fractree.Rational(3, 4)]

    def test_maxh_at_or_above_threshold_counts(self, capsys, builds):
        default = run(capsys, SCAN_22)[1]
        assert run(capsys, SCAN_22 + ["--maxh", "5"])[1] == default
        # the threshold at rho = 1 is 1/2; at 3/4 it is 5/8, so 3/4 builds
        at = run(capsys, ["scan", "--N", "2", "--d", "2", "--rho", "1,3/4", "--maxh", "1/2"])[1]
        assert at.splitlines()[1:] == ["1/1,6,8,true", "3/4,18,705,false"]
        assert builds == [fractree.Rational(3, 4)]

    @pytest.mark.parametrize("extra", [[], ["--iter", "64"]])
    def test_supercritical_point_refused(self, capsys, tmp_path, builds, extra):
        path = tmp_path / "scan.csv"
        code, out, err = run(
            capsys,
            ["scan", "--N", "2", "--d", "2", "--rho", "1,2/3", "--out", str(path)] + extra,
        )
        assert code == 1 and out == ""
        assert err == (
            "error: parameters N=2, d=2, rho=2/3, alpha0=-4/3 - kappa "
            "satisfy no subcriticality condition\n"
        )
        assert not path.exists()
        assert len(builds) == (2 if extra else 0)


class TestFit:
    @pytest.fixture()
    def scan_csv(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        code, _, _ = run(capsys, SCAN_22 + ["--out", str(path)])
        assert code == 0
        return str(path)

    def test_txt_frozen(self, capsys, scan_csv):
        code, out, _ = run(capsys, ["fit", scan_csv, "--N", "2", "--d", "2"])
        assert code == 0
        assert out.splitlines() == [
            "fit over 5 certified points, N = 2, d = 2",
            "h_F ~ A / (rho - rho_c):  A = 1.56619586",
            "  envelope [0.953333333, 4.00666667] -> inside",
            "  h_F * gap per point: 2 1.63333333 1.65 1.6 1.5",
            "log c_F ~ B + (3/2) log gap + beta * d / gap:",
            "  B = 1.39011159",
            "  beta = 0.382949069  reference = 0.808506328  relative error = 0.526349942",
        ]

    def test_json(self, capsys, scan_csv):
        code, out, _ = run(
            capsys, ["fit", scan_csv, "--N", "2", "--d", "2", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficient"] == pytest.approx(1.5661958595118135, rel=1e-9)
        assert doc["beta"] == pytest.approx(0.382949069352231, rel=1e-9)
        assert doc["envelope_ok"] is True
        assert doc["rhos"] == ["1/1", "9/10", "17/20", "4/5", "3/4"]

    def test_uncertified_rows_are_ignored(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text(
            "rho,h_F,c_F,certified\n"
            "1/1,6,8,true\n9/10,7,11,true\n17/20,9,21,true\n"
            "4/5,12,64,false\n3/4,18,932,false\n"
        )
        code, _, err = run(capsys, ["fit", str(path), "--N", "2", "--d", "2"])
        assert code == 2
        assert "at least 4 distinct grid points" in err

    def test_repeated_rho_exit_2(self, capsys, tmp_path):
        # three rows of 1/1 would weigh that point three times in the fit
        path = tmp_path / "scan.csv"
        path.write_text(
            "rho,h_F,c_F,certified\n"
            "1/1,6,8,true\n1/1,6,8,true\n1/1,6,8,true\n"
            "9/10,7,11,true\n17/20,9,21,true\n4/5,12,64,true\n"
        )
        for fmt in ("txt", "json"):
            code, out, err = run(capsys, ["fit", str(path), "--N", "2", "--d", "2", "--format", fmt])
            assert (code, out) == (2, "")
            assert err == "error: scaling fit: rho 1/1 appears more than once\n"


def _stdlib_text(doc) -> str:
    """The reference for json_text: the standard library's indented dump."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestJsonText:
    """Every JSON document the CLI writes has the standard library's bytes."""

    @pytest.fixture()
    def written(self, monkeypatch):
        docs = []
        real = fractree.cli.json_text

        def recorded(doc):
            docs.append(doc)
            return real(doc)

        monkeypatch.setattr(fractree.cli, "json_text", recorded)
        return docs

    @pytest.fixture()
    def stored(self, monkeypatch):
        """The documents of the spaces `build` writes through space_json_text."""
        docs = []
        real = fractree.cli.space_json_text

        def recorded(ms):
            docs.append(to_json_dict(ms))
            return real(ms)

        monkeypatch.setattr(fractree.cli, "space_json_text", recorded)
        return docs

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--N", "2", "--d", "2", "--rho", "3/4"],
            ["build", "--N", "2", "--d", "2", "--rho", "1.5", "--noise=-7/4"],
            ["stats", "--N", "2", "--d", "2", "--rho", "1.5", "--noise=-7/4"],
        ],
    )
    def test_spaces_and_reports(self, capsys, written, stored, argv):
        code, out, _ = run(capsys, argv)
        assert code == 0
        [doc] = written + stored
        assert out == _stdlib_text(doc)

    def test_build_out_file_equals_stdout(self, capsys, tmp_path):
        argv = ["build", "--N", "2", "--d", "2", "--rho", "4/5"]
        path = tmp_path / "space.json"
        assert run(capsys, argv + ["--out", str(path)])[0] == 0
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert path.read_bytes() == out.encode()

    def test_report_file_with_string_keys_and_float_scores(self, capsys, tmp_path, written):
        argv = ["stats", "--N", "2", "--d", "2", "--rho", "3/4", "--out", str(tmp_path)]
        assert run(capsys, argv)[0] == 0
        [doc] = written
        report = doc["report"]
        assert {"2", "10"} <= set(report["size"]["counts"])  # "10" sorts first
        assert isinstance(report["graph_measures"]["pagerank"], float)
        assert (tmp_path / "report.json").read_text() == _stdlib_text(doc)

    def test_fit(self, capsys, tmp_path, written):
        path = tmp_path / "scan.csv"
        path.write_text(
            "rho,h_F,c_F,certified\n"
            "1/1,6,8,true\n9/10,7,11,true\n17/20,9,21,true\n"
            "4/5,12,64,true\n3/4,18,932,true\n"
        )
        code, out, _ = run(capsys, ["fit", str(path), "--N", "2", "--d", "2", "--format", "json"])
        assert code == 0
        [doc] = written
        assert out == _stdlib_text(doc)

    def test_synthetic_document(self):
        doc = {
            "floats": [float("nan"), float("inf"), -float("inf"), -0.0, 0.1, 1e300, 5e-324],
            "ints": [0, -7, 10**30],
            "constants": [True, False, None],
            "empty": [{}, [], [[]], [{}], {"a": {}}],
            "text": ["", "caf\u00e9 \u2603 \U0001f600", "tab\t \"quote\" back\\slash\n\x00"],
            "tuple": (1, (2, "3")),
            "sorted": {"b": 1, "a": 2, "10": 3, "2": 4, "\u00e9": 5, "Z": 6},
        }
        assert json_text(doc) == _stdlib_text(doc)
        assert json_text({}) == "{}\n"
        assert json_text({1: "x"}) == _stdlib_text({1: "x"})
        with pytest.raises(TypeError):  # sort_keys cannot order an int key among str keys
            json_text({1: "x", "a": 2})
        with pytest.raises(TypeError):
            json_text({"set": {1}})


class TestFileErrors:
    """A file that cannot be read or written, or a malformed scan CSV, exits 2
    with a message, never a traceback."""

    def test_fit_missing_csv(self, capsys, tmp_path):
        path = tmp_path / "missing.csv"
        code, out, err = run(capsys, ["fit", str(path), "--N", "2", "--d", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 2] No such file or directory") and str(path) in err

    def test_fit_csv_without_rho_column(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("h_F,c_F,certified\n6,8,true\n")
        code, out, err = run(capsys, ["fit", str(path), "--N", "2", "--d", "2"])
        assert (code, out) == (2, "")
        assert err == f"error: {path} is not a scan CSV: missing rho\n"

    def test_fit_csv_with_short_rows(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("rho,h_F,c_F,certified\n1/1,6\n9/10,7,11\n")
        code, out, err = run(capsys, ["fit", str(path), "--N", "2", "--d", "2"])
        assert (code, out) == (2, "")
        assert "at least 4 distinct grid points" in err

    @pytest.mark.parametrize(
        "text,field",
        [
            ("certified,h_F,c_F,rho\ntrue,6,8\n", "rho"),  # the short row lacks rho
            ("rho,h_F,c_F,certified\n1/1,,8,true\n", "h_F"),
        ],
    )
    def test_fit_certified_row_lacking_a_field(self, capsys, tmp_path, text, field):
        path = tmp_path / "scan.csv"
        path.write_text(text)
        code, out, err = run(capsys, ["fit", str(path), "--N", "2", "--d", "2"])
        assert (code, out) == (2, "")
        assert err == f"error: {path}, line 2: certified row has no {field}\n"

    @pytest.mark.parametrize(
        "row,message",
        [
            ("1,six,8,true", "h_F 'six' is not an integer"),
            ("1,6.0,8,true", "h_F '6.0' is not an integer"),
            ("1,6,8.5,true", "c_F '8.5' is not an integer"),
        ],
    )
    def test_fit_certified_count_not_an_integer(self, capsys, tmp_path, row, message):
        path = tmp_path / "scan.csv"
        path.write_text(f"rho,h_F,c_F,certified\n{row}\n")
        code, out, err = run(capsys, ["fit", str(path), "--N", "2", "--d", "2"])
        assert (code, out) == (2, "")
        assert err == f"error: {path}, line 2: {message}\n"

    def test_fit_csv_with_zero_denominator(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("rho,h_F,c_F,certified\n1/0,6,8,true\n")
        code, out, err = run(capsys, ["fit", str(path), "--N", "2", "--d", "2"])
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed rho '1/0'")

    def test_build_out_in_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "nowhere" / "space.json"
        argv = ["build", "--N", "2", "--d", "2", "--rho", "1", "--out", str(path)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 2] No such file or directory") and str(path) in err

    @pytest.mark.parametrize("fmt", ["json", "txt"])
    def test_stats_out_under_a_file(self, capsys, tmp_path, fmt):
        (tmp_path / "plain").write_text("")
        path = tmp_path / "plain" / "report"
        argv = ["stats", "--N", "2", "--d", "2", "--rho", "1", "--out", str(path), "--format", fmt]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 20] Not a directory") and str(path) in err

    @pytest.mark.parametrize(
        "argv,dest,message",
        [
            (["build"], "nowhere/space.json",
             "[Errno 2] No such file or directory: '{tmp}/nowhere/space.json'"),
            (["list"], "plain/table.txt", "[Errno 20] Not a directory: '{tmp}/plain/table.txt'"),
            (["list", "--format", "csv"], "somedir", "[Errno 21] Is a directory: '{tmp}/somedir'"),
            (["stats"], "plain/report", "[Errno 20] Not a directory: '{tmp}/plain/report'"),
            # os.makedirs names the first directory it cannot make
            (["stats"], "plain/a/b", "[Errno 20] Not a directory: '{tmp}/plain/a'"),
            (["stats"], "plain", "[Errno 17] File exists: '{tmp}/plain'"),
            (["stats", "--format", "txt"], "nowhere/report.txt",
             "[Errno 2] No such file or directory: '{tmp}/nowhere/report.txt'"),
            (["export"], "plain/dots", "[Errno 20] Not a directory: '{tmp}/plain/dots'"),
            (["export", "--forest"], "nowhere/forest.dot",
             "[Errno 2] No such file or directory: '{tmp}/nowhere/forest.dot'"),
            (["scan"], "nowhere/s.csv",
             "[Errno 2] No such file or directory: '{tmp}/nowhere/s.csv'"),
            (["scan", "--iter", "12"], "plain/s.csv",
             "[Errno 20] Not a directory: '{tmp}/plain/s.csv'"),
            (["scan"], "somedir", "[Errno 21] Is a directory: '{tmp}/somedir'"),
        ],
    )
    def test_unwritable_out_fails_before_the_build(self, capsys, tmp_path, monkeypatch,
                                                   argv, dest, message):
        def no_build(*args, **kwargs):
            raise AssertionError("built before checking --out")

        monkeypatch.setattr(fractree.cli, "build", no_build)
        monkeypatch.setattr(fractree.cli, "census", no_build)
        monkeypatch.setattr(fractree.cli, "marked_census", no_build)
        (tmp_path / "plain").write_text("")
        (tmp_path / "somedir").mkdir()
        before = sorted(tmp_path.rglob("*"))
        argv = argv + ["--N", "2", "--d", "2", "--rho", "1", "--out", str(tmp_path / dest)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: " + message.format(tmp=tmp_path) + "\n"
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "plain").read_text() == ""


class TestMalformedNoise:
    """A --noise that is neither "white" nor a rational exits 2, naming the
    flag, from every command that builds parameters; a zero denominator is
    no traceback and no exit 1, which means "not subcritical"."""

    COMMANDS = [
        ["check"], ["build"], ["list"], ["stats"], ["scan"], ["export", "--forest"],
    ]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize(
        "noise,reason",
        [("-1/0", "Fraction(-1, 0)"), ("abc", "Invalid literal for Fraction: 'abc'")],
    )
    def test_flag(self, capsys, command, noise, reason):
        argv = [*command, "--N", "2", "--d", "2", "--rho", "1", f"--noise={noise}"]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (2, "", f"error: malformed noise {noise!r}: {reason}\n")

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_env(self, capsys, monkeypatch, command):
        monkeypatch.setenv("FRACTREE_NOISE", "-1/0")
        code, out, err = run(capsys, [*command, "--N", "2", "--d", "2", "--rho", "1"])
        assert (code, out, err) == (2, "", "error: malformed noise '-1/0': Fraction(-1, 0)\n")


class TestExport:
    def test_per_tree_files(self, capsys, tmp_path):
        outdir = tmp_path / "dots"
        code, out, _ = run(
            capsys,
            ["export", "--N", "3", "--d", "3", "--rho", "21/11", "--out", str(outdir)],
        )
        assert code == 0
        assert out.strip() == f"wrote 12 DOT files to {outdir}"
        names = sorted(p.name for p in outdir.iterdir())
        assert names == [f"tree_{i:04d}.dot" for i in range(12)]
        # the two largest sector elements: 17 vertices, 16 edges, 7 noise edges
        for name in ("tree_0010.dot", "tree_0011.dot"):
            src = (outdir / name).read_text()
            assert src.count("->") == 16
            assert src.count("style=dashed") == 7

    def test_forest_single_stream(self, capsys):
        code, out, _ = run(
            capsys, ["export", "--N", "3", "--d", "3", "--rho", "21/11", "--forest"]
        )
        assert code == 0
        assert out.count("digraph tree_") == 12
        assert out.count("digraph tree_0011") == 1

    def test_requires_out_without_forest(self, capsys):
        code, _, err = run(capsys, ["export", "--N", "2", "--d", "2", "--rho", "1.5"])
        assert code == 2 and "--out DIRECTORY" in err


ENV_DEFAULTS = {
    "FRACTREE_" + name: value
    for name, value in {"N": "3", "D": "2", "RHO": "3/2", "NOISE": "-7/4", "MAXH": "2",
                        "ITER": "5", "CAP": "9", "OUT": "o", "FORMAT": "csv"}.items()
}


class TestEnvOverrides:
    def test_env_supplies_defaults(self, capsys, monkeypatch):
        monkeypatch.setenv("FRACTREE_N", "2")
        monkeypatch.setenv("FRACTREE_D", "2")
        monkeypatch.setenv("FRACTREE_RHO", "1.5")
        code, out, _ = run(capsys, ["check"])
        assert code == 0 and "rho = 3/2" in out

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FRACTREE_RHO", "0.5")
        code, out, _ = run(capsys, ["check", "--N", "2", "--d", "2", "--rho", "1.5"])
        assert code == 0 and "rho = 3/2" in out

    def test_env_maxh_changes_build(self, capsys, monkeypatch):
        monkeypatch.setenv("FRACTREE_MAXH", "2")
        code, out, _ = run(capsys, ["build", "--N", "2", "--d", "2", "--rho", "1.5"])
        assert code == 0
        assert json.loads(out)["config"]["maxh"] == "2/1"

    def test_iter_defaults_to_convergence_and_env_bounds_it(self, capsys, monkeypatch):
        argv = ["build", "--N", "2", "--d", "2", "--rho", "1.5"]
        code, out, _ = run(capsys, argv)
        assert code == 0 and json.loads(out)["config"]["iter"] is None
        monkeypatch.setenv("FRACTREE_ITER", "3")
        code, out, _ = run(capsys, argv)
        assert code == 0 and json.loads(out)["config"]["iter"] == 3

    def test_env_format(self, capsys, monkeypatch):
        monkeypatch.setenv("FRACTREE_FORMAT", "csv")
        code, out, _ = run(capsys, ["list", "--N", "2", "--d", "2", "--rho", "1.5"])
        assert code == 0
        assert out.splitlines()[0] == "symbol,p,q,k,homogeneity"

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("check", {"pos": []}),
            ("build", {}),
            ("list", {"format": "csv"}),
            ("stats", {"format": "csv"}),
            ("scan", {"rho": (fractree.Rational(3, 2),)}),
            ("fit", {}),
            ("export", {"forest": False}),
        ],
    )
    def test_env_defaults_of_every_command(self, monkeypatch, command, extra):
        for name, value in ENV_DEFAULTS.items():
            monkeypatch.setenv(name, value)
        argv = [command, "scan.csv"] if command == "fit" else [command]
        got = vars(fractree.cli._parser(command).parse_args(argv))
        assert got.pop("func") is fractree.cli._COMMANDS[command][2]
        if command == "fit":
            want = {"N": 3, "d": 2, "out": "o", "format": "csv", "scan_csv": "scan.csv"}
        else:
            want = {"N": 3, "d": 2, "rho": fractree.Rational(3, 2), "noise": "-7/4"}
            if command != "check":
                want.update(maxh=fractree.Rational(2), iters=5, cap=9, out="o")
        assert got == {"command": command, **want, **extra}


# Help and usage-error texts as the full parser printed them under Python
# 3.11's argparse at COLUMNS=80, with no FRACTREE_* variable set: main must
# print them byte for byte, from the named command's own parser or, with no
# command first or arguments left over, from the tree of cli._parser.
HELP_PINS = {
    "": """\
usage: fractree [-h] {check,build,list,stats,scan,fit,export} ...

Enumerate and analyze the negative-homogeneity model space of the fractional
Allen-Cahn equation.

positional arguments:
  {check,build,list,stats,scan,fit,export}
    check               decide local subcriticality
    build               build the model space, write JSON
    list                print the negative sector as a table
    stats               distributions and graph measures
    scan                sweep a rho grid, emit CSV rows
    fit                 fit divergence laws to a scan CSV
    export              write DOT files for the sector trees

options:
  -h, --help            show this help message and exit
""",
    "check": """\
usage: fractree check [-h] [--N N] [--d D] [--rho RHO] [--noise NOISE]
                      [N d rho ...]

positional arguments:
  N d rho        positional shorthand: check 2 2 0.9

options:
  -h, --help     show this help message and exit
  --N N          nonlinearity power
  --d D          spatial dimension
  --rho RHO      fractional order, exact: 3/2 or 1.5 both mean three halves
  --noise NOISE  "white" (default) or an explicit rational noise regularity
                 like -7/4
""",
    "build": """\
usage: fractree build [-h] [--N N] [--d D] [--rho RHO] [--noise NOISE]
                      [--maxh MAXH] [--iter ITERS] [--cap CAP] [--out OUT]

options:
  -h, --help     show this help message and exit
  --N N          nonlinearity power
  --d D          spatial dimension
  --rho RHO      fractional order, exact: 3/2 or 1.5 both mean three halves
  --noise NOISE  "white" (default) or an explicit rational noise regularity
                 like -7/4
  --maxh MAXH    integration cutoff; default: the completeness threshold for
                 the parameters
  --iter ITERS   maximum product rounds (default: until convergence)
  --cap CAP      abort once this many symbols exist (partial results, exit 3)
  --out OUT
""",
    "list": """\
usage: fractree list [-h] [--N N] [--d D] [--rho RHO] [--noise NOISE]
                     [--maxh MAXH] [--iter ITERS] [--cap CAP] [--out OUT]
                     [--format {txt,csv}]

options:
  -h, --help          show this help message and exit
  --N N               nonlinearity power
  --d D               spatial dimension
  --rho RHO           fractional order, exact: 3/2 or 1.5 both mean three
                      halves
  --noise NOISE       "white" (default) or an explicit rational noise
                      regularity like -7/4
  --maxh MAXH         integration cutoff; default: the completeness threshold
                      for the parameters
  --iter ITERS        maximum product rounds (default: until convergence)
  --cap CAP           abort once this many symbols exist (partial results,
                      exit 3)
  --out OUT
  --format {txt,csv}
""",
    "stats": """\
usage: fractree stats [-h] [--N N] [--d D] [--rho RHO] [--noise NOISE]
                      [--maxh MAXH] [--iter ITERS] [--cap CAP] [--out OUT]
                      [--format {json,csv,txt}]

options:
  -h, --help            show this help message and exit
  --N N                 nonlinearity power
  --d D                 spatial dimension
  --rho RHO             fractional order, exact: 3/2 or 1.5 both mean three
                        halves
  --noise NOISE         "white" (default) or an explicit rational noise
                        regularity like -7/4
  --maxh MAXH           integration cutoff; default: the completeness
                        threshold for the parameters
  --iter ITERS          maximum product rounds (default: until convergence)
  --cap CAP             abort once this many symbols exist (partial results,
                        exit 3)
  --out OUT             directory: writes report.json plus histogram CSVs
  --format {json,csv,txt}
""",
    "scan": """\
usage: fractree scan [-h] [--N N] [--d D] [--rho RHO] [--noise NOISE]
                     [--maxh MAXH] [--iter ITERS] [--cap CAP] [--out OUT]

options:
  -h, --help     show this help message and exit
  --N N          nonlinearity power
  --d D          spatial dimension
  --rho RHO      comma-separated list of exact fractional orders, e.g.
                 1.8,1.75,1.7
  --noise NOISE  "white" (default) or an explicit rational noise regularity
                 like -7/4
  --maxh MAXH    integration cutoff; default: the completeness threshold for
                 the parameters
  --iter ITERS   maximum product rounds (default: until convergence)
  --cap CAP      abort once this many symbols exist (partial results, exit 3)
  --out OUT
""",
    "fit": """\
usage: fractree fit [-h] [--N N] [--d D] [--out OUT] [--format {txt,json}]
                    scan_csv

positional arguments:
  scan_csv             CSV produced by the scan subcommand

options:
  -h, --help           show this help message and exit
  --N N
  --d D
  --out OUT
  --format {txt,json}
""",
    "export": """\
usage: fractree export [-h] [--N N] [--d D] [--rho RHO] [--noise NOISE]
                       [--maxh MAXH] [--iter ITERS] [--cap CAP] [--out OUT]
                       [--forest]

options:
  -h, --help     show this help message and exit
  --N N          nonlinearity power
  --d D          spatial dimension
  --rho RHO      fractional order, exact: 3/2 or 1.5 both mean three halves
  --noise NOISE  "white" (default) or an explicit rational noise regularity
                 like -7/4
  --maxh MAXH    integration cutoff; default: the completeness threshold for
                 the parameters
  --iter ITERS   maximum product rounds (default: until convergence)
  --cap CAP      abort once this many symbols exist (partial results, exit 3)
  --out OUT
  --forest       single file with every tree instead of one file per tree
""",
}

USAGE_ERRORS = {
    "": """\
usage: fractree [-h] {check,build,list,stats,scan,fit,export} ...
fractree: error: the following arguments are required: command
""",
    "frobnicate": """\
usage: fractree [-h] {check,build,list,stats,scan,fit,export} ...
fractree: error: argument command: invalid choice: 'frobnicate' (choose from 'check', 'build', 'list', 'stats', 'scan', 'fit', 'export')
""",
    "stats --bogus 1": """\
usage: fractree [-h] {check,build,list,stats,scan,fit,export} ...
fractree: error: unrecognized arguments: --bogus 1
""",
    "stats --format xml": """\
usage: fractree stats [-h] [--N N] [--d D] [--rho RHO] [--noise NOISE]
                      [--maxh MAXH] [--iter ITERS] [--cap CAP] [--out OUT]
                      [--format {json,csv,txt}]
fractree stats: error: argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'txt')
""",
    "check --N two": """\
usage: fractree check [-h] [--N N] [--d D] [--rho RHO] [--noise NOISE]
                      [N d rho ...]
fractree check: error: argument --N: invalid int value: 'two'
""",
    "--N 2 check": """\
usage: fractree [-h] {check,build,list,stats,scan,fit,export} ...
fractree: error: argument command: invalid choice: '2' (choose from 'check', 'build', 'list', 'stats', 'scan', 'fit', 'export')
""",
    "fit": """\
usage: fractree fit [-h] [--N N] [--d D] [--out OUT] [--format {txt,json}]
                    scan_csv
fractree fit: error: the following arguments are required: scan_csv
""",
    "scan --rho 1/0": """\
usage: fractree scan [-h] [--N N] [--d D] [--rho RHO] [--noise NOISE]
                     [--maxh MAXH] [--iter ITERS] [--cap CAP] [--out OUT]
fractree scan: error: argument --rho: malformed rho '1/0': Fraction(1, 0)
""",
    "stats --N 2 --bogus": """\
usage: fractree [-h] {check,build,list,stats,scan,fit,export} ...
fractree: error: unrecognized arguments: --bogus
""",
    "--bogus stats --N 2": """\
usage: fractree [-h] {check,build,list,stats,scan,fit,export} ...
fractree: error: unrecognized arguments: --bogus
""",
    "scan --N 2 -- extra": """\
usage: fractree [-h] {check,build,list,stats,scan,fit,export} ...
fractree: error: unrecognized arguments: -- extra
""",
}


@pytest.fixture()
def plain_env(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for name in list(os.environ):
        if name.startswith("FRACTREE_"):
            monkeypatch.delenv(name)


@pytest.mark.usefixtures("plain_env")
class TestHelpText:
    """The named command's own parser, and the tree that registers every
    subcommand but adds the arguments of the named one alone, leave each
    help text and usage error as the full parser had it."""

    @pytest.mark.parametrize("command", list(HELP_PINS))
    def test_help(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == (0, HELP_PINS[command], "")

    def test_help_names_every_command(self):
        assert list(HELP_PINS)[1:] == list(fractree.cli._COMMANDS)

    @pytest.mark.parametrize("argv", list(USAGE_ERRORS))
    def test_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == (2, "", USAGE_ERRORS[argv])


# More argvs for the dispatch check: `--` and arguments left over, option
# abbreviations, help among other arguments, repeated options and command
# names in option values.
DISPATCH_ARGVS = [
    "check 2 2 0.9",
    "check -- 2 2 0.9",
    "check --N 2 check",
    "check --he",
    "check -h extra",
    "-h check",
    "-- check",
    "build --N 2 --",
    "build --out fit",
    "list --form csv",
    "list --N 2 --N 3",
    "scan --rho=1,3/4 --N=2",
    "stats --help --bogus",
    "stats --bogus --help",
    "stats --bogus --N two",
    "fit -- --x",
    "fit a b",
    "export --forest --forest",
]


def dispatch_cases():
    """Every argv the help and usage pins, the environment matrix and
    DISPATCH_ARGVS name, as [argv, FRACTREE_* variables] pairs."""
    cases = [[[command, "--help"] if command else ["--help"], {}] for command in HELP_PINS]
    cases += [[argv.split(), {}] for argv in USAGE_ERRORS]
    cases += [
        [[command, "scan.csv"] if command == "fit" else [command], ENV_DEFAULTS]
        for command in fractree.cli._COMMANDS
    ]
    cases += [[argv.split(), {}] for argv in DISPATCH_ARGVS]
    return cases


class TestDispatch:
    """main parses with the named command's parser alone, and says what the
    tree of cli._parser said."""

    FIT_CSV = (
        "rho,h_F,c_F,certified\n"
        "1/1,6,8,true\n9/10,7,11,true\n17/20,9,21,true\n4/5,12,64,true\n3/4,18,932,true\n"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "2", "2", "0.9"],
            ["build", "--N", "2", "--d", "2", "--rho", "1.5"],
            ["list", "--N", "2", "--d", "2", "--rho", "1.5"],
            ["stats", "--N", "2", "--d", "2", "--rho", "1.5", "--format", "txt"],
            ["scan", "--N", "2", "--d", "2", "--rho", "1,3/4"],
            ["fit", "{csv}", "--N", "2", "--d", "2"],
            ["export", "--N", "2", "--d", "2", "--rho", "1.5", "--forest"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_one_parser_per_call(self, capsys, monkeypatch, tmp_path, argv):
        path = tmp_path / "scan.csv"
        path.write_text(self.FIT_CSV)
        made = []
        real = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            made.append(kwargs.get("prog"))
            real(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        code, _, err = run(capsys, [arg.format(csv=path) for arg in argv])
        assert code == 0, err
        assert made == ["fractree " + argv[0]]

    @pytest.mark.parametrize("case", dispatch_cases(), ids=lambda case: " ".join(case[0]) or "-")
    def test_same_outcome_as_the_tree(self, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        assert differences([case]) == []


@pytest.mark.usefixtures("plain_env")
class TestHugeRationals:
    """A rational with more digits than Python prints is refused where it is
    read, naming the flag and the value, before any build."""

    @staticmethod
    def usage(command):
        return HELP_PINS[command].split("\n\n")[0] + "\n"

    def outcome(self, capsys, argv):
        with alarm(10):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["check", "--N", "2", "--d", "2", "--rho", "1e-100000"],
             "fractree check: error: argument --rho: rho '1e-100000' has too many digits"),
            # an exponent that large is refused before its power of ten is computed
            (["check", "--N", "2", "--d", "2", "--rho", "1e-999999999"],
             "fractree check: error: argument --rho: rho '1e-999999999' has too many digits"),
            (["check", "2", "2", "1e-100000"], "error: rho '1e-100000' has too many digits"),
            (["check", "--N", "2", "--d", "2", "--rho", "1", "--noise=-1e100000"],
             "error: noise '-1e100000' has too many digits"),
            (["build", "--N", "2", "--d", "2", "--rho", "3/4", "--maxh", "1e100000"],
             "fractree build: error: argument --maxh: maxh '1e100000' has too many digits"),
            (["build", "--N", "2", "--d", "2", "--rho", "3/4", "--maxh", "abc"],
             "fractree build: error: argument --maxh: malformed maxh 'abc': "
             "Invalid literal for Fraction: 'abc'"),
            # an exponent that is no integer leaves the message to Fraction
            (["build", "--N", "2", "--d", "2", "--rho", "3/4", "--maxh", "1e1.5"],
             "fractree build: error: argument --maxh: malformed maxh '1e1.5': "
             "Invalid literal for Fraction: '1e1.5'"),
            (["scan", "--N", "2", "--d", "2", "--rho", "1,1e-100000"],
             "fractree scan: error: argument --rho: rho '1e-100000' has too many digits"),
        ],
        ids=[
            "rho", "rho-exponent", "positional-rho", "noise", "maxh", "maxh-malformed",
            "maxh-exponent-malformed", "scan",
        ],
    )
    def test_flag(self, capsys, argv, message):
        usage = self.usage(argv[0]) if message.startswith("fractree") else ""
        assert self.outcome(capsys, argv) == (2, "", usage + message + "\n")

    def test_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FRACTREE_RHO", "1e-100000")
        assert self.outcome(capsys, ["check", "--N", "2", "--d", "2"]) == (
            2, "",
            self.usage("check")
            + "fractree check: error: argument --rho: rho '1e-100000' has too many digits\n",
        )

    def test_scan_csv_column(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("rho,h_F,c_F,certified\n1e-100000,6,8,true\n")
        assert self.outcome(capsys, ["fit", str(path), "--N", "2", "--d", "2"]) == (
            2, "", "error: rho '1e-100000' has too many digits\n",
        )


def _python(*args):
    # the child imports the same package as this process, installed or not
    root = os.path.dirname(os.path.dirname(fractree.__file__))
    path = os.pathsep.join(p for p in (root, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def _module_run(*argv):
    return _python("-m", "fractree", *argv)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = _module_run("check", "2", "2", "0.9")
        assert proc.returncode == 0
        assert "subcritical (case ii)" in proc.stdout

    def test_module_usage_error(self):
        proc = _module_run("frobnicate")
        assert proc.returncode == 2

    def test_import_leaves_numpy_unloaded(self):
        # only a fit imports numpy
        proc = _python("-c", "import sys, fractree, fractree.cli; print('numpy' in sys.modules)")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
