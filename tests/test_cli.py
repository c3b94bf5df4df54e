"""Command-line interface: exit codes, frozen outputs, file emission, env overrides."""

import csv
import io
import json
import subprocess
import sys

import pytest

from fractree.cli import main

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

    def test_malformed_rho(self, capsys):
        code, _, err = run(capsys, ["check", "2", "2", "bogus"])
        assert code == 2
        assert err.startswith("error: malformed rho 'bogus'")

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
        code, out, _ = run(capsys, argv)
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["size"]["q_star"] == "2/1"
        assert rep["size"]["mean_ratio"] == "1/2"
        assert rep["height_diameter"]["scaled_sq_height"] == pytest.approx(2 / 9, rel=1e-12)
        assert rep["graph_measures"]["density"] == "5/18"


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

    def test_env_format(self, capsys, monkeypatch):
        monkeypatch.setenv("FRACTREE_FORMAT", "csv")
        code, out, _ = run(capsys, ["list", "--N", "2", "--d", "2", "--rho", "1.5"])
        assert code == 0
        assert out.splitlines()[0] == "symbol,p,q,k,homogeneity"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fractree", "check", "2", "2", "0.9"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "subcritical (case ii)" in proc.stdout

    def test_module_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fractree", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
