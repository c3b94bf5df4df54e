"""Command-line interface.

Subcommands: check, build, list, stats, scan, fit, export.  All numeric
inputs are exact: a rho of "0.9" means nine tenths, never the nearest
float.  Defaults can be overridden through FRACTREE_* environment
variables (FRACTREE_N, FRACTREE_D, FRACTREE_RHO, FRACTREE_NOISE,
FRACTREE_MAXH, FRACTREE_ITER, FRACTREE_CAP, FRACTREE_OUT, FRACTREE_FORMAT),
with command-line flags taking precedence.

Every command writes deterministic output: rerunning with identical
inputs produces byte-identical JSON, CSV and DOT files.

Exit codes: 0 success, 1 domain refusal (not subcritical), 2 usage error,
3 explosion cap exceeded (partial results were still written).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .builder import (
    BuildConfig,
    ModelSpace,
    build,
    c_F,
    h0_F,
    h_F,
    negative_sector,
    save_json,
    to_json_dict,
)
from .params import (
    ExplosionError,
    Homogeneity,
    Parameters,
    SubcriticalityError,
    _frac,
    is_locally_subcritical,
    rho_c,
)
from .stats import report_json_dict, scaling_fit, stat_report, write_histogram_csv
from .symbols import render, to_dot

__all__ = ["main"]

_ENV = "FRACTREE_"


def _env_default(name: str, fallback: Optional[str] = None) -> Optional[str]:
    return os.environ.get(_ENV + name.upper(), fallback)


def _rho_type(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"malformed rho {text!r}: {exc}")
    return value


def _rho_list_type(text: str) -> tuple[Fraction, ...]:
    return tuple(_rho_type(part) for part in text.split(",") if part.strip())


def _fmt_frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _float_str(x: float) -> str:
    return format(x, ".9g")


def _add_common(p: argparse.ArgumentParser, rho_grid: bool = False) -> None:
    p.add_argument("--N", type=int, default=_env_default("N"), help="nonlinearity power")
    p.add_argument("--d", type=int, default=_env_default("D"), help="spatial dimension")
    if rho_grid:
        p.add_argument(
            "--rho",
            type=_rho_list_type,
            default=_env_default("RHO"),
            help="comma-separated list of exact fractional orders, e.g. 1.8,1.75,1.7",
        )
    else:
        p.add_argument(
            "--rho",
            type=_rho_type,
            default=_env_default("RHO"),
            help="fractional order, exact: 3/2 or 1.5 both mean three halves",
        )
    p.add_argument(
        "--noise",
        default=_env_default("NOISE", "white"),
        help='"white" (default) or an explicit rational noise regularity like -7/4',
    )


def _add_build_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--maxh",
        type=_rho_type,
        default=_env_default("MAXH"),
        help="integration cutoff; default: the completeness threshold for the parameters",
    )
    p.add_argument("--iter", type=int, default=_env_default("ITER", "64"), dest="iters",
                   help="maximum product rounds (default 64; stops early on convergence)")
    p.add_argument("--cap", type=int, default=_env_default("CAP"),
                   help="abort once this many symbols exist (partial results, exit 3)")


def _require(args: argparse.Namespace, *names: str) -> None:
    """Exit with status 2, naming each flag, if any of ``names`` is unset."""
    missing = [name for name in names if getattr(args, name) is None]
    for name in missing:
        print(f"error: missing --{name} (or set {_ENV}{name.upper()})", file=sys.stderr)
    if missing:
        raise SystemExit(2)


def _params_from(args: argparse.Namespace) -> Parameters:
    _require(args, "N", "d", "rho")
    N, d = int(args.N), int(args.d)
    rho = args.rho if isinstance(args.rho, Fraction) else _rho_type(str(args.rho))
    if args.noise == "white":
        return Parameters.white_noise(N, d, rho)
    return Parameters(N=N, d=d, rho=rho, alpha0=Homogeneity(_frac(args.noise), -1))


def _config_from(args: argparse.Namespace, params: Parameters) -> BuildConfig:
    from .builder import completeness_threshold

    maxh = args.maxh
    if maxh is None:
        maxh = completeness_threshold(params)
    elif not isinstance(maxh, Fraction):
        maxh = _rho_type(str(maxh))
    kwargs = {"maxh": maxh, "iter": int(args.iters)}
    if args.cap is not None:
        kwargs["cap"] = int(args.cap)
    return BuildConfig(**kwargs)


def _build_space(args: argparse.Namespace) -> tuple[ModelSpace, int]:
    """Build, catching the explosion cap; returns (space, exit_code)."""
    params = _params_from(args)
    config = _config_from(args, params)
    try:
        return build(params, config), 0
    except ExplosionError as exc:
        print(f"warning: {exc}; writing partial results", file=sys.stderr)
        return exc.partial, 3


def _count_label(ms: ModelSpace) -> str:
    prefix = "" if ms.complete else ">= "
    return (
        f"negative sector: c_F {prefix}{c_F(ms)}, h_F {prefix}{h_F(ms)}, "
        f"h0_F {prefix}{h0_F(ms)}"
        + ("" if ms.complete else " (lower bounds, not certified)")
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args: argparse.Namespace) -> int:
    params = _params_from(args)
    rc = rho_c(params.N, params.d)
    ok, case = is_locally_subcritical(params)
    print(f"N = {params.N}  d = {params.d}  rho = {params.rho}  alpha0 = {params.alpha0}")
    print(f"rho_c = {rc}")
    if ok:
        print(f"subcritical (case {case})")
        return 0
    if params.rho == rc:
        print("not subcritical (boundary)")
    else:
        print("not subcritical")
    return 1


def _write_text(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_build(args: argparse.Namespace) -> int:
    ms, code = _build_space(args)
    blob = json.dumps(to_json_dict(ms), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(blob)
        print(_count_label(ms))
    else:
        sys.stdout.write(blob)
        print(_count_label(ms), file=sys.stderr)
    return code


def _cmd_list(args: argparse.Namespace) -> int:
    ms, code = _build_space(args)
    sector = negative_sector(ms)
    d = ms.params.d
    rows = [
        (
            render(sym, d),
            str(sym.p),
            str(sym.q),
            "(" + ",".join(map(str, sym.kvec + (0,) * (d + 1 - len(sym.kvec)))) + ")",
            str(hom),
        )
        for sym, hom in sector
    ]
    header = ("symbol", "p", "q", "k", "homogeneity")
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        _write_text(args.out, buf.getvalue())
    else:
        widths = [max(len(r[i]) for r in rows + [header]) for i in range(5)]
        lines = [_count_label(ms)]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip())
        for r in rows:
            lines.append("  ".join(r[i].ljust(widths[i]) for i in range(5)).rstrip())
        _write_text(args.out, "\n".join(lines) + "\n")
    return code


def _stats_txt(ms: ModelSpace) -> str:
    rep = stat_report(ms)
    s = rep.sizes
    m = rep.measures
    h = rep.heights
    lines = [
        _count_label(ms),
        f"q*: {_fmt_frac(s.q_star)}",
        f"P(Q off the full-tree grid): {_fmt_frac(s.off_grid)} = {_float_str(float(s.off_grid))}",
        f"E(Q/q*): {_float_str(float(s.mean_ratio))}  Var(Q/q*): {_float_str(float(s.var_ratio))}",
        f"mean height: {_float_str(float(h.mean_height))}  mean diameter: {_float_str(float(h.mean_diameter))}",
        f"scaled sqrt-gap height: {_float_str(h.scaled_mean_height)} (reference {_float_str(h.height_reference)})",
        f"scaled sqrt-gap diameter: {_float_str(h.scaled_mean_diameter)} (reference {_float_str(h.diameter_reference)})",
        f"M_d (density): {_float_str(float(m.density))}",
        f"M_b (betweenness): {_float_str(float(m.betweenness))}",
        f"M_r (pagerank): {_float_str(m.pagerank)}",
        f"M_p (periphery): {_float_str(float(m.periphery))}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_stats(args: argparse.Namespace) -> int:
    ms, code = _build_space(args)
    rep = stat_report(ms)
    doc = {
        "parameters": {
            "N": ms.params.N,
            "d": ms.params.d,
            "rho": _fmt_frac(ms.params.rho),
        },
        "report": report_json_dict(rep),
    }
    blob = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out and args.format != "txt":
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as f:
            f.write(blob)
        total = c_F(ms)
        with open(os.path.join(args.out, "size.csv"), "w", encoding="utf-8", newline="") as f:
            write_histogram_csv(f, rep.sizes.counts, total)
        with open(os.path.join(args.out, "homogeneity.csv"), "w", encoding="utf-8", newline="") as f:
            write_histogram_csv(f, tuple((str(a), c) for a, c in rep.homogeneity_values), total)
        with open(os.path.join(args.out, "homogeneity_pairs.csv"), "w", encoding="utf-8", newline="") as f:
            write_histogram_csv(
                f, tuple((f"{a}{b:+d}k", c) for (a, b), c in rep.homogeneity_pairs), total
            )
        for tag, dd in (("decorated", rep.degrees_decorated), ("bare", rep.degrees_bare)):
            with open(os.path.join(args.out, f"degree_{tag}.csv"), "w", encoding="utf-8", newline="") as f:
                write_histogram_csv(
                    f,
                    tuple(enumerate(dd.pooled_counts)),
                    sum(dd.pooled_counts),
                )
        print(_count_label(ms))
    elif args.format == "txt":
        _write_text(args.out, _stats_txt(ms))
    else:
        sys.stdout.write(blob)
        print(_count_label(ms), file=sys.stderr)
    return code


def _cmd_scan(args: argparse.Namespace) -> int:
    _require(args, "N", "d", "rho")
    rhos = args.rho if isinstance(args.rho, tuple) else _rho_list_type(str(args.rho))
    if not rhos:
        print("error: --rho lists no values", file=sys.stderr)
        raise SystemExit(2)
    worst = 0
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["rho", "h_F", "c_F", "certified"])
    for rho in rhos:
        sub = argparse.Namespace(**vars(args))
        sub.rho = rho
        ms, code = _build_space(sub)
        worst = max(worst, code)
        w.writerow([_fmt_frac(rho), h_F(ms), c_F(ms), str(ms.complete).lower()])
    _write_text(args.out, buf.getvalue())
    return worst


def _cmd_fit(args: argparse.Namespace) -> int:
    _require(args, "N", "d")
    with open(args.scan_csv, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    points = [
        (Fraction(r["rho"]), int(r["h_F"]), int(r["c_F"]))
        for r in rows
        if r.get("certified", "").lower() == "true"
    ]
    try:
        fit = scaling_fit(points, int(args.N), int(args.d))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        doc = {
            "N": fit.N,
            "d": fit.d,
            "rhos": [_fmt_frac(r) for r in fit.rhos],
            "coefficient": fit.coefficient,
            "envelope": list(fit.envelope),
            "envelope_ok": fit.envelope_ok,
            "intercept": fit.intercept,
            "beta": fit.beta,
            "beta_reference": fit.beta_reference,
            "beta_relative_error": fit.beta_relative_error,
            "gap_products": list(fit.gap_products),
        }
        _write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        lines = [
            f"fit over {len(fit.rhos)} certified points, N = {fit.N}, d = {fit.d}",
            f"h_F ~ A / (rho - rho_c):  A = {_float_str(fit.coefficient)}",
            f"  envelope [{_float_str(fit.envelope[0])}, {_float_str(fit.envelope[1])}]"
            f" -> {'inside' if fit.envelope_ok else 'OUTSIDE'}",
            f"  h_F * gap per point: {' '.join(_float_str(g) for g in fit.gap_products)}",
            f"log c_F ~ B + (3/2) log gap + beta * d / gap:",
            f"  B = {_float_str(fit.intercept)}",
            f"  beta = {_float_str(fit.beta)}  reference = {_float_str(fit.beta_reference)}"
            f"  relative error = {_float_str(fit.beta_relative_error)}",
        ]
        _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    ms, code = _build_space(args)
    sector = negative_sector(ms)
    d = ms.params.d
    if args.forest:
        parts = [to_dot(sym, d, name=f"tree_{i:04d}") for i, (sym, _) in enumerate(sector)]
        _write_text(args.out, "\n".join(parts) + "\n")
    else:
        if not args.out:
            print("error: per-tree export needs --out DIRECTORY (or use --forest)", file=sys.stderr)
            return 2
        os.makedirs(args.out, exist_ok=True)
        for i, (sym, _) in enumerate(sector):
            path = os.path.join(args.out, f"tree_{i:04d}.dot")
            with open(path, "w", encoding="utf-8") as f:
                f.write(to_dot(sym, d, name=f"tree_{i:04d}") + "\n")
        print(f"wrote {len(sector)} DOT files to {args.out}")
    return code


# ---------------------------------------------------------------------------
# argument wiring


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fractree",
        description="Enumerate and analyze the negative-homogeneity model space "
        "of the fractional Allen-Cahn equation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide local subcriticality")
    p.add_argument("pos", nargs="*", metavar="N d rho",
                   help="positional shorthand: check 2 2 0.9")
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("build", help="build the model space, write JSON")
    _add_common(p)
    _add_build_opts(p)
    p.add_argument("--out", default=_env_default("OUT"))
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("list", help="print the negative sector as a table")
    _add_common(p)
    _add_build_opts(p)
    p.add_argument("--out", default=_env_default("OUT"))
    p.add_argument("--format", choices=("txt", "csv"), default=_env_default("FORMAT", "txt"))
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("stats", help="distributions and graph measures")
    _add_common(p)
    _add_build_opts(p)
    p.add_argument("--out", default=_env_default("OUT"),
                   help="directory: writes report.json plus histogram CSVs")
    p.add_argument("--format", choices=("json", "csv", "txt"),
                   default=_env_default("FORMAT", "json"))
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("scan", help="sweep a rho grid, emit CSV rows")
    _add_common(p, rho_grid=True)
    _add_build_opts(p)
    p.add_argument("--out", default=_env_default("OUT"))
    p.add_argument("--format", choices=("csv",), default="csv")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("fit", help="fit divergence laws to a scan CSV")
    p.add_argument("scan_csv", help="CSV produced by the scan subcommand")
    p.add_argument("--N", type=int, default=_env_default("N"))
    p.add_argument("--d", type=int, default=_env_default("D"))
    p.add_argument("--out", default=_env_default("OUT"))
    p.add_argument("--format", choices=("txt", "json"), default=_env_default("FORMAT", "txt"))
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("export", help="write DOT files for the sector trees")
    _add_common(p)
    _add_build_opts(p)
    p.add_argument("--out", default=_env_default("OUT"))
    p.add_argument("--forest", action="store_true",
                   help="single file with every tree instead of one file per tree")
    p.add_argument("--format", choices=("dot",), default="dot")
    p.set_defaults(func=_cmd_export)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "check" and args.pos:
            if len(args.pos) != 3:
                print("error: positional form is: check N d rho", file=sys.stderr)
                return 2
            args.N = args.N if args.N is not None else int(args.pos[0])
            args.d = args.d if args.d is not None else int(args.pos[1])
            args.rho = args.rho if args.rho is not None else _rho_type(args.pos[2])
        return args.func(args)
    except SubcriticalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
