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
malformed input or a file that cannot be read or written, 3 explosion cap
exceeded (partial results were still written).
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
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
    json_text,
    negative_sector,
    space_json_text,
)
# not called here: perfbench/spans.py wraps fractree.cli.to_json_dict for its
# builder.to_json span, and a traced run raises AttributeError without it
from .builder import to_json_dict  # noqa: F401
from .census import census, marked_census
from .params import (
    ExplosionError,
    Homogeneity,
    Parameters,
    SubcriticalityError,
    TooManyDigitsError,
    _frac,
    _fstr,
    _shown,
    alpha0_white_noise,
    completeness_threshold,
    is_locally_subcritical,
    require_subcritical,
    rho_c,
)
from .stats import (
    StatReport,
    _json_fields,
    census_report,
    report_json_dict,
    scaling_fit,
    stat_report,
    write_histogram_csv,
)
from .symbols import _dense, render, to_dot

__all__ = ["main"]

_ENV = "FRACTREE_"


def _env_default(name: str, fallback: Optional[str] = None) -> Optional[str]:
    return os.environ.get(_ENV + name.upper(), fallback)


def _rational(name: str, text: str) -> Fraction:
    """``text`` read by ``params._frac`` as the value of ``--name``; a malformed
    or too long text raises ArgumentTypeError naming ``name`` and the text,
    only its start if it is long."""
    try:
        return _frac(text)
    except TooManyDigitsError as exc:
        raise argparse.ArgumentTypeError(f"{name} {exc}") from None
    except (ValueError, ZeroDivisionError) as exc:
        reason = str(exc)
        if len(text) > 40:  # Fraction's message quotes the text or spells out its digits
            reason = reason.removesuffix(f": {text!r}")
            if isinstance(exc, ZeroDivisionError):
                reason = "zero denominator"
        raise argparse.ArgumentTypeError(f"malformed {name} {_shown(text)}: {reason}") from None


def _integer(name: str, text: str) -> int:
    """``text`` as an int, or ValueError naming ``name`` and the text."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} {text!r} is not an integer") from None


def _rho_type(text: str) -> Fraction:
    return _rational("rho", text)


def _maxh_type(text: str) -> Fraction:
    return _rational("maxh", text)


def _rho_list_type(text: str) -> tuple[Fraction, ...]:
    return tuple(_rho_type(part) for part in text.split(",") if part.strip())


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
        type=_maxh_type,
        default=_env_default("MAXH"),
        help="integration cutoff; default: the completeness threshold for the parameters",
    )
    p.add_argument("--iter", type=int, default=_env_default("ITER"), dest="iters",
                   help="maximum product rounds (default: until convergence)")
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
    if args.noise == "white":
        return Parameters.white_noise(args.N, args.d, args.rho)
    noise = _rational("noise", args.noise)
    return Parameters(N=args.N, d=args.d, rho=args.rho, alpha0=Homogeneity(noise, -1))


def _config_from(args: argparse.Namespace, params: Parameters) -> BuildConfig:
    maxh = completeness_threshold(params) if args.maxh is None else args.maxh
    kwargs = {"maxh": maxh, "iter": args.iters}
    if args.cap is not None:
        kwargs["cap"] = args.cap
    return BuildConfig(**kwargs)


def _certified_request(args: argparse.Namespace, params: Parameters) -> bool:
    """Whether ``args`` ask for the certified sector at ``params``: no
    ``--iter``, no ``--cap`` and ``--maxh`` absent or at least the
    completeness threshold.  Such a request is answered from the census,
    since the build it would make is complete."""
    return args.iters is None and args.cap is None and (
        args.maxh is None or args.maxh >= completeness_threshold(params)
    )


def _build_space(
    args: argparse.Namespace, params: Optional[Parameters] = None
) -> tuple[ModelSpace, int]:
    """Build, catching the explosion cap; returns (space, exit_code)."""
    if params is None:
        params = _params_from(args)
    config = _config_from(args, params)
    try:
        return build(params, config), 0
    except ExplosionError as exc:
        print(f"warning: {exc}; writing partial results", file=sys.stderr)
        return exc.partial, 3


def _label(c: int, h: int, h0: int, certified: bool) -> str:
    prefix = "" if certified else ">= "
    return (
        f"negative sector: c_F {prefix}{c}, h_F {prefix}{h}, h0_F {prefix}{h0}"
        + ("" if certified else " (lower bounds, not certified)")
    )


def _count_label(ms: ModelSpace) -> str:
    return _label(c_F(ms), h_F(ms), h0_F(ms), ms.complete)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args: argparse.Namespace) -> int:
    if args.pos:
        if len(args.pos) != 3:
            print("error: positional form is: check N d rho", file=sys.stderr)
            return 2
        args.N = args.N if args.N is not None else _integer("N", args.pos[0])
        args.d = args.d if args.d is not None else _integer("d", args.pos[1])
        args.rho = args.rho if args.rho is not None else _rho_type(args.pos[2])
    params = _params_from(args)
    rc = rho_c(params.N, params.d)
    ok, case = is_locally_subcritical(params)
    print(f"N = {params.N}  d = {params.d}  rho = {params.rho}  alpha0 = {params.alpha0}")
    print(f"rho_c = {rc}")
    if ok:
        print(f"subcritical (case {case})")
        return 0
    if params.slack_units == 0:
        print("not subcritical (boundary)")
    else:
        print("not subcritical")
    return 1


def _check_out(path: Optional[str], directory: bool) -> None:
    """Raise now the OSError that writing ``path`` after the build would raise.

    A file needs an existing parent directory; a directory (made with its
    parents) needs its nearest existing ancestor, or itself, to be a
    directory.  Nothing is created.
    """
    if not path:
        return
    top = path.rstrip(os.sep) or path
    if directory:
        below, head = None, top
        while head and not os.path.exists(head):
            below, head = head, os.path.dirname(head)
        if not head or os.path.isdir(head):
            return
        code = errno.EEXIST if below is None else errno.ENOTDIR
        name = path if below in (None, top) else below
    else:
        name, parent = path, os.path.dirname(top) or "."
        if not os.path.isdir(parent):
            try:
                os.stat(parent)
                code = errno.ENOTDIR  # the parent is a file
            except OSError as exc:  # the parent is missing, or under a file
                code = exc.errno
        elif path.endswith(os.sep) or os.path.isdir(path):
            code = errno.EISDIR
        else:
            return
    raise OSError(code, os.strerror(code), name)


def _write_text(path: Optional[str], text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_build(args: argparse.Namespace) -> int:
    _check_out(args.out, directory=False)
    ms, code = _build_space(args)
    _write_text(args.out, space_json_text(ms))
    print(_count_label(ms), file=sys.stdout if args.out else sys.stderr)
    return code


def _cmd_list(args: argparse.Namespace) -> int:
    _check_out(args.out, directory=False)
    ms, code = _build_space(args)
    sector = negative_sector(ms)
    d = ms.params.d
    texts: dict = {}  # one render memo: each shared subtree rendered once
    rows = [
        (
            render(sym, d, memo=texts),
            str(sym.p),
            str(sym.q),
            "(" + ",".join(map(str, _dense(sym.kvec, d))) + ")",
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


def _stats_txt(label: str, rep: StatReport) -> str:
    s = rep.sizes
    m = rep.measures
    h = rep.heights
    lines = [
        label,
        f"q*: {_fstr(s.q_star)}",
        f"P(Q off the full-tree grid): {_fstr(s.off_grid)} = {_float_str(float(s.off_grid))}",
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
    if args.format == "csv" and not args.out:
        print("error: --format csv needs --out DIR", file=sys.stderr)
        return 2
    _check_out(args.out, directory=args.format != "txt")
    p = _params_from(args)
    if _certified_request(args, p):
        # counted from the census, with the marks the report sums: no symbol is built
        counts, marks = marked_census(p)
        rep, code = census_report(p, marks), 0
        label = _label(counts.c_F, counts.h_F, counts.h0_F, True)
    else:
        ms, code = _build_space(args, p)
        rep = stat_report(ms)
        label = _count_label(ms)
    if args.format == "txt":
        _write_text(args.out, _stats_txt(label, rep))
        return code
    parameters = {"N": p.N, "d": p.d, "rho": _fstr(p.rho)}
    # white-noise documents stay as they were; custom noise is recorded as
    # in the build JSON
    if p.alpha0 != alpha0_white_noise(p.rho, p.d):
        parameters["alpha0"] = {"a": _fstr(p.alpha0.a), "b": p.alpha0.b}
    blob = json_text({"parameters": parameters, "report": report_json_dict(rep)})
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as f:
            f.write(blob)
        total = sum(c for _, c in rep.sizes.counts)
        dec, bare = rep.degrees_decorated.pooled_counts, rep.degrees_bare.pooled_counts
        for name, rows, n in (
            ("size.csv", rep.sizes.counts, total),
            ("homogeneity.csv", [(str(a), c) for a, c in rep.homogeneity_values], total),
            ("homogeneity_pairs.csv", [(f"{a}{b:+d}k", c) for (a, b), c in rep.homogeneity_pairs], total),
            ("degree_decorated.csv", enumerate(dec), sum(dec)),
            ("degree_bare.csv", enumerate(bare), sum(bare)),
        ):
            with open(os.path.join(args.out, name), "w", encoding="utf-8", newline="") as f:
                write_histogram_csv(f, rows, n)
        print(label)
    else:
        sys.stdout.write(blob)
        print(label, file=sys.stderr)
    return code


def _cmd_scan(args: argparse.Namespace) -> int:
    _check_out(args.out, directory=False)
    _require(args, "N", "d", "rho")
    if not args.rho:
        print("error: --rho lists no values", file=sys.stderr)
        raise SystemExit(2)
    seen = set()
    for rho in args.rho:
        if rho in seen:
            print(f"error: --rho lists {_fstr(rho)} more than once", file=sys.stderr)
            raise SystemExit(2)
        seen.add(rho)
    rows = []  # (rho, its Parameters, whether it asks for the certified sector)
    for rho in args.rho:
        sub = argparse.Namespace(**vars(args))
        sub.rho = rho
        params = _params_from(sub)
        require_subcritical(params)
        rows.append((rho, params, _certified_request(args, params)))
    # Every row is refused or routed before anything is counted or built, so a
    # refused rho costs no build and no cap warning promises a CSV.
    # The certified sector is counted class by class, and a class keeps its
    # count wherever it is negative: one census at the lowest certified rho
    # holds every certified row.  Only a truncated request builds symbols.
    certified = [params for _, params, cert in rows if cert]
    if certified:
        base = min(certified, key=lambda params: params.rho)
        lowest = census(base)
    worst = 0
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["rho", "h_F", "c_F", "certified"])
    for rho, params, cert in rows:
        if cert:
            counts = lowest.at(base, params)
            row = [counts.h_F, counts.c_F, "true"]
        else:
            ms, code = _build_space(args, params)
            worst = max(worst, code)
            row = [h_F(ms), c_F(ms), str(ms.complete).lower()]
        w.writerow([_fstr(rho)] + row)
    _write_text(args.out, buf.getvalue())
    return worst


def _cmd_fit(args: argparse.Namespace) -> int:
    _require(args, "N", "d")
    with open(args.scan_csv, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        columns = reader.fieldnames or ()
        missing = [c for c in ("rho", "h_F", "c_F", "certified") if c not in columns]
        if missing:
            raise ValueError(f"{args.scan_csv} is not a scan CSV: missing {', '.join(missing)}")
        points = []
        for r in reader:
            if (r["certified"] or "").lower() != "true":
                continue
            where = f"{args.scan_csv}, line {reader.line_num}"
            for c in ("rho", "h_F", "c_F"):
                if not (r[c] or "").strip():
                    raise ValueError(f"{where}: certified row has no {c}")
            counts = [_integer(f"{where}: {c}", r[c]) for c in ("h_F", "c_F")]
            points.append((_rho_type(r["rho"]), *counts))
    try:
        fit = scaling_fit(points, args.N, args.d)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        doc = {k: v for k, v in _json_fields(fit).items() if not k.endswith("_residuals")}
        _write_text(args.out, json_text(doc))
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
    if not (args.forest or args.out):
        print("error: per-tree export needs --out DIRECTORY (or use --forest)", file=sys.stderr)
        return 2
    _check_out(args.out, directory=not args.forest)
    ms, code = _build_space(args)
    sector = negative_sector(ms)
    d = ms.params.d
    if args.forest:
        parts = [to_dot(sym, d, name=f"tree_{i:04d}") for i, (sym, _) in enumerate(sector)]
        _write_text(args.out, "\n".join(parts) + "\n")
    else:
        os.makedirs(args.out, exist_ok=True)
        for i, (sym, _) in enumerate(sector):
            path = os.path.join(args.out, f"tree_{i:04d}.dot")
            with open(path, "w", encoding="utf-8") as f:
                f.write(to_dot(sym, d, name=f"tree_{i:04d}") + "\n")
        print(f"wrote {len(sector)} DOT files to {args.out}")
    return code


# ---------------------------------------------------------------------------
# argument wiring


def _add_check(p: argparse.ArgumentParser) -> None:
    p.add_argument("pos", nargs="*", metavar="N d rho",
                   help="positional shorthand: check 2 2 0.9")
    _add_common(p)


def _add_build(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_build_opts(p)
    p.add_argument("--out", default=_env_default("OUT"))


def _add_list(p: argparse.ArgumentParser) -> None:
    _add_build(p)
    p.add_argument("--format", choices=("txt", "csv"), default=_env_default("FORMAT", "txt"))


def _add_stats(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_build_opts(p)
    p.add_argument("--out", default=_env_default("OUT"),
                   help="directory: writes report.json plus histogram CSVs")
    p.add_argument("--format", choices=("json", "csv", "txt"),
                   default=_env_default("FORMAT", "json"))


def _add_scan(p: argparse.ArgumentParser) -> None:
    _add_common(p, rho_grid=True)
    _add_build_opts(p)
    p.add_argument("--out", default=_env_default("OUT"))


def _add_fit(p: argparse.ArgumentParser) -> None:
    p.add_argument("scan_csv", help="CSV produced by the scan subcommand")
    p.add_argument("--N", type=int, default=_env_default("N"))
    p.add_argument("--d", type=int, default=_env_default("D"))
    p.add_argument("--out", default=_env_default("OUT"))
    p.add_argument("--format", choices=("txt", "json"), default=_env_default("FORMAT", "txt"))


def _add_export(p: argparse.ArgumentParser) -> None:
    _add_build(p)
    p.add_argument("--forest", action="store_true",
                   help="single file with every tree instead of one file per tree")


# name: (help, add-arguments function, handler), in the order help lists them
_COMMANDS = {
    "check": ("decide local subcriticality", _add_check, _cmd_check),
    "build": ("build the model space, write JSON", _add_build, _cmd_build),
    "list": ("print the negative sector as a table", _add_list, _cmd_list),
    "stats": ("distributions and graph measures", _add_stats, _cmd_stats),
    "scan": ("sweep a rho grid, emit CSV rows", _add_scan, _cmd_scan),
    "fit": ("fit divergence laws to a scan CSV", _add_fit, _cmd_fit),
    "export": ("write DOT files for the sector trees", _add_export, _cmd_export),
}


def _parser() -> argparse.ArgumentParser:
    """The full tree: every subcommand with its help and its arguments.

    ``main`` builds it for every argv that ``_read`` leaves: the help, usage
    errors and any form of the arguments beyond exact flags and values.
    """
    ap = argparse.ArgumentParser(
        prog="fractree",
        description="Enumerate and analyze the negative-homogeneity model space "
        "of the fractional Allen-Cahn equation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (text, add_arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return ap


def _read(name: str, argv: list[str]) -> Optional[argparse.Namespace]:
    """``argv``, the arguments after the command ``name``, read as the tree
    would from the command's ``add_argument`` calls, or None for the tree.

    Read here are the positionals, then exact ``--flag value`` pairs or
    store-true flags, each flag once and no value starting with "-".  A given
    value goes through its ``type`` and ``choices``, a string default
    through its ``type`` alone, as in argparse; a refused value raises.
    """
    _, add_arguments, handler = _COMMANDS[name]
    declared = []  # (name, keywords) of each add_argument call; no parser is built
    add_arguments(argparse.Namespace(add_argument=lambda arg, **kw: declared.append((arg, kw))))
    args = argparse.Namespace(func=handler, command=name)
    flags, given, i = {}, {}, 0
    for arg, kw in declared:
        if arg.startswith("-"):
            flags[arg] = kw
            continue
        end = i
        while end < len(argv) and not argv[end].startswith("-"):
            end += 1
        if kw.get("nargs") == "*":
            setattr(args, arg, argv[i:end])
            i = end
        elif end > i:
            setattr(args, arg, argv[i])
            i += 1
        else:
            return None
    while i < len(argv):
        flag, kw = argv[i], flags.get(argv[i])
        if kw is None or flag in given:
            return None
        if kw.get("action") == "store_true":
            given[flag] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        value = kw["type"](argv[i + 1]) if "type" in kw else argv[i + 1]
        if "choices" in kw and value not in kw["choices"]:
            return None
        given[flag] = value
        i += 2
    for flag, kw in flags.items():
        if flag in given:
            value = given[flag]
        else:
            value = kw.get("default", False if kw.get("action") == "store_true" else None)
            if isinstance(value, str) and "type" in kw:
                value = kw["type"](value)
        setattr(args, kw.get("dest", flag[2:]), value)
    return args


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` as the tree of ``_parser`` does.

    An argv that names a command and then gives only what ``_read`` reads is
    read from the command's declarations, without argparse; any other argv,
    and one whose given value or string default its ``type`` refuses, goes to
    the tree, which prints every help, usage and error text.
    """
    if argv and argv[0] in _COMMANDS:
        try:
            args = _read(argv[0], argv[1:])
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            args = None
        if args is not None:
            return args
    return _parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command ``argv`` names and return its exit code.

    A well-formed argv is read without building any argparse parser; the
    tree of ``_parser`` is built only for the help, a usage error or an
    argv in any other form.
    """
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except SubcriticalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, argparse.ArgumentTypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
