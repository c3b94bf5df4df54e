"""Spans around the package's public functions, for the traced run.

``install`` replaces module attributes with timing wrappers, at the names the
calling layer looks up: ``fractree.cli.build`` is what the CLI calls,
``fractree.builder.product`` is what the builder calls, and so on.  Nothing
under ``src/`` changes.

Coarse calls (a CLI subcommand, a build, a stats aggregator) become one span
each: name, start, end and the index of the enclosing span.  Hot calls made
hundreds of thousands of times per build (``product``, ``integrate``,
``homogeneity_of``, ``render``, ``parse_symbol``, ``bare_tree``,
``decorate``) are kept as one aggregate per (name, enclosing span) with a
call count and total time, so the trace stays small.  Spans stay in memory
until ``write`` is called at the end of the pass.
"""

from __future__ import annotations

import json
import weakref
from collections import defaultdict
from time import perf_counter

import fractree
import fractree.builder
import fractree.cli
import fractree.counting
import fractree.stats
import fractree.symbols
import fractree.trees

# span name -> the (module, attribute) sites that get a wrapper: the names
# the calling layer looks up.  ``fractree.cli.main`` is wrapped as well, as
# one span per subcommand, "cli.main.<subcommand>".
COARSE = {
    "builder.build": [(fractree.builder, "build"), (fractree.cli, "build")],
    "builder.sector": [
        (fractree.builder, "negative_sector"),
        (fractree.cli, "negative_sector"),
        (fractree.stats, "negative_sector"),
    ],
    "builder.to_json": [(fractree.cli, "to_json_dict")],
    "builder.load_json": [(fractree, "load_json")],
    "stats.report": [(fractree.cli, "stat_report")],
    "stats.records": [(fractree.stats, "tree_records")],
    "stats.size": [(fractree.stats, "size_distribution")],
    "stats.homogeneity": [(fractree.stats, "homogeneity_histogram")],
    "stats.degree": [(fractree.stats, "degree_distribution")],
    "stats.height_diameter": [(fractree.stats, "height_diameter")],
    "stats.graph_measures": [(fractree.stats, "graph_measures")],
    "stats.write": [(fractree.cli, "report_json_dict"), (fractree.cli, "write_histogram_csv")],
    "stats.fit": [(fractree.cli, "scaling_fit")],
    "trees.enumerate": [(fractree.trees, "enumerate_bare")],
    "counting.dio": [(fractree.counting, "dio_count")],
}

# Calls from the builder, from stats and from the oracle only; recursion
# inside fractree.symbols is not wrapped.
HOT = {
    "symbols.product": [(fractree.builder, "product")],
    "symbols.integrate": [(fractree.builder, "integrate")],
    "params.homogeneity": [(fractree.builder, "homogeneity_of")],
    "symbols.render": [(fractree.builder, "render")],
    "symbols.parse": [(fractree.builder, "parse_symbol")],
    "symbols.bare_tree": [(fractree.stats, "bare_tree")],
    "symbols.decorate": [(fractree.symbols, "decorate")],
}

LAYERS = ("cli", "builder", "symbols", "params", "stats", "trees", "counting")
SUBCOMMANDS = ("scan", "fit", "stats", "build")
OBSERVED = ("trees.catalogue_entries", "trees.oracle_image", "counting.dio_le", "counting.dio_lt")

# Generator functions: the wrapper drains them inside the span, so the span
# covers the work and not just the creation of the generator.
GENERATORS = {"trees.enumerate"}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.hot = defaultdict(lambda: [0, 0.0])  # (name, parent) -> [calls, seconds]
        self.stack: list[int] = []
        self.enabled = True
        self.built: list[weakref.ref] = []  # spaces returned by build, not yet counted
        self.counts = defaultdict(int)

    def coarse(self, name, fn, after=None):
        """Wrap fn in a span; ``name`` may be a function of the call's arguments."""
        drain = name in GENERATORS

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            label = name if isinstance(name, str) else name(*args)
            self.spans.append([label, perf_counter(), None, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                if drain:
                    out = list(out)
            finally:
                self.spans[idx][2] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def hot_call(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell = self.hot[(name, self.stack[-1] if self.stack else -1)]
                cell[0] += 1
                cell[1] += perf_counter() - t0

        return wrapper

    def after_build(self, args, ms) -> None:
        self.counts["builder.stored"] += len(ms)
        self.built.append(weakref.ref(ms))

    def after_sector(self, args, sector) -> None:
        """Count c_F, h_F and h0_F once per built space, at its first sector call."""
        ms = args[0]
        for i, ref in enumerate(self.built):
            if ref() is ms:
                del self.built[i]
                self.counts["builder.cF"] += len(sector)
                self.counts["builder.hF"] += len({h for _s, h in sector})
                self.counts["builder.h0F"] += len({h for s, h in sector if not s.kvec})
                return

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        own = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            own[name] += t1 - t0
            if parent >= 0:
                own[self.spans[parent][0]] -= t1 - t0
        for (name, parent), (_calls, secs) in self.hot.items():
            own[name] += secs
            if parent >= 0:
                own[self.spans[parent][0]] -= secs
        return dict(own)

    def totals(self) -> dict[str, float]:
        """Seconds per span name."""
        out = defaultdict(float)
        for name, t0, t1, _parent in self.spans:
            out[name] += t1 - t0
        for (name, _parent), (_calls, secs) in self.hot.items():
            out[name] += secs
        return dict(out)

    def calls(self) -> dict[str, int]:
        """Calls per hot-call name."""
        out = defaultdict(int)
        for (name, _parent), (calls, _secs) in self.hot.items():
            out[name] += calls
        return dict(out)

    def write(self, path: str) -> None:
        doc = {
            "spans": [
                {"name": n, "start": t0, "end": t1, "parent": p} for n, t0, t1, p in self.spans
            ],
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "seconds": s}
                for (n, p), (c, s) in sorted(self.hot.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install() -> Recorder:
    """Put timing wrappers at every site in COARSE and HOT; return their recorder."""
    rec = Recorder()
    after = {"builder.build": rec.after_build, "builder.sector": rec.after_sector}
    for name, sites in COARSE.items():
        for module, attr in sites:
            setattr(module, attr, rec.coarse(name, getattr(module, attr), after.get(name)))
    for name, sites in HOT.items():
        for module, attr in sites:
            setattr(module, attr, rec.hot_call(name, getattr(module, attr)))
    fractree.cli.main = rec.coarse(lambda argv: "cli.main." + argv[0], fractree.cli.main)
    return rec


def metrics(rec: Recorder, observed: dict) -> dict:
    """The per-layer metrics of one traced pass; ``observed`` holds the counts
    the operations reported themselves (see OBSERVED)."""
    totals, calls, own = rec.totals(), rec.calls(), rec.self_times()
    out = {f"cli.main_s.{sub}": totals.get(f"cli.main.{sub}", 0.0) for sub in SUBCOMMANDS}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum((t for name, t in own.items() if name.split(".")[0] == layer), 0.0)
    for name in (*COARSE, *HOT):
        out[name + "_s"] = totals.get(name, 0.0)
    for name in HOT:
        out[name + "_calls"] = calls.get(name, 0)
    for name in ("builder.stored", "builder.cF", "builder.hF", "builder.h0F"):
        out[name] = rec.counts.get(name, 0)
    stored = out["builder.stored"]
    out["builder.sector_share"] = out["builder.cF"] / stored if stored else 0.0
    for name in OBSERVED:
        out[name] = observed.get(name, 0)
    out["trace.spans"] = len(rec.spans)
    return out
