"""Statistics of the negative sector under the uniform measure.

Every element of the negative sector is a decorated tree, so drawing one
uniformly at random turns tree functionals into random variables: the
number of integration edges Q, the noise count P, the homogeneity, vertex
degrees, height, diameter.  This module computes their exact empirical
distributions from a built model space, together with four averaged graph
measures and least-squares fits of the divergence laws near the
subcriticality boundary.

Every measure is a fold over per-tree records, one breadth-first walk per
element.  Counts and histogram masses are exact (integers and fractions);
only the PageRank mean (the float of an exact fraction), the gap-scaled
moments and the fitted coefficients are floating point.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Optional

import numpy as np

from .builder import ModelSpace, negative_sector
from .counting import LAMBDA2, beta_N
from .params import (
    Homogeneity, Parameters, RationalLike, SubcriticalityError, _frac, rho_c, scaled_degree,
)
# not called here: perfbench/spans.py counts bare-tree rebuilds at fractree.stats.bare_tree
from .symbols import INT, Symbol, bare_tree  # noqa: F401

__all__ = [
    "TreeRecord",
    "tree_records",
    "SizeDistribution",
    "size_distribution",
    "homogeneity_histogram",
    "DegreeDistribution",
    "degree_distribution",
    "HeightDiameter",
    "height_diameter",
    "GraphMeasures",
    "graph_measures",
    "ScalingFit",
    "scaling_fit",
    "StatReport",
    "stat_report",
    "report_json_dict",
    "write_histogram_csv",
]


# ---------------------------------------------------------------------------
# per-tree records


@dataclass(frozen=True)
class TreeRecord:
    """Everything the aggregators need to know about one sector element.

    Height, diameter, ``degrees``, ``betweenness`` and ``periphery`` refer
    to the bare tree (noise edges stripped), which has ``vertices`` = q + 1
    vertices.  ``degrees[j]`` counts bare vertices of undirected degree j
    and ``decorated_degrees[j]`` vertices of the decorated tree, for
    j = 0 .. N+1.  ``betweenness`` sums, over the bare vertices, the vertex
    pairs whose unique path passes through the vertex, endpoints excluded;
    ``periphery`` counts the bare vertices at maximal depth.
    ``poly_degree`` is the scaled degree of the polynomial decoration, zero
    unless the element carries one.
    """

    symbol: Symbol
    p: int
    q: int
    poly_degree: Fraction
    homogeneity: Homogeneity
    height: int
    diameter: int
    degrees: tuple[int, ...]
    decorated_degrees: tuple[int, ...]
    betweenness: int
    periphery: int

    @property
    def vertices(self) -> int:
        return self.q + 1


def _walk(sym: Symbol, N: int) -> tuple[int, int, tuple, tuple, int, int]:
    """The walked fields of a TreeRecord, from one breadth-first walk.

    The walk follows INT edges only, so it visits exactly the bare tree;
    each noise edge adds one to its vertex's decorated degree, and its leaf
    is a decorated vertex of degree 1.
    """
    nodes, parent, depth = [sym], [-1], [0]
    bare, decorated = [0] * (N + 2), [0] * (N + 2)
    decorated[1] = sym.p  # the noise leaves
    for i, node in enumerate(nodes):  # nodes grows while read: a breadth-first queue
        up = 1 if i else 0
        before = len(nodes)
        for tag, child in node.children:
            if tag == INT:
                nodes.append(child)
                parent.append(i)
                depth.append(depth[i] + 1)
        deg = len(node.children) + up
        if deg > N + 1:
            raise ValueError(f"vertex of degree {deg} exceeds N+1 = {N + 1}")
        bare[len(nodes) - before + up] += 1
        decorated[deg] += 1

    # Children follow their parents, so a reverse pass finishes each subtree
    # (size, height, sum of squared child sizes) before its parent reads it.
    # Deleting v leaves its child subtrees and, unless v is the root, the
    # n - size[v] vertices above it; the pairs it splits apart pass through v.
    n = len(nodes)
    size, below, squares = [1] * n, [0] * n, [0] * n
    diam, pairs, s2 = 0, 0, (n - 1) ** 2
    for v in range(n - 1, 0, -1):
        u = parent[v]
        pairs += s2 - squares[v] - (n - size[v]) ** 2
        diam = max(diam, below[u] + below[v] + 1)
        below[u] = max(below[u], below[v] + 1)
        size[u] += size[v]
        squares[u] += size[v] ** 2
    pairs += s2 - squares[0]
    top = below[0]
    return top, diam, tuple(bare), tuple(decorated), pairs // 2, depth.count(top)


def tree_records(ms: ModelSpace) -> tuple[TreeRecord, ...]:
    """One record per negative-sector element, in canonical sector order."""
    N, rho = ms.params.N, ms.params.rho
    return tuple(
        TreeRecord(sym, sym.p, sym.q, scaled_degree(sym.kvec, rho), hom, *_walk(sym, N))
        for sym, hom in negative_sector(ms)
    )


Records = Optional[tuple[TreeRecord, ...]]


def _records(ms: ModelSpace, records: Records) -> tuple[TreeRecord, ...]:
    recs = tree_records(ms) if records is None else records
    if not recs:
        raise ValueError("negative sector is empty; nothing to aggregate")
    return recs


def _mean_of_ratios(pairs: Iterable[tuple[int, int]], total: int) -> Fraction:
    """Exact sum of num/den over ``pairs`` divided by ``total``; one Fraction per den."""
    sums: defaultdict[int, int] = defaultdict(int)
    for num, den in pairs:
        sums[den] += num
    return sum((Fraction(s, den) for den, s in sums.items()), Fraction(0)) / total


def _q_star_and_gap(params: Parameters) -> tuple[Fraction, Fraction]:
    """Lattice bound q* and boundary gap under the noise regularity alpha0.

    With a = -alpha0 at kappa = 0, the line p*alpha0 + q*rho = 0 leaves the
    cone p <= 1 + (N-1)q/N at q* = N a / (N rho - (N-1) a); the gap is
    2 (N rho - (N-1) a) / (N+1).  For white noise, a = (rho + d)/2, these
    are ``lattice_bounds(N, d, rho).q_star`` and rho - rho_c.
    """
    N, rho, a = params.N, params.rho, -params.alpha0.a
    slack = N * rho - (N - 1) * a
    if slack <= 0:
        raise SubcriticalityError(f"N*rho - (N-1)*a = {slack} is not positive for a = {a}")
    return N * a / slack, 2 * slack / (N + 1)


# ---------------------------------------------------------------------------
# size distribution


@dataclass(frozen=True)
class SizeDistribution:
    """Law of the integration-edge count Q over the negative sector.

    ``off_grid`` is the probability that Q is not a multiple of N, i.e.
    that the bare tree is a strictly pruned one.  The ratio moments divide
    Q by the lattice bound q*, the largest size a negative element can
    have; near the subcriticality boundary the ratio concentrates at 1.
    A report from a build without a completeness certificate is only a
    lower-bound census, hence ``certified`` is carried along.
    """

    counts: tuple[tuple[int, int], ...]
    pmf: tuple[tuple[int, Fraction], ...]
    off_grid: Fraction
    mean_ratio: Fraction
    var_ratio: Fraction
    q_star: Fraction
    certified: bool


def size_distribution(ms: ModelSpace, *, records: Records = None) -> SizeDistribution:
    recs = _records(ms, records)
    total = len(recs)
    N = ms.params.N
    q_star, _ = _q_star_and_gap(ms.params)
    counts = tuple(sorted(Counter(r.q for r in recs).items()))
    pmf = tuple((q, Fraction(c, total)) for q, c in counts)
    off = sum((f for q, f in pmf if q % N != 0), Fraction(0))
    mean = sum((Fraction(q) / q_star * f for q, f in pmf), Fraction(0))
    second = sum(((Fraction(q) / q_star) ** 2 * f for q, f in pmf), Fraction(0))
    return SizeDistribution(
        counts=counts,
        pmf=pmf,
        off_grid=off,
        mean_ratio=mean,
        var_ratio=second - mean * mean,
        q_star=q_star,
        certified=ms.complete,
    )


# ---------------------------------------------------------------------------
# homogeneity histogram


def homogeneity_histogram(
    ms: ModelSpace, drop_kappa: bool = True, *, records: Records = None
) -> tuple[tuple, ...]:
    """Occupation counts of the homogeneity values, bins sorted ascending.

    With ``drop_kappa`` the arbitrarily small corrections are discarded and
    bins are keyed by the rational part alone; otherwise each distinct
    (rational, correction-multiplier) pair gets its own bin, so the number
    of bins is exactly the count of distinct homogeneities in the sector.
    """
    homs = (r.homogeneity for r in _records(ms, records))
    hist = Counter(h.a if drop_kappa else (h.a, h.b) for h in homs)
    return tuple(sorted(hist.items()))


# ---------------------------------------------------------------------------
# degree distribution


@dataclass(frozen=True)
class DegreeDistribution:
    """Pooled and per-tree vertex-degree statistics, degrees 0 .. N+1.

    The pooled histogram ranges over the vertices of every sector element
    plus the unit, which contributes a single isolated vertex of degree 0;
    the per-tree means average the normalized degree vector over sector
    elements only.  ``bare`` records which tree the degrees were read from.
    """

    bare: bool
    pooled_counts: tuple[int, ...]
    pooled: tuple[Fraction, ...]
    per_tree_mean: tuple[Fraction, ...]


def degree_distribution(
    ms: ModelSpace, bare: bool = False, *, records: Records = None
) -> DegreeDistribution:
    recs = _records(ms, records)
    counts = [r.degrees if bare else r.decorated_degrees for r in recs]
    pooled = [sum(col) for col in zip(*counts)]
    pooled[0] += 1  # the unit
    vertices = sum(pooled)
    return DegreeDistribution(
        bare=bare,
        pooled_counts=tuple(pooled),
        pooled=tuple(Fraction(c, vertices) for c in pooled),
        per_tree_mean=tuple(
            _mean_of_ratios(((cnt[j], sum(cnt)) for cnt in counts), len(recs))
            for j in range(len(pooled))
        ),
    )


# ---------------------------------------------------------------------------
# height and diameter


@dataclass(frozen=True)
class HeightDiameter:
    """Bare-tree heights and diameters with boundary-scaled moments.

    The scaled first moments multiply the means by the square root of the
    gap (rho - rho_c for white noise); as rho approaches the boundary they
    are expected to level off near the reference constants
    4 sqrt(pi d) / (3 lambda2) for the height and 16 sqrt(pi d) / (9 lambda2)
    for the diameter.  The scaled second moments multiply by the gap itself.
    """

    heights: tuple[int, ...]
    diameters: tuple[int, ...]
    mean_height: Fraction
    mean_diameter: Fraction
    scaled_mean_height: float
    scaled_mean_diameter: float
    scaled_sq_height: float
    scaled_sq_diameter: float
    height_reference: float
    diameter_reference: float


def height_diameter(ms: ModelSpace, *, records: Records = None) -> HeightDiameter:
    recs = _records(ms, records)
    total = len(recs)
    hs = tuple(r.height for r in recs)
    ds = tuple(r.diameter for r in recs)
    mh = Fraction(sum(hs), total)
    md = Fraction(sum(ds), total)
    gap = float(_q_star_and_gap(ms.params)[1])
    root = math.sqrt(gap)
    ddim = ms.params.d
    return HeightDiameter(
        heights=hs,
        diameters=ds,
        mean_height=mh,
        mean_diameter=md,
        scaled_mean_height=root * float(mh),
        scaled_mean_diameter=root * float(md),
        scaled_sq_height=gap * sum(h * h for h in hs) / total,
        scaled_sq_diameter=gap * sum(d * d for d in ds) / total,
        height_reference=4.0 * math.sqrt(math.pi * ddim) / (3.0 * LAMBDA2),
        diameter_reference=16.0 * math.sqrt(math.pi * ddim) / (9.0 * LAMBDA2),
    )


# ---------------------------------------------------------------------------
# graph measures


@dataclass(frozen=True)
class GraphMeasures:
    """Four measures averaged over the bare trees of the sector.

    density: mean of m / (n (n - 1)) with one directed edge per tree edge,
    which is 1/n on a tree with n >= 2 vertices and zero for a single
    vertex.  betweenness: mean over trees of the average vertex betweenness
    (count of vertex pairs whose unique path passes through the vertex,
    endpoints excluded).  pagerank: mean over trees of the mean vertex
    PageRank on the undirected tree.  The scores of a tree with n >= 2
    vertices sum to one, so its mean is exactly 1/n, and a single vertex
    scores 1; hence pagerank = density + P(n = 1), stored as the float of
    that exact fraction.  periphery: mean over trees of the number of
    vertices at maximal depth, where depth is measured along root-to-leaf
    orientation.
    """

    density: Fraction
    betweenness: Fraction
    pagerank: float
    periphery: Fraction


def graph_measures(ms: ModelSpace, *, records: Records = None) -> GraphMeasures:
    recs = _records(ms, records)
    total = len(recs)
    density = _mean_of_ratios(((1, r.vertices) for r in recs if r.vertices > 1), total)
    singles = sum(1 for r in recs if r.vertices == 1)
    return GraphMeasures(
        density=density,
        betweenness=_mean_of_ratios(((r.betweenness, r.vertices) for r in recs), total),
        pagerank=float(density + Fraction(singles, total)),
        periphery=Fraction(sum(r.periphery for r in recs), total),
    )


# ---------------------------------------------------------------------------
# scaling fits


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fits of the boundary divergence laws.

    The homogeneity count is fitted as h = A / (rho - rho_c), one free
    parameter.  The sector cardinality is fitted as
    log c = B + (3/2) log(rho - rho_c) + beta d / (rho - rho_c) with B and
    beta free, and beta is compared against the analytic coefficient for
    the given N.  ``envelope`` brackets the admissible values of A implied
    by the rigorous count bounds at the middle of the grid, and
    ``gap_products`` lists h * (rho - rho_c) per point, which the bounds
    force to stay within a fixed range.
    """

    N: int
    d: int
    rhos: tuple[Fraction, ...]
    coefficient: float
    envelope: tuple[float, float]
    envelope_ok: bool
    intercept: float
    beta: float
    beta_reference: float
    beta_relative_error: float
    h_residuals: tuple[float, ...]
    logc_residuals: tuple[float, ...]
    gap_products: tuple[float, ...]


def scaling_fit(
    points: Iterable[tuple[RationalLike, int, int]], N: int, d: int
) -> ScalingFit:
    """Fit divergence laws to a grid of (rho, h, c) triples.

    Every point must come from a certified census at the same (N, d);
    at least four distinct subcritical rho values are required.
    """
    rows = []
    for rho, h, c in points:
        rows.append((_frac(rho), int(h), int(c)))
    rows.sort(reverse=True)
    rhos = tuple(r for r, _, _ in rows)
    if len(set(rhos)) < 4:
        raise ValueError("scaling fit needs at least 4 distinct grid points")
    rc = rho_c(N, d)
    gaps = [r - rc for r in rhos]
    if min(gaps) <= 0:
        raise ValueError("scaling fit needs strictly subcritical grid points")
    if any(h <= 0 or c <= 0 for _, h, c in rows):
        raise ValueError("counts must be positive")

    x = np.array([1.0 / float(g) for g in gaps])
    hvals = np.array([float(h) for _, h, _ in rows])
    coeff = float(np.dot(hvals, x) / np.dot(x, x))
    h_res = tuple(float(h - coeff * xi) for h, xi in zip(hvals, x))

    y = np.array(
        [math.log(c) - 1.5 * math.log(float(g)) for (_, _, c), g in zip(rows, gaps)]
    )
    design = np.column_stack([np.ones_like(x), d * x])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    intercept, beta = float(sol[0]), float(sol[1])
    logc_res = tuple(float(yi - intercept - beta * d * xi) for yi, xi in zip(y, x))

    ref = beta_N(N)
    mid = sum(rhos, Fraction(0)) / len(rhos)
    lo = float((mid + d) / (N + 1))
    hi = float((mid - rc) + Fraction(N * d) * (mid + d) / (N + 1))
    return ScalingFit(
        N=N,
        d=d,
        rhos=rhos,
        coefficient=coeff,
        envelope=(lo, hi),
        envelope_ok=lo <= coeff <= hi,
        intercept=intercept,
        beta=beta,
        beta_reference=ref,
        beta_relative_error=abs(beta - ref) / ref,
        h_residuals=h_res,
        logc_residuals=logc_res,
        gap_products=tuple(float(h * g) for (_, h, _), g in zip(rows, gaps)),
    )


# ---------------------------------------------------------------------------
# combined report


@dataclass(frozen=True)
class StatReport:
    """All per-build statistics in one immutable bundle."""

    records: tuple[TreeRecord, ...]
    sizes: SizeDistribution
    homogeneity_values: tuple[tuple, ...]
    homogeneity_pairs: tuple[tuple, ...]
    degrees_decorated: DegreeDistribution
    degrees_bare: DegreeDistribution
    heights: HeightDiameter
    measures: GraphMeasures
    certified: bool


def stat_report(ms: ModelSpace) -> StatReport:
    records = tree_records(ms)
    return StatReport(
        records=records,
        sizes=size_distribution(ms, records=records),
        homogeneity_values=homogeneity_histogram(ms, drop_kappa=True, records=records),
        homogeneity_pairs=homogeneity_histogram(ms, drop_kappa=False, records=records),
        degrees_decorated=degree_distribution(ms, bare=False, records=records),
        degrees_bare=degree_distribution(ms, bare=True, records=records),
        heights=height_diameter(ms, records=records),
        measures=graph_measures(ms, records=records),
        certified=ms.complete,
    )


def _fstr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def report_json_dict(rep: StatReport) -> dict:
    """JSON-ready dict; fractions become "num/den" strings, scores floats."""
    sizes = rep.sizes
    return {
        "certified": rep.certified,
        "size": {
            "counts": {str(q): c for q, c in sizes.counts},
            "pmf": {str(q): _fstr(f) for q, f in sizes.pmf},
            "off_grid": _fstr(sizes.off_grid),
            "mean_ratio": _fstr(sizes.mean_ratio),
            "var_ratio": _fstr(sizes.var_ratio),
            "q_star": _fstr(sizes.q_star),
        },
        "homogeneity": {
            "values": [[_fstr(a), c] for a, c in rep.homogeneity_values],
            "pairs": [[_fstr(a), b, c] for (a, b), c in rep.homogeneity_pairs],
        },
        "degree": {
            "decorated": {
                "pooled_counts": list(rep.degrees_decorated.pooled_counts),
                "pooled": [_fstr(f) for f in rep.degrees_decorated.pooled],
                "per_tree_mean": [_fstr(f) for f in rep.degrees_decorated.per_tree_mean],
            },
            "bare": {
                "pooled_counts": list(rep.degrees_bare.pooled_counts),
                "pooled": [_fstr(f) for f in rep.degrees_bare.pooled],
                "per_tree_mean": [_fstr(f) for f in rep.degrees_bare.per_tree_mean],
            },
        },
        "height_diameter": {
            "mean_height": _fstr(rep.heights.mean_height),
            "mean_diameter": _fstr(rep.heights.mean_diameter),
            "scaled_mean_height": rep.heights.scaled_mean_height,
            "scaled_mean_diameter": rep.heights.scaled_mean_diameter,
            "scaled_sq_height": rep.heights.scaled_sq_height,
            "scaled_sq_diameter": rep.heights.scaled_sq_diameter,
            "height_reference": rep.heights.height_reference,
            "diameter_reference": rep.heights.diameter_reference,
        },
        "graph_measures": {
            "density": _fstr(rep.measures.density),
            "betweenness": _fstr(rep.measures.betweenness),
            "pagerank": rep.measures.pagerank,
            "periphery": _fstr(rep.measures.periphery),
        },
    }


def write_histogram_csv(f: IO[str], rows: Iterable[tuple], total: int) -> None:
    """Write (bin, count, normalized) rows; normalized column is a float."""
    w = csv.writer(f)
    w.writerow(["bin", "count", "normalized"])
    for key, count in rows:
        w.writerow([key, count, float(Fraction(count, total))])
