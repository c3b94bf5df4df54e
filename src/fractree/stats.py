"""Statistics of the negative sector under the uniform measure.

Every element of the negative sector is a decorated tree, so drawing one
uniformly at random turns tree functionals into random variables: the
number of integration edges Q, the noise count P, the homogeneity, vertex
degrees, height, diameter.  This module computes their exact empirical
distributions, together with four averaged graph measures and least-squares
fits of the divergence laws near the subcriticality boundary.

Every tree measure is built up from marks of subtrees (vertex count, sums of
subtree sizes and of their squares, height and the vertices at that depth,
diameter, degree vectors); an element combines the marks below its root,
betweenness through the Wiener index.  The elements' marks are summed into
two tables: the additive ones (count, S1, S2, degree vectors) per class
(p, q, s), and the count and periphery per (p, q, s, height, diameter).
Every report field is a closed form of the two (:func:`_report`).  They
come from one of two places:

* :func:`stat_report` folds the elements of a built model space.  Symbols
  are interned, so the elements share their subtrees I(tau), and each
  distinct subtree gets its marks once per report.  A truncated build is
  reported this way.
* :func:`census_report` takes them from ``census.marked_census``, which
  counts the certified sector class by class with the marks summed, so no
  symbol is built.  On a certified build the tables are equal.

Counts and histogram masses are exact (integers and fractions); only the
PageRank mean (the float of an exact fraction), the gap-scaled moments and
the fitted coefficients are floating point.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import add
from typing import IO, Iterable, Optional

from .builder import ModelSpace, negative_sector
from .census import _plus, marked_census
from .counting import LAMBDA2, beta_N, hF_bounds
from .params import Homogeneity, Parameters, RationalLike, _frac, _fstr, rho_c, scaled_degree
from .symbols import INT, Symbol, iter_vertices
# not called here: perfbench/spans.py counts bare-tree rebuilds at fractree.stats.bare_tree
from .symbols import bare_tree  # noqa: F401

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
    "census_report",
    "report_json_dict",
    "write_histogram_csv",
]


# ---------------------------------------------------------------------------
# per-tree records


@dataclass(frozen=True)
class TreeRecord:
    """The measures of one sector element, the ones the report sums.

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


class _Overflow(Exception):
    """A vertex of degree above N + 1, met somewhere in a fold."""


def _overflow(sym: Symbol, N: int) -> ValueError:
    """The error naming the first vertex of ``sym``, breadth first, of degree
    above N + 1; the noise leaves the walk also visits have degree 1."""
    degrees = (len(node.children) + (parent >= 0) for _, parent, _, node in iter_vertices(sym))
    deg = next(deg for deg in degrees if deg > N + 1)
    return ValueError(f"vertex of degree {deg} exceeds N+1 = {N + 1}")


def _fold(node: Symbol, up: int, N: int, memo: dict) -> tuple:
    """The marks of ``node`` from those of the subtrees below its INT edges.

    ``up`` is 1 for a subtree hung below an INT edge and 0 for a root.  The
    marks are (s, S1, S2, height, periphery, diameter, bare, decorated): s
    bare vertices, S1 and S2 the sums of size_v and size_v**2 over them
    (size_v the vertex count of v's subtree), the height and the number of
    vertices at that depth, the diameter, and the bare and decorated degree
    vectors, which count the up edge.  Each noise edge adds one to its
    vertex's decorated degree, and its leaf is a decorated vertex of
    degree 1.  The fold recurses once per level, as ``render`` does.
    """
    kids = []
    for tag, child in node.children:
        if tag == INT:
            marks = memo.get(child)
            if marks is None:
                marks = memo[child] = _fold(child, 1, N, memo)
            kids.append(marks)
    m = len(kids)
    noises = len(node.children) - m
    deg = m + noises + up
    if deg > N + 1:
        raise _Overflow
    bare, decorated = [0] * (N + 2), [0] * (N + 2)
    bare[m + up] = 1
    decorated[deg] = 1
    decorated[1] += noises
    s, s1, s2, top, peri, diam, second = 1, 0, 0, 0, 1, 0, 0
    for ks, k1, k2, kh, kp, kd, kb, kdec in kids:
        s += ks
        s1 += k1
        s2 += k2
        kh += 1
        if kh > top:
            top, second, peri = kh, top, kp
        elif kh == top:
            second, peri = kh, peri + kp
        elif kh > second:
            second = kh
        if kd > diam:
            diam = kd
        bare = list(map(add, bare, kb))
        decorated = list(map(add, decorated, kdec))
    if top + second > diam:
        diam = top + second
    return s, s1 + s, s2 + s * s, top, peri, diam, bare, decorated


def _marks(sym: Symbol, N: int, memo: dict) -> tuple:
    """The :func:`_fold` of the root ``sym``; a vertex of degree above N + 1
    raises the ValueError that names the first one, breadth first.

    ``memo`` maps each subtree below an INT edge to its marks; pass one dict
    to several calls with the same ``N`` to fold each subtree they share
    once.  A call that raises leaves only finished marks in it.
    """
    try:
        return _fold(sym, 0, N, memo)
    except _Overflow:
        raise _overflow(sym, N) from None


def _element(sym: Symbol, N: int, memo: dict) -> tuple[int, int, tuple, tuple, int, int]:
    """The tree fields of a TreeRecord, from the :func:`_marks` of ``sym``.

    A pair of vertices at distance k passes through k - 1 others, so the
    betweenness total is the Wiener index (the sum of all pair distances)
    less the n(n - 1)/2 pairs.  Each edge above a vertex v joins size_v
    vertices to n - size_v, so the Wiener index is the sum over v other than
    the root of size_v (n - size_v), which is n S1 - S2.
    """
    n, s1, s2, top, peri, diam, bare, decorated = _marks(sym, N, memo)
    pairs = n * s1 - s2 - n * (n - 1) // 2
    return top, diam, tuple(bare), tuple(decorated), pairs, peri


def tree_records(ms: ModelSpace) -> tuple[TreeRecord, ...]:
    """One record per negative-sector element, in canonical sector order."""
    N, rho = ms.params.N, ms.params.rho
    memo: dict = {}
    return tuple(
        TreeRecord(sym, sym.p, sym.q, scaled_degree(sym.kvec, rho), hom, *_element(sym, N, memo))
        for sym, hom in negative_sector(ms)
    )


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


def _mean(terms: Iterable[tuple[int, int]], total: int) -> Fraction:
    """The sum of c/n over the (c, n) pairs, divided by ``total``: one
    integer numerator over the common denominator lcm(n) * total."""
    terms = list(terms)
    den = math.lcm(*(n for _, n in terms))
    return Fraction(sum(c * (den // n) for c, n in terms), den * total)


def _degrees(sums: dict[int, list[int]], total: int, bare: bool) -> DegreeDistribution:
    """From the degree vectors summed per vertex count n; each per-tree mean
    is one integer numerator over lcm(n) * total, as in :func:`_mean`."""
    pooled = [sum(col) for col in zip(*sums.values())]
    pooled[0] += 1  # the unit
    vertices = sum(pooled)
    den = math.lcm(*sums)
    scaled = [[x * (den // n) for x in s] for n, s in sums.items()]
    return DegreeDistribution(
        bare=bare,
        pooled_counts=tuple(pooled),
        pooled=tuple(Fraction(c, vertices) for c in pooled),
        per_tree_mean=tuple(Fraction(sum(col), den * total) for col in zip(*scaled)),
    )


# ---------------------------------------------------------------------------
# height and diameter


@dataclass(frozen=True)
class HeightDiameter:
    """Mean bare-tree height and diameter with boundary-scaled moments.

    The scaled first moments multiply the means by the square root of the
    gap ``Parameters.rho_gap`` (rho - rho_c for white noise); as rho
    approaches the boundary they are expected to level off near the
    reference constants 4 sqrt(pi d) / (3 lambda2) for the height and
    16 sqrt(pi d) / (9 lambda2) for the diameter.  The scaled second moments
    multiply by the gap itself.
    """

    mean_height: Fraction
    mean_diameter: Fraction
    scaled_mean_height: float
    scaled_mean_diameter: float
    scaled_sq_height: float
    scaled_sq_diameter: float
    height_reference: float
    diameter_reference: float


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
    at least four distinct subcritical rho values are required, and a rho
    given twice raises ValueError naming it rather than weighing twice.
    """
    rows = []
    for rho, h, c in points:
        rows.append((_frac(rho), int(h), int(c)))
    rows.sort(reverse=True)
    rhos = tuple(r for r, _, _ in rows)
    for r, after in zip(rhos, rhos[1:]):
        if r == after:
            raise ValueError(f"scaling fit: rho {_fstr(r)} appears more than once")
    if len(rhos) < 4:
        raise ValueError("scaling fit needs at least 4 distinct grid points")
    rc = rho_c(N, d)
    gaps = [r - rc for r in rhos]
    if min(gaps) <= 0:
        raise ValueError("scaling fit needs strictly subcritical grid points")
    if any(h <= 0 or c <= 0 for _, h, c in rows):
        raise ValueError("counts must be positive")
    # imported here, so that only a fit pays for loading numpy
    import numpy as np

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
    lo, hi = (float(bound * (mid - rc)) for bound in hF_bounds(N, d, mid))
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
    """All per-build statistics in one immutable bundle: counts, no per-tree data."""

    sizes: SizeDistribution
    homogeneity_values: tuple[tuple, ...]
    homogeneity_pairs: tuple[tuple, ...]
    degrees_decorated: DegreeDistribution
    degrees_bare: DegreeDistribution
    heights: HeightDiameter
    measures: GraphMeasures
    certified: bool


def stat_report(ms: ModelSpace) -> StatReport:
    """Every statistic of the negative sector, in one pass over its elements.

    Each element's marks, folded from those of its subtrees with one memo
    for the whole report, add to the entry of its (p, q, s) and of its
    (p, q, s, height, diameter) in two tables of the form
    ``census.marked_census`` returns, of which :func:`_report` makes every
    field.
    """
    N = ms.params.N
    L, _, R = ms.params.units
    classes: dict[tuple, list[int]] = {}
    shapes: dict[tuple, list[int]] = {}
    memo: dict = {}
    for sym, _ in negative_sector(ms):
        _, s1, s2, height, peri, diameter, bare, decorated = _marks(sym, N, memo)
        k = sym.kvec
        key = (sym.p, sym.q, k[0] * R + sum(k[1:]) * L if k else 0)
        _plus(classes, key, [1, s1, s2, *bare, *decorated])
        _plus(shapes, (*key, height, diameter), [1, peri])
    return _report(ms.params, classes.items(), shapes.items(), ms.complete)


def census_report(params: Parameters, tables: Optional[tuple] = None) -> StatReport:
    """The :func:`stat_report` of the certified build at ``params``, from
    the marked census alone: no symbol is built.

    ``tables`` is the pair (classes, shapes) of ``marked_census(params)``,
    computed when not given.  Raises SubcriticalityError, as
    :func:`builder.build` does, for parameters without a finite negative
    sector.
    """
    if tables is None:
        tables = marked_census(params)[1:]
    classes, shapes = tables
    return _report(params, classes, shapes, True)


def _report(
    params: Parameters, classes: Iterable[tuple], shapes: Iterable[tuple], certified: bool
) -> StatReport:
    """Every report field, in closed form from the two marks tables.

    ``classes`` holds ((p, q, s), entry) pairs, s in the units of
    ``Parameters.units``, each entry the sums over the elements of that
    class of (count, S1, S2, bare degrees 0..N+1, decorated degrees
    0..N+1); ``shapes`` holds ((p, q, s, height, diameter), (count,
    periphery)) pairs, as ``census.marked_census`` returns them.  The
    classes sum into counts per q and per homogeneity u / L + b kappa,
    keyed by its integers (u, b); bare degree vectors and betweenness per
    vertex count n = q + 1, where a tree adds n S1 - S2 - n(n - 1)/2 as in
    :func:`_element`; and decorated degree vectors per p + q + 1.  The
    shapes sum into totals of height, height squared, diameter, diameter
    squared and periphery.
    """
    N, b0 = params.N, params.alpha0.b
    L, A, R = params.units
    E = 3 + N + 2  # where the decorated vector starts, after the bare one
    sizes: Counter[int] = Counter()
    homs: Counter[tuple[int, int]] = Counter()
    bare: defaultdict[int, list[int]] = defaultdict(lambda: [0] * (N + 2))
    decorated: defaultdict[int, list[int]] = defaultdict(lambda: [0] * (N + 2))
    between: Counter[int] = Counter()
    for (p, q, s), entry in classes:
        c, s1, s2 = entry[:3]
        n = q + 1
        sizes[q] += c
        homs[p * A + q * R + s, p * b0] += c
        bare[n] = list(map(add, bare[n], entry[3:E]))
        decorated[n + p] = list(map(add, decorated[n + p], entry[E:]))
        between[n] += n * s1 - s2 - c * n * (n - 1) // 2
    h1 = h2 = d1 = d2 = periphery = 0
    for (_p, _q, _s, height, diameter), (c, peri) in shapes:
        h1 += c * height
        h2 += c * height * height
        d1 += c * diameter
        d2 += c * diameter * diameter
        periphery += peri
    total = sum(sizes.values())
    if not total:
        raise ValueError("negative sector is empty; nothing to aggregate")

    q_star, gap = params.q_star, float(params.rho_gap)
    counts = tuple(sorted(sizes.items()))
    mean = Fraction(sum(q * c for q, c in counts), total) / q_star
    pairs = sorted(homs.items())  # (u, b) orders as u / L + b kappa does
    values: Counter[int] = Counter()
    for (u, _b), c in pairs:
        values[u] += c
    mh, md = Fraction(h1, total), Fraction(d1, total)
    density = _mean(((c, q + 1) for q, c in counts if q), total)
    return StatReport(
        sizes=SizeDistribution(
            counts=counts,
            pmf=tuple((q, Fraction(c, total)) for q, c in counts),
            off_grid=Fraction(sum(c for q, c in counts if q % N), total),
            mean_ratio=mean,
            var_ratio=Fraction(sum(q * q * c for q, c in counts), total) / q_star**2 - mean * mean,
            q_star=q_star,
            certified=certified,
        ),
        homogeneity_values=tuple((Fraction(u, L), c) for u, c in sorted(values.items())),
        homogeneity_pairs=tuple(((Fraction(u, L), b), c) for (u, b), c in pairs),
        degrees_decorated=_degrees(decorated, total, bare=False),
        degrees_bare=_degrees(bare, total, bare=True),
        heights=HeightDiameter(
            mean_height=mh,
            mean_diameter=md,
            scaled_mean_height=math.sqrt(gap) * float(mh),
            scaled_mean_diameter=math.sqrt(gap) * float(md),
            scaled_sq_height=gap * h2 / total,
            scaled_sq_diameter=gap * d2 / total,
            height_reference=4.0 * math.sqrt(math.pi * params.d) / (3.0 * LAMBDA2),
            diameter_reference=16.0 * math.sqrt(math.pi * params.d) / (9.0 * LAMBDA2),
        ),
        measures=GraphMeasures(
            density=density,
            betweenness=_mean(((b, n) for n, b in between.items()), total),
            pagerank=float(density + Fraction(sizes[0], total)),
            periphery=Fraction(periphery, total),
        ),
        certified=certified,
    )


def size_distribution(ms: ModelSpace) -> SizeDistribution:
    """The ``sizes`` field of :func:`stat_report`."""
    return stat_report(ms).sizes


def homogeneity_histogram(ms: ModelSpace, drop_kappa: bool = True) -> tuple[tuple, ...]:
    """Occupation counts of the homogeneity values, bins sorted ascending.

    With ``drop_kappa`` the arbitrarily small corrections are discarded and
    bins are keyed by the rational part alone; otherwise each distinct
    (rational, correction-multiplier) pair gets its own bin, so the number
    of bins is exactly the count of distinct homogeneities in the sector.
    """
    rep = stat_report(ms)
    return rep.homogeneity_values if drop_kappa else rep.homogeneity_pairs


def degree_distribution(ms: ModelSpace, bare: bool = False) -> DegreeDistribution:
    """The ``degrees_bare`` or ``degrees_decorated`` field of :func:`stat_report`."""
    rep = stat_report(ms)
    return rep.degrees_bare if bare else rep.degrees_decorated


def height_diameter(ms: ModelSpace) -> HeightDiameter:
    """The ``heights`` field of :func:`stat_report`."""
    return stat_report(ms).heights


def graph_measures(ms: ModelSpace) -> GraphMeasures:
    """The ``measures`` field of :func:`stat_report`."""
    return stat_report(ms).measures


def _json_value(value):
    """``value`` as a JSON document holds it: a fraction as "num/den" text,
    a tuple as a list."""
    if isinstance(value, Fraction):
        return _fstr(value)
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return value


def _json_fields(obj, *omit: str) -> dict:
    """The fields of the dataclass ``obj`` but ``omit``, by name, as
    :func:`_json_value` writes them."""
    return {f.name: _json_value(getattr(obj, f.name)) for f in fields(obj) if f.name not in omit}


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
            "decorated": _json_fields(rep.degrees_decorated, "bare"),
            "bare": _json_fields(rep.degrees_bare, "bare"),
        },
        "height_diameter": _json_fields(rep.heights),
        "graph_measures": _json_fields(rep.measures),
    }


def write_histogram_csv(f: IO[str], rows: Iterable[tuple], total: int) -> None:
    """Write (bin, count, normalized) rows; normalized column is a float."""
    w = csv.writer(f)
    w.writerow(["bin", "count", "normalized"])
    for key, count in rows:
        w.writerow([key, count, count / total])
