"""Model-space calculator for space-fractional Allen-Cahn equations.

The library builds, counts and analyzes the finite negative sector of the
symbol space attached to the equation

    du/dt = -(-Laplace)^(rho/2) u + u - u^N + noise

on the d-dimensional torus, for any subcritical triple (N, d, rho).  Exact
rational arithmetic throughout; homogeneities carry their kappa coefficient
symbolically.
"""

from .params import (
    ExplosionError,
    Homogeneity,
    Parameters,
    Rational,
    SubcriticalityError,
    alpha0_white_noise,
    is_locally_subcritical,
    rho_c,
    scaled_degree,
)
from .symbols import (
    INT,
    XI,
    Symbol,
    bare_tree,
    decorate,
    homogeneity_of,
    integrate,
    iter_vertices,
    monomial,
    multiply,
    one,
    parse_symbol,
    product,
    render,
    to_dot,
    type_of,
    xi,
)
from .trees import (
    PruneReport,
    count_bounded,
    count_bounded_by_leaves,
    count_regular,
    enumerate_bare,
    verify_prune_structure,
    wedderburn,
)
from .counting import (
    ALPHA_N,
    DioSystem,
    LatticeBounds,
    beta_N,
    d0_contains,
    dio_count,
    dio_solutions,
    h0_bounds,
    hF_bounds,
    lattice_bounds,
    p_of_q,
)
from .builder import (
    BuildConfig,
    ModelSpace,
    build,
    c_F,
    completeness_threshold,
    from_json_dict,
    h0_F,
    h_F,
    load_json,
    negative_sector,
    save_json,
    to_json_dict,
)
from .census import Census
from .stats import (
    DegreeDistribution,
    GraphMeasures,
    HeightDiameter,
    ScalingFit,
    SizeDistribution,
    StatReport,
    TreeRecord,
    degree_distribution,
    graph_measures,
    height_diameter,
    homogeneity_histogram,
    scaling_fit,
    size_distribution,
    stat_report,
    tree_records,
)

__version__ = "0.1.0"
