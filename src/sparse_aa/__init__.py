"""Sparse archetypal analysis toolkit.

Distance primitives over convex hulls, a block proximal-gradient solver
for sparse nonnegative factorization with archetypal regularization, a
cut-based mixed-integer initializer, support-swap local search, and an
evaluation suite for the associated robustness bounds.

Result types such as ``SolveTrace``, ``OaResult`` or ``CutSet`` are
importable from their modules.
"""

from .core import (
    Factorization,
    InvalidInputError,
    SaaConfig,
    nnz,
    read_matrix_csv,
    spectral_norm,
    support,
)
from .evaluation import (
    appendixB_fixture,
    cluster_metrics,
    example1_fixture,
    penalized_constants,
    robustness_report,
    synth_instance,
    robustness_constants,
)
from .geometry import (
    archetype_distance,
    archetype_distance_l1,
    archetype_spread,
    hull_distance,
    hull_distance_rows,
    nearest_row_assignment,
    set_hull_distance,
    set_hull_distance_l1,
)
from .local_search import (
    local_search,
    optimal_t,
    select_entering,
    select_leaving,
    swap_refit,
)
from .mip_init import (
    BranchAndBound,
    Cut,
    continuation,
    eval_F,
    milp_min_cuts,
    norm_bound_b,
    outer_approximation,
    subgradient_F,
)
from .projections import project_simplex_rows, project_sparse
from .solver import objective, solve, stationarity_residual

__version__ = "0.1.0"

__all__ = [
    "BranchAndBound",
    "Cut",
    "Factorization",
    "InvalidInputError",
    "SaaConfig",
    "appendixB_fixture",
    "archetype_distance",
    "archetype_distance_l1",
    "archetype_spread",
    "cluster_metrics",
    "continuation",
    "eval_F",
    "example1_fixture",
    "hull_distance",
    "hull_distance_rows",
    "local_search",
    "milp_min_cuts",
    "nearest_row_assignment",
    "nnz",
    "norm_bound_b",
    "objective",
    "optimal_t",
    "outer_approximation",
    "project_simplex_rows",
    "project_sparse",
    "penalized_constants",
    "read_matrix_csv",
    "robustness_report",
    "select_entering",
    "select_leaving",
    "set_hull_distance",
    "set_hull_distance_l1",
    "solve",
    "spectral_norm",
    "stationarity_residual",
    "subgradient_F",
    "support",
    "swap_refit",
    "synth_instance",
    "robustness_constants",
]
