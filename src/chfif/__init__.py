"""Coalescence hidden-variable fractal interpolation.

Builds interpolants whose graph is the attractor of a contracting system
with one hidden coordinate, evaluates them exactly or iteratively,
approximates them through integral moments, classifies their Holder
smoothness regime, and bounds/estimates the fractal dimension of the graph.
"""

from .attractor import (
    IterationResult,
    SampledGraph,
    apply_operator,
    chaos_game,
    exact_blocks,
    exact_residuals,
    fixed_point_iterate,
    sample_exact,
)
from .dimension import (
    DimensionOneResult,
    EmpiricalDimension,
    TheoreticalBounds,
    box_count,
    dimension_one_predicate,
    dimension_report,
    estimate_dimension,
    theoretical_bounds,
)
from .exceptions import (
    ChfifError,
    ConfigError,
    CurveOverflowError,
    DepthLimitError,
    InsufficientScalesError,
    NotConvergedError,
    SamplingTooCoarseError,
    ValidationError,
)
from .geometry import (
    ChfifModel,
    InterpolationProblem,
    IntervalParams,
    MapFunction,
    PowerTerm,
    Violation,
    is_equidistant,
    is_self_affine_config,
    self_affine_discrepancies,
    solve_model,
    validate,
)
from .moments import (
    MomentTable,
    build_moment_table,
    convergence_profile,
    whole_interval_integrals,
)
from .smoothness import (
    HolderEstimate,
    SmoothnessReport,
    classify,
    empirical_holder,
    max_oscillation,
    regime_state,
    remark_special_case,
)

__version__ = "0.1.0"
