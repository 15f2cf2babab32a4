"""Signed measures on the half-line: transforms, convergence verdicts,
and regular-variation asymptotics.

The core object is SignedMeasure: finitely many atoms plus density
segments from a polynomial-exponential-trigonometric grammar, closed
under tilting, rescaling and tail integration, with closed-form interval
masses and Laplace transforms.  On top of it sit sign decomposition,
total-variation transforms, a battery of sequence-convergence tests with
three-valued verdicts, regular-variation index estimation with both
conversion directions, and a scenario runner (see the `tauber` CLI).
"""

__version__ = "0.1.0"

from .convergence import (
    MeasureSequence,
    VerdictReport,
    bounded_laplace_test,
    classify,
    continuity_backward,
    continuity_forward,
    continuity_point_test,
    distribution_convergence_test,
    hat_integral,
    index_grid,
    laplace_convergence_test,
    part_domination_test,
    right_equicontinuity_test,
    vague_test,
)
from .decomposition import (
    PeriodicTail,
    SignRun,
    certified_nonnegative,
    eventual_sign,
    jordan,
    periodic_tail_structure,
    sign_runs,
    total_variation,
)
from .errors import (
    DivergentTransform,
    MeasureError,
    NonIntegrableTail,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    SignChangeIsolationFailure,
    SignChangeNearInfinity,
    SignChangeNearZero,
    UnrepresentableDensity,
    ZeroTransform,
)
from .measures import Atom, DensitySegment, Expression, SignedMeasure, Term
from .scenarios import (
    CHECK_NAMES,
    RunReport,
    Scenario,
    emit,
    load_scenario,
    run_scenario,
)
from .tauberian import (
    RVEstimate,
    asymptotic_ratio,
    gamma_limit_measure,
    karamata_pipeline,
    rescaled_family,
    rv_index_from_distribution,
    rv_index_from_transform,
    rv_report,
    sign_ratio_condition,
    slow_variation_diagnostic,
    window_increment_condition,
)
from .transforms import (
    TransformValue,
    abs_transform,
    envelope_transform,
    laplace_transform,
    tilt_identity_residual,
)

__all__ = [
    "__version__",
    # core types
    "Atom", "Term", "Expression", "DensitySegment", "SignedMeasure",
    # errors
    "MeasureError", "UnrepresentableDensity", "SignChangeIsolationFailure",
    "DivergentTransform", "NonIntegrableTail", "ZeroTransform",
    "SignChangeNearZero", "SignChangeNearInfinity", "ScenarioError",
    "ScenarioParseError", "ScenarioValidationError",
    # decomposition
    "SignRun", "PeriodicTail", "eventual_sign", "sign_runs", "jordan",
    "total_variation", "certified_nonnegative", "periodic_tail_structure",
    # transforms
    "TransformValue", "laplace_transform", "abs_transform",
    "envelope_transform", "tilt_identity_residual",
    # convergence
    "MeasureSequence", "VerdictReport", "index_grid",
    "classify", "hat_integral", "vague_test", "laplace_convergence_test",
    "bounded_laplace_test", "right_equicontinuity_test",
    "distribution_convergence_test", "continuity_point_test",
    "part_domination_test", "continuity_forward", "continuity_backward",
    # regular variation
    "RVEstimate", "rv_index_from_transform",
    "rv_index_from_distribution", "rv_report", "sign_ratio_condition",
    "window_increment_condition", "asymptotic_ratio", "gamma_limit_measure",
    "rescaled_family", "slow_variation_diagnostic", "karamata_pipeline",
    # scenarios
    "Scenario", "RunReport", "load_scenario", "run_scenario", "emit",
    "CHECK_NAMES",
]
