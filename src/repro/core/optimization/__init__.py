"""Multi-objective parameter optimization (the paper's Sec. VIII).

Model-driven evaluation of configurations, exhaustive grid search, Pareto
front extraction, the epsilon-constraint MOP solver, the single-parameter
literature baselines, and the Fig. 1 / Table IV trade-off harness.
"""

from .baselines import (
    TuningStrategy,
    joint_tuning,
    literature_baselines,
    payload_tuning_baseline,
    power_tuning_baseline,
    retransmission_tuning_baseline,
)
from .epsilon_constraint import (
    Constraint,
    default_bounds_for,
    feasible_mask,
    infeasible_error,
    masked_argmin_rows,
    solve_epsilon_constraint,
    sweep_epsilon,
)
from .evaluate import (
    OBJECTIVE_PLANES,
    RHO_QUEUE_CLIP,
    ConfigEvaluation,
    ModelEvaluator,
    check_objectives,
    objective_from_planes,
    snr_map_from_environment,
    snr_map_from_reference,
)
from .grid import TuningGrid, best_by, evaluate_grid, evaluate_grid_scalar
from .kernels import (
    GridEvaluation,
    evaluate_columns,
    evaluate_grid_columns,
    evaluate_metric_planes,
    grid_knob_columns,
    knob_config,
    queue_composition_columns,
    queue_loss_columns,
)
from .pareto import dominates, knee_point, nondominated_mask, pareto_front
from .policy import (
    DEFAULT_SNR_QUANTUM_DB,
    DEFAULT_SNR_RANGE_DB,
    REFERENCE_LEVEL,
    PolicyTable,
    RowAnswers,
    level_offset_lut_db,
    quantize_snr_db,
    solve_rows,
)
from .sensitivity import (
    ParameterSensitivity,
    analyze_sensitivity,
    dominant_parameter,
    rank_parameters,
)
from .weighted import (
    solve_weighted_sum,
    sweep_weights,
    weighted_points_on_pareto_front,
)
from .tradeoff import (
    TradeoffPoint,
    case_study_base_config,
    case_study_environment,
    case_study_snr_map,
    joint_wins,
    paper_table_iv_points,
    run_case_study_models,
    run_case_study_simulation,
)

__all__ = [
    "DEFAULT_SNR_QUANTUM_DB",
    "DEFAULT_SNR_RANGE_DB",
    "OBJECTIVE_PLANES",
    "REFERENCE_LEVEL",
    "RHO_QUEUE_CLIP",
    "ConfigEvaluation",
    "Constraint",
    "GridEvaluation",
    "ModelEvaluator",
    "PolicyTable",
    "RowAnswers",
    "check_objectives",
    "feasible_mask",
    "knob_config",
    "level_offset_lut_db",
    "masked_argmin_rows",
    "objective_from_planes",
    "quantize_snr_db",
    "solve_rows",
    "ParameterSensitivity",
    "TradeoffPoint",
    "TuningGrid",
    "TuningStrategy",
    "best_by",
    "evaluate_columns",
    "evaluate_grid_columns",
    "evaluate_grid_scalar",
    "evaluate_metric_planes",
    "grid_knob_columns",
    "queue_composition_columns",
    "queue_loss_columns",
    "infeasible_error",
    "nondominated_mask",
    "case_study_base_config",
    "case_study_environment",
    "case_study_snr_map",
    "default_bounds_for",
    "dominates",
    "evaluate_grid",
    "joint_tuning",
    "joint_wins",
    "knee_point",
    "literature_baselines",
    "analyze_sensitivity",
    "dominant_parameter",
    "paper_table_iv_points",
    "pareto_front",
    "rank_parameters",
    "payload_tuning_baseline",
    "power_tuning_baseline",
    "retransmission_tuning_baseline",
    "run_case_study_models",
    "run_case_study_simulation",
    "snr_map_from_environment",
    "snr_map_from_reference",
    "solve_epsilon_constraint",
    "solve_weighted_sum",
    "sweep_epsilon",
    "sweep_weights",
    "weighted_points_on_pareto_front",
]
