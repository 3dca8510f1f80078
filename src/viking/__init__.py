"""Adaptive state-space forecasting with tracked noise variances.

A variational filter ("viking") for linear-gaussian state-space models whose
observation and state noise variances are unknown and possibly time-varying,
plus a standard Kalman baseline and a seeded synthetic-experiment harness.
"""

from .datagen import (
    Dataset,
    DesignKind,
    Truth,
    default_resonator_sigma2,
    gen_design,
    gen_misspecified,
    gen_resonator,
    gen_wellspecified,
    read_dataset_csv,
    resonator_transition,
    write_dataset_csv,
)
from .harness import (
    ExperimentConfig,
    ExperimentKind,
    ExperimentSummary,
    InitOverrides,
    Method,
    QShape,
    Setting,
    SummaryRow,
    grid_points,
    make_dataset,
    mse_second_half,
    parse_config_file,
    run_cell,
    run_experiment,
    sweep_nmc,
)
from .kalman import GaussianState, kalman_run, kalman_step, rank_one_update
from .linalg import (
    SingularMatrixError,
    reset_spd_inversion_count,
    spd_inv,
    spd_inversion_count,
)
from .records import StepRecord, Trace, read_trace_csv, write_trace_csv
from .transforms import (
    NoiseTransform,
    TransformKind,
    apply_f,
    phi,
    phi_d1,
    phi_d2,
    psi_gradient,
    psi_gradient_hessian_bound,
    psi_hessian_bound,
    psi_value,
)
from .vb import (
    VarianceBeliefs,
    VikingHyper,
    VikingState,
    default_initial_state,
    estimate_precision,
    forecast,
    sample_noise_latents,
    state_from_checkpoint,
    state_to_checkpoint,
    update_a,
    update_b,
    update_s,
    update_state_moments,
    viking_run,
    viking_step,
)

__all__ = [name for name in dir() if not name.startswith("_")]
