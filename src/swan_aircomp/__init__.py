"""Over-the-air computation with segmented-waveguide pinching-antenna arrays.

The package models K users whose unit-variance symbols add up over the air at
a base station fed by a segmented dielectric waveguide.  Pinching antennas
(PAs) can be activated anywhere along the segments; placement, combining
architecture, and per-segment phase shifts determine the aggregation MSE.
Optimizers are provided for segment selection (SS), phase-free combining
(SA1), phase-shifted combining (SA2), and a conventional single-waveguide
baseline (PASS), together with a deterministic Monte-Carlo harness.
"""

__version__ = "0.1.0"

from .audit import (
    MseReport,
    PhaseUpdateIntermediates,
    empirical_mse,
    freespace_gain,
    inwaveguide_gain,
    mse_given_scaling,
    mse_min,
    optimal_scaling,
    phase_objective,
    phase_update_closed,
    sa1_position_update,
    ss_exhaustive,
    ss_mse_objective,
    watts_to_dbm,
)
from .channel import (
    RadioConfig,
    SPEED_OF_LIGHT,
    dbm_to_watts,
    eff_channel,
    segment_gain_matrix,
)
from .geometry import (
    Placement,
    Scene,
    ServiceRegion,
    UserDrop,
    Violation,
    WaveguideLayout,
    baseline_layout,
    baseline_scene,
    build_layout,
    feasible_grid,
    grid_points,
    sample_users,
    validate_placement,
)
from .harness import (
    AggregateRow,
    ConfigError,
    ExperimentSpec,
    ResultRow,
    aggregate,
    emit_csv,
    emit_plot,
    execute,
    parse_config,
    run_experiment,
)
from .optimizers import (
    RunRecord,
    evaluate_placement,
    midpoint_init,
    pass_baseline,
    random_init,
    sa1_ao,
    sa1_joint_exhaustive,
    sa2_ao,
    sa2_joint_exhaustive,
    ss_two_stage,
)
from .rng import derive_seed, philox_stream
