"""Link-level simulator for multiplexed memory-assisted entanglement swapping.

Three mutually validating layers: closed-form expressions for retrieval,
cross-correlation, visibility, suppression and concurrence (analytic);
a truncated number-state engine that builds the heralded four-memory state
in closed form and pulls every later click back onto the memories (fock);
and a seeded Monte-Carlo of the whole multiplexed protocol, batched over
counter-based random streams (protocol).  The cli module exposes them as
commands.
"""

from ._version import __version__
from .params import (
    CONFIG_KEYS,
    ExperimentParams,
    ParamError,
    experiment_defaults,
    load_params,
    parse_config,
    serialize_config,
    with_overrides,
)
from .analytic import (
    ClampedVisibilityWarning,
    ConcurrenceInputs,
    CorrelationPair,
    MultiplexedRate,
    coincidence_probability,
    concurrence,
    correlation_pair,
    cross_correlation,
    margin,
    multiplexed_eg_probability,
    prob_antistokes,
    retrieval_efficiency,
    single_mode_herald_probability,
    suppression,
    swap_pair_probability,
    threshold_g,
    visibility,
    zero_crossing_t2,
)
from .fock import (
    DimensionError,
    FockState,
    ModeRegister,
    SwapReport,
    default_theta_grid,
    heralded_spin_state,
    readout_joints,
    swap_pipeline,
    swap_stage,
    wootters_concurrence,
)
from .protocol import (
    ConditionalTables,
    SwapStatistics,
    conditional_tables,
    run_batch,
    sweep,
)
from .series import CurveSeries, read_csv, read_json, write_csv, write_json

__all__ = [
    "__version__",
    "CONFIG_KEYS",
    "ExperimentParams",
    "ParamError",
    "experiment_defaults",
    "load_params",
    "parse_config",
    "serialize_config",
    "with_overrides",
    "ClampedVisibilityWarning",
    "ConcurrenceInputs",
    "CorrelationPair",
    "MultiplexedRate",
    "coincidence_probability",
    "concurrence",
    "correlation_pair",
    "cross_correlation",
    "margin",
    "multiplexed_eg_probability",
    "prob_antistokes",
    "retrieval_efficiency",
    "single_mode_herald_probability",
    "suppression",
    "swap_pair_probability",
    "threshold_g",
    "visibility",
    "zero_crossing_t2",
    "DimensionError",
    "FockState",
    "ModeRegister",
    "SwapReport",
    "default_theta_grid",
    "heralded_spin_state",
    "readout_joints",
    "swap_pipeline",
    "swap_stage",
    "wootters_concurrence",
    "ConditionalTables",
    "SwapStatistics",
    "conditional_tables",
    "run_batch",
    "sweep",
    "CurveSeries",
    "read_csv",
    "read_json",
    "write_csv",
    "write_json",
]
