"""cavreg: stochastic simulation of site-selective cavity readout and
repeated classical error correction for a tweezer atom register."""

__version__ = "0.1.0"

from .errors import ConfigurationError, LoadFailure
from .register import (
    F1,
    F2,
    HyperfineState,
    IdleErrorModel,
    Register,
    combined_idle_lifetime,
    idle,
    prepare,
    uniform_register,
)
from .photons import (
    CavityParams,
    DetectorModel,
    IntervalOutcome,
    PhotonModel,
    adaptive_reduction_factors,
    cooperativity,
    sample_adaptive_interval,
    sample_full_interval,
)
from .readout import (
    HidingModel,
    MeasurementErrorTable,
    ProbeConfig,
    SiteMeasurement,
    hidden_depump_probability,
    light_shift_profile,
    measure_site,
    sequential_array_readout,
)
from .search import (
    GroupCheckNoise,
    Placement,
    SearchProblem,
    SearchResult,
    Strategy,
    expected_cost,
    group_check,
    run_search,
)
from .repcode import (
    CodeConfig,
    LifetimeResult,
    RoundRecord,
    VoteOutcome,
    encode,
    fit_error_exponent,
    logical_lifetime,
    majority_error_probability,
    run_round,
    simulate_code_abstract,
    simulate_idling_bit,
)
from .fitting import LinearFit, SaturatingExpFit, fit_linear, fit_saturating_exponential
from .harness import (
    Estimate,
    ExperimentResult,
    ExperimentSpec,
    run,
    write_metadata,
    write_result_csv,
)
