"""Quasi-Monte Carlo toolkit for quantile and expected-shortfall estimation.

Digital (t,m,d)-nets and Sobol' sequences, Owen scrambling and digital
shifts, empirical-CDF risk estimators, loss models, and a replicated
convergence-study harness with a command-line front end.
"""

from .errors import ConfigError, PrecisionError, WorkLimitError
from .lowdisc import (
    IntervalWitness,
    NetCheckResult,
    NetParams,
    PointSet,
    find_t,
    is_net,
    radical_inverse,
    sobol_points,
    star_discrepancy_1d,
    van_der_corput_points,
)
from .randomize import digital_shift, owen_scramble
from .estimators import (
    SampleBatch,
    empirical_cdf,
    k_hat,
    order_index,
    quantile_estimate,
    shortfall_estimate,
)
from .models import (
    CLAMP_EPSILON,
    DEFAULT_SAN_PATHS,
    DEFAULT_SAN_RATES,
    ExpModel,
    SanModel,
    load_model,
)
from .experiments import (
    CSV_HEADER,
    DEFAULT_GRID,
    SAMPLERS,
    ExperimentConfig,
    RateFit,
    ResultRow,
    ResultTable,
    TruthResult,
    TruthSpec,
    fit_rate,
    load_experiment,
    mc_truth,
    rate_summary,
    resolve_truth,
    run_convergence,
    sample_losses,
    sample_points,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "PrecisionError",
    "WorkLimitError",
    "IntervalWitness",
    "NetCheckResult",
    "NetParams",
    "PointSet",
    "find_t",
    "is_net",
    "radical_inverse",
    "sobol_points",
    "star_discrepancy_1d",
    "van_der_corput_points",
    "digital_shift",
    "owen_scramble",
    "SampleBatch",
    "empirical_cdf",
    "k_hat",
    "order_index",
    "quantile_estimate",
    "shortfall_estimate",
    "CLAMP_EPSILON",
    "DEFAULT_SAN_PATHS",
    "DEFAULT_SAN_RATES",
    "ExpModel",
    "SanModel",
    "load_model",
    "CSV_HEADER",
    "DEFAULT_GRID",
    "SAMPLERS",
    "ExperimentConfig",
    "RateFit",
    "ResultRow",
    "ResultTable",
    "TruthResult",
    "TruthSpec",
    "fit_rate",
    "load_experiment",
    "mc_truth",
    "rate_summary",
    "resolve_truth",
    "run_convergence",
    "sample_losses",
    "sample_points",
    "__version__",
]
