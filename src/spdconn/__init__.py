"""Group-level covariance statistics on the SPD manifold.

Fits a random-effects model over control subjects' correlation matrices in
the tangent frame of their intrinsic mean, detects per-pair connectivity
differences of single test subjects against a bootstrap null distribution,
and evaluates detection power on simulated populations.
"""

import types as _types

from .estimators import (
    TimeSeries,
    correlation_matrix,
    ledoit_wolf,
    residualize_confounds,
    sample_covariance,
    to_correlation,
)
from .exceptions import (
    ConfigurationError,
    ConvergenceError,
    DegenerateInputError,
    DegenerateModelError,
    InvalidInputError,
    NearSingularError,
    NumericRangeError,
)
from .geometry import (
    SPD_EIG_FLOOR,
    TangentVector,
    clip_spd,
    geodesic_distance,
    pair_count,
    spd_expm,
    spd_logm,
    spd_sqrtm,
    symmetrize,
    tangent_inverse_map,
    tangent_map,
    tril_pairs,
    validate_spd,
    vec_dim,
    vec_embed,
    vec_unembed,
)
from .group import (
    FLAT,
    TANGENT,
    FrechetConfig,
    GroupModel,
    fit_from_matrices,
    fit_group_model,
    frechet_mean,
    leave_one_out_scores,
    log_likelihood,
    reconstruct,
    residual,
)
from .inference import (
    NullDistribution,
    PairTest,
    TestReport,
    build_null,
    empirical_pvalue,
    t_statistic,
    test_patient,
)
from .simulate import (
    RocCurve,
    SimConfig,
    auc,
    default_group_correlation,
    inject_differences,
    roc_experiment,
    sample_population,
    sample_time_series,
    simulate_patients,
)

__version__ = "0.1.0"

# The public API is every name imported above.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
