"""Secret-key rates and Monte Carlo validation for simultaneous quantum-classical CV-QKD.

Classical QPSK symbols ride on the same optical mode as a Gaussian-modulated
quantum signal; this package computes the coupling those symbols induce on
the quantum covariance, the renormalisation that keeps the effective channel
physical, and the resulting asymptotic and composable finite-size key rates,
with a seeded Monte Carlo engine validating the closed-form model.
"""

from .channel import (
    ChannelParams,
    ProtocolParams,
    attenuation_db_to_transmissivity,
    qi_baseline_state,
    shared_state,
)
from .errors import (
    ConvergenceError,
    DomainError,
    NumericError,
    PhysicalityError,
    SqccError,
)
from .finitekey import (
    DeltaTerms,
    SecurityParams,
    delta_terms,
    worst_case_estimators,
)
from .gaussian import (
    MeasurementDistribution,
    SymplecticSpectrum,
    TwoModeGaussian,
    g_function,
    measurement_distribution,
)
from .keyrate import Optimum, optimise_v, rate_at
from .montecarlo import (
    EmpiricalMoments,
    EstimationResult,
    RNG_ALGORITHM,
    ShotBatch,
    discriminate_and_redisplace,
    empirical_moments,
    estimation_pipeline,
    sample_joint,
)
from .postprocess import (
    PostprocessStats,
    RenormResult,
    RenormStrategy,
    error_rate_from_snr,
    postprocess_stats,
    renormalise,
    required_displacement,
    shrinkage_from_snr,
    variance_shift_factor,
)
from .special import (
    beta_inv_cdf_symmetric,
    beta_quantile,
    beta_reg,
    erfc,
    erfc_inv,
    normal_quantile,
)

__version__ = "0.1.0"
