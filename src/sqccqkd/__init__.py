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
)
from .errors import (
    ConvergenceError,
    DomainError,
    NumericError,
    PhysicalityError,
    SqccError,
)
from .finitekey import SecurityParams
from .keyrate import Optimum, optimise_v, rate_at
from .montecarlo import (
    EmpiricalMoments,
    EstimationResult,
    RNG_ALGORITHM,
    ShotChunk,
    estimate,
    shot_chunks,
)
from .postprocess import (
    RenormStrategy,
    required_displacement,
)
from .special import (
    beta_inv_cdf_symmetric,
    beta_quantile,
    beta_reg,
    erfc_inv,
    normal_quantile,
)

__version__ = "0.1.0"
