"""Numerical correlation decay for expanding endomorphisms of the torus.

The package realizes, with certified numerics, the chain from a matrix
with all eigenvalues outside the unit circle to quantitative mixing:
transfer-operator iteration in Fourier and spatial form, decay bounds in
terms of the modulus of continuity, lacunary series with exactly
computable rates, self-affine digit tilings, a central limit theorem for
Birkhoff sums, and the classical interval reduction via the tent map.
"""

from ._version import __version__
from .errors import (
    DegenerateBound,
    GuardError,
    InputError,
    InternalError,
    NotDecreasing,
    NotExpanding,
    NotMeanZero,
    NotSimilarity,
    SingularMatrix,
    TooLarge,
    ToralDecayError,
    TruncationTooSmall,
    ZeroVariance,
)
from .lattice import IntegerMatrix, digit_set, parse_matrix, validate_expanding
from .spectral import (
    ModulusCurve,
    TrigPolynomial,
    modulus_value,
    norm,
    sup_norm_bracket,
    transfer_fourier,
    transfer_spatial_eval,
)
from .tiling import check_self_affinity, check_tiling, tile_points
from .analysis import (
    DecayReport,
    DecayRow,
    FitResult,
    correlation,
    decay_report,
    fit_rate,
    pairing,
)
from .lacunary import (
    LacunarySpec,
    design_for_rate,
    lacunary_build,
    modulus_bounds_prop2,
    tail_norms,
)
from .stochastic import (
    CltExperiment,
    birkhoff_samples,
    ks_statistic,
    sigma_squared,
)
from .interval import (
    CosineSeries,
    LyapunovReport,
    log_abs_mean,
    lyapunov_clt,
    lyapunov_sigma2,
    tent_transfer,
    uvn_decay_norms,
    uvn_modulus_sqrt_delta,
)

__all__ = [
    "__version__",
    "ToralDecayError",
    "InputError",
    "GuardError",
    "InternalError",
    "NotExpanding",
    "SingularMatrix",
    "NotMeanZero",
    "NotSimilarity",
    "NotDecreasing",
    "ZeroVariance",
    "TruncationTooSmall",
    "TooLarge",
    "DegenerateBound",
    "IntegerMatrix",
    "parse_matrix",
    "validate_expanding",
    "digit_set",
    "TrigPolynomial",
    "ModulusCurve",
    "transfer_fourier",
    "transfer_spatial_eval",
    "norm",
    "sup_norm_bracket",
    "modulus_value",
    "tile_points",
    "check_tiling",
    "check_self_affinity",
    "pairing",
    "correlation",
    "DecayRow",
    "DecayReport",
    "FitResult",
    "decay_report",
    "fit_rate",
    "LacunarySpec",
    "lacunary_build",
    "tail_norms",
    "modulus_bounds_prop2",
    "design_for_rate",
    "sigma_squared",
    "CltExperiment",
    "birkhoff_samples",
    "ks_statistic",
    "CosineSeries",
    "tent_transfer",
    "uvn_decay_norms",
    "uvn_modulus_sqrt_delta",
    "lyapunov_sigma2",
    "lyapunov_clt",
    "LyapunovReport",
    "log_abs_mean",
]
