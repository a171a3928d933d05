"""ceslab: a finite-section laboratory for the discrete averaging operator.

The library constructs the Cesaro matrix and its closed-form resolvent at
explicit truncation sizes, evaluates sequence-space norms (l^p, max norm,
and the Cesaro-average norms), scans the entrywise inequalities that
control the resolvent's regularity, and sweeps lambda grids recording
resolvent-norm growth across truncation sizes.
"""

from .bounds import (
    BoundReport,
    ProductProfile,
    beta_estimate,
    check_entry_bounds,
    gamma_circle_point,
    product_profile,
    remark41,
)
from .errors import (
    CeslabError,
    InvalidConfigError,
    InvalidDimensionError,
    LambdaInSigmaZeroError,
    ProductOverflowError,
    UnsupportedExponentError,
    UnsupportedParameterError,
    WrongRegimeError,
)
from .multiplication import diag_norm_equality_check, diag_operator, diag_spectrum
from .resolvent import (
    comparison_operator,
    diagonal_part,
    gamma,
    in_sigma_zero,
    resolvent_operator,
    residual,
)
from .spaces import Space, c0, ces, ces0, dual_exponent, linf, lp, norm, parse_space
from .spectra import (
    GridSpec,
    GrowthVerdict,
    NormEstimate,
    NormOptions,
    SpectralDisk,
    SweepRecord,
    classify_growth,
    in_spectrum,
    operator_norm_estimate,
    operator_norm_report,
    regular_norm_estimate,
    spectrum_disk,
    sweep,
)
from .triangular import LowerTriangularMatrix, apply, cesaro_matrix

__version__ = "0.1.0"

__all__ = [
    "LowerTriangularMatrix",
    "cesaro_matrix",
    "apply",
    "Space",
    "lp",
    "linf",
    "c0",
    "ces",
    "ces0",
    "dual_exponent",
    "norm",
    "parse_space",
    "gamma",
    "in_sigma_zero",
    "diagonal_part",
    "comparison_operator",
    "resolvent_operator",
    "residual",
    "ProductProfile",
    "BoundReport",
    "product_profile",
    "beta_estimate",
    "check_entry_bounds",
    "remark41",
    "gamma_circle_point",
    "SpectralDisk",
    "SweepRecord",
    "GrowthVerdict",
    "GridSpec",
    "NormOptions",
    "NormEstimate",
    "spectrum_disk",
    "in_spectrum",
    "operator_norm_estimate",
    "operator_norm_report",
    "regular_norm_estimate",
    "sweep",
    "classify_growth",
    "diag_operator",
    "diag_spectrum",
    "diag_norm_equality_check",
    "CeslabError",
    "InvalidDimensionError",
    "LambdaInSigmaZeroError",
    "UnsupportedExponentError",
    "UnsupportedParameterError",
    "WrongRegimeError",
    "ProductOverflowError",
    "InvalidConfigError",
]
