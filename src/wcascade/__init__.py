"""Multiplicative wavelet-cascade synthesis and multifractal analysis."""

from wcascade.cascade import (
    CascadeSpec,
    CauchyFactor,
    FoldedLognormal,
    NormalNoise,
    PointMass,
    SignedLognormal,
    synthesize_mixed,
    theoretical_spectrum_lognormal,
    theoretical_tau_lognormal,
)
from wcascade.dwt import (
    TimeSeries,
    WaveletPyramid,
    dwt_forward,
    dwt_inverse,
    load_pyramid,
    rescale,
    save_pyramid,
)
from wcascade.empirics import (
    CollapseResult,
    MultiplierSet,
    ReturnPanel,
    accumulate_path,
    collapse_H,
    deseasonalize_returns,
    estimate_variances,
    extract_multipliers,
    load_panel_csv,
    multiplier_correlations,
)
from wcascade.stats import (
    BinnedVariance,
    FitResult,
    RegressionResult,
    binned_conditional_variance,
    fit_cauchy,
    fit_normal,
    fit_student_t2,
    ols,
    pearson_correlation,
)
from wcascade.wtmm import (
    CwtMatrix,
    MaximaLines,
    PartitionFunction,
    SingularSpectrum,
    WtmmConfig,
    chain_maxima_lines,
    cwt,
    default_scale_grid,
    estimate_tau,
    find_modulus_maxima,
    legendre_spectrum,
    partition_function,
    singular_spectrum,
)

__version__ = "0.1.0"
