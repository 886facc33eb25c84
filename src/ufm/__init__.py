"""Weak-factor-robust latent factor estimation from quantile grids.

The estimation pipeline: fit every quantile level of the panel jointly by
alternating smoothed quantile regressions, normalize by eigendecomposition,
optionally reweight each term by cross-fitted inverse conditional densities
for asymptotically normal inference, and pick the number of factors by
thresholding nuclear-norm penalized fits.
"""

from .errors import (
    ClippedFractionWarning,
    DegenerateRegressorsError,
    DuplicateCellError,
    EigenFailureError,
    MissingCellError,
    NearDegenerateEigsWarning,
    NoConvergeWarning,
    NonFiniteError,
    NonNumericCellError,
    RaggedRowsError,
    RankTooLargeError,
    SingularPhiError,
    SubsampleRankDeficientError,
    UfmError,
    UfmWarning,
)
from .idw import (
    PanelFit,
    SplitIndex,
    WeightTensor,
    crossfit_estimates,
    fit_panel,
    fpdf_derivative,
    inverse_density_weights,
    quadrant_crossfit,
    split_panel,
)
from .inference import (
    CovariancePack,
    MeanLoadings,
    StandardErrors,
    mean_loadings,
    plugin_covariances,
    standard_errors,
)
from .kernels import (
    SmoothKernel,
    gaussian_kernel,
    kernel_cdf,
    kernel_k,
    smoothed_grad,
    smoothed_hess,
    smoothed_value,
)
from .panel import (
    EstimatorConfig,
    FactorEstimate,
    PanelMatrix,
    QuantileGrid,
    load_panel,
    make_quantile_grid,
    save_panel,
    single_level_grid,
)
from .ranksel import (
    RankReport,
    StrengthReport,
    estimate_r,
    pel_fit,
    select_factors,
    warm_start_from_profile,
)
from .simlab import (
    DgpDraw,
    ExperimentSpec,
    adjusted_r2,
    gen_dgp,
    monte_carlo_run,
    pca_fit,
    qfa_fit,
    rotation_scalar,
)
from .ufa import normalize, ufa_fit

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
