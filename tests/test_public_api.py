import ufm

# Every public name of the package, so that a change to the public surface
# shows up here as a deliberate edit. ``ufm.__all__`` lists every name in the
# package namespace without a leading underscore, the submodules among them.
PUBLIC = [
    "ClippedFractionWarning", "CovariancePack", "DegenerateRegressorsError",
    "DgpDraw", "DuplicateCellError", "EigenFailureError", "EstimatorConfig",
    "ExperimentSpec", "FactorEstimate", "MeanLoadings", "MissingCellError",
    "NearDegenerateEigsWarning", "NoConvergeWarning", "NonFiniteError",
    "NonNumericCellError", "PanelFit", "PanelMatrix", "QuantileGrid",
    "RaggedRowsError", "RankReport", "RankTooLargeError", "SingularPhiError",
    "SmoothKernel", "SplitIndex", "StandardErrors", "StrengthReport",
    "SubsampleRankDeficientError", "UfmError", "UfmWarning", "WeightTensor",
    "adjusted_r2", "crossfit_estimates", "errors", "estimate_r", "fit_panel",
    "fpdf_derivative", "gaussian_kernel", "gen_dgp", "idw", "inference",
    "inverse_density_weights", "kernel_cdf", "kernel_k", "kernels", "load_panel",
    "make_quantile_grid", "mean_loadings", "monte_carlo_run", "normalize", "output",
    "panel", "pca_fit", "pel_fit", "plugin_covariances", "qfa_fit",
    "quadrant_crossfit", "ranksel", "rotation_scalar", "save_panel",
    "select_factors", "simlab", "single_level_grid", "smoothed_grad",
    "smoothed_hess", "smoothed_value", "split_panel", "sqr", "standard_errors",
    "ufa", "ufa_fit", "warm_start_from_profile",
]


def test_public_names():
    assert sorted(ufm.__all__) == PUBLIC
