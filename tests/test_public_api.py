import dataclasses
import inspect

import ufm

# Every public name of the package, so that a change to the public surface
# shows up here as a deliberate edit. ``ufm.__all__`` lists the names the
# package imports from its submodules; the submodules themselves are not in it.
PUBLIC = [
    "ClippedFractionWarning", "CovariancePack", "DegenerateRegressorsError",
    "DgpDraw", "DuplicateCellError", "EigenFailureError", "EstimatorConfig",
    "ExperimentSpec", "FactorEstimate", "MeanLoadings", "MissingCellError",
    "NearDegenerateEigsWarning", "NoConvergeWarning", "NonFiniteError",
    "NonNumericCellError", "PanelFit", "PanelMatrix", "QuantileGrid",
    "RaggedRowsError", "RankReport", "RankTooLargeError", "SingularPhiError",
    "SmoothKernel", "SplitIndex", "StandardErrors", "StrengthReport",
    "SubsampleRankDeficientError", "UfmError", "UfmWarning", "WeightTensor",
    "adjusted_r2", "crossfit_estimates", "estimate_r", "fit_panel",
    "fpdf_derivative", "gaussian_kernel", "gen_dgp",
    "inverse_density_weights", "kernel_cdf", "kernel_k", "load_panel",
    "make_quantile_grid", "mean_loadings", "monte_carlo_run", "normalize",
    "pca_fit", "pel_fit", "plugin_covariances", "qfa_fit",
    "quadrant_crossfit", "rotation_scalar", "save_panel",
    "select_factors", "single_level_grid", "smoothed_grad",
    "smoothed_hess", "smoothed_value", "split_panel", "standard_errors",
    "ufa_fit", "warm_start_from_profile",
]

# The settable values of the estimator's configuration objects and entry
# points (23 in all), so that a new knob also shows up as a deliberate edit.
SETTABLE = {
    ufm.EstimatorConfig: ["rank", "bandwidth_h", "kernel_order"],
    ufm.ExperimentSpec: ["name", "sizes", "reps", "taus", "estimators"],
    ufm.QuantileGrid: ["levels", "shift"],
    ufm.pel_fit: ["panel", "tau", "penalty_const", "trace"],
    ufm.warm_start_from_profile: ["profile", "rank"],
    ufm.qfa_fit: ["panel", "tau", "r", "init", "config", "warm", "warm_grid"],
}


def test_public_names():
    assert sorted(ufm.__all__) == PUBLIC


def test_settable_values():
    for owner, names in SETTABLE.items():
        if dataclasses.is_dataclass(owner):
            got = [f.name for f in dataclasses.fields(owner) if f.init]
        else:
            got = list(inspect.signature(owner).parameters)
        assert got == names, owner.__name__
