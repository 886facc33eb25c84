"""Standard errors for factors, loadings, and fitted quantile surfaces.

The weighted two-stage estimator is asymptotically normal, and every
covariance in its limit law has a plug-in estimate built from the fitted
loadings, factors, and inverse-density weights. This walk-through fits one
panel and prints a few standardized coordinates against the known truth.
Run:  python demos/03_inference_pipeline.py   (about a minute)
"""

import warnings

from ufm import (
    EstimatorConfig,
    fit_panel,
    gen_dgp,
    make_quantile_grid,
    mean_loadings,
    plugin_covariances,
    standard_errors,
)
from ufm.simlab import align_factor_signs

warnings.simplefilter("ignore")

dgp = gen_dgp(100, 100, seed=3)
grid = make_quantile_grid(9, 0.04)

fit = fit_panel(dgp.panel, grid, EstimatorConfig(rank=1))
est = align_factor_signs(fit.estimate, dgp.normalized_factor)
mean = mean_loadings(dgp.panel, est)
covs = plugin_covariances(dgp.panel, est, fit.weights, mean, grid)
# every SE array at once; common-component SEs at the level asked for
ses = {tau: standard_errors(est, covs, tau) for tau in (0.2, 0.5, 0.8)}
se = ses[0.5]

print("factor standard errors at a few periods:")
for t in (10, 50, 90):
    z = (est.factors[t, 0] - dgp.normalized_factor[t, 0]) / se.factor[t, 0]
    print(f"  t={t:3d}: f_hat={est.factors[t, 0]:+.3f}  se={se.factor[t, 0]:.3f}  "
          f"z={z:+.2f}")
print()

i, t = 49, 49
print(f"fitted quantile surface at cell (i={i}, t={t}):")
for tau, se_tau in ses.items():
    fitted = float(est.loadings[grid.index(tau), i] @ est.factors[t])
    truth = float(dgp.true_common(tau)[i, t])
    se_c = se_tau.common[i, t]
    print(f"  tau={tau}: fitted {fitted:+.3f}  true {truth:+.3f}  "
          f"se {se_c:.3f}  z {(fitted - truth) / se_c:+.2f}")
print()

print(f"mean loading of row {i}: {mean.lam_bar[i, 0]:+.4f} "
      f"(se {se.mean_loading[i, 0]:.4f}) "
      f"- the DGP's mean impact is nearly zero by design")
