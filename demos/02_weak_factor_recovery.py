"""Recovering a factor that is invisible to PCA.

The generating process makes the factor's mean impact and its median
impact nearly zero, while leaving strong influence in the distribution's
tails. PCA (a mean method) and a single-quantile fit at the median both
fail; pooling all quantile levels recovers the factor space cleanly.
Run:  python demos/02_weak_factor_recovery.py   (about a minute)
"""

import warnings

import numpy as np

from ufm import (
    EstimatorConfig,
    adjusted_r2,
    fit_panel,
    gen_dgp,
    make_quantile_grid,
    pca_fit,
    qfa_fit,
)

warnings.simplefilter("ignore")

dgp = gen_dgp(50, 50, seed=7)
grid = make_quantile_grid(9, 0.04)

# one chain: rank selection and warm start, the pooled fit, the weighted refit
fit = fit_panel(dgp.panel, grid, EstimatorConfig(rank="auto"))
report = fit.report
print(f"estimated number of factors: {report.r_hat}")
print("top pooled eigenvalues:", np.round(report.eigenvalues[:4], 4),
      f"(threshold {report.threshold:.4f})")
print()

rows = [
    ("multi-level fit (UFA)", adjusted_r2(dgp.true_factor, fit.ufa.factors)),
    ("weighted refit (IDW-UFA)", adjusted_r2(dgp.true_factor, fit.estimate.factors)),
    ("PCA", adjusted_r2(dgp.true_factor, pca_fit(dgp.panel, 1))),
    ("single level tau=0.5", adjusted_r2(
        dgp.true_factor, qfa_fit(dgp.panel, 0.5, 1, init="ini_tau").factors)),
    ("single level tau=0.9", adjusted_r2(
        dgp.true_factor, qfa_fit(dgp.panel, 0.9, 1, init="ini_tau").factors)),
]
print("adjusted R^2 of the true factor on each estimate:")
for name, r2 in rows:
    print(f"  {name:28s} {r2:6.3f}")
print()
print(f"fraction of inverse-density weights clipped: {fit.weights.clipped_fraction:.2%}")
