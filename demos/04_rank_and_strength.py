"""Choosing the number of factors and grading their strength.

Nuclear-norm penalized fits of each quantile surface need no prior bound
on the rank; thresholding the pooled eigenvalues estimates it. The same
fits warm-start the alternating estimators, and the strength selectors
count factors whose influence on the mean (or a chosen quantile) reaches
a tolerated exponent alpha.
Run:  python demos/04_rank_and_strength.py   (about a minute)
"""

import warnings

import numpy as np

from ufm import (
    EstimatorConfig,
    fit_panel,
    gen_dgp,
    make_quantile_grid,
    mean_loadings,
    pel_fit,
    select_factors,
)

warnings.simplefilter("ignore")

dgp = gen_dgp(100, 100, seed=12)
grid = make_quantile_grid(9, 0.04)

print("penalized fit of one quantile surface (tau = 0.9):")
surface = pel_fit(dgp.panel, 0.9)
sing = np.linalg.svd(surface, compute_uv=False)
print("  top singular values:", np.round(sing[:4], 2), "- effectively rank one")
print()

# the penalized fits give the rank and warm-start the unweighted fit
fit = fit_panel(dgp.panel, grid, EstimatorConfig(rank="auto"), weighted=False)
report, est = fit.report, fit.estimate
print(f"rank estimate: {report.r_hat} "
      f"(eigenvalues {np.round(report.eigenvalues[:3], 4)}, "
      f"threshold {report.threshold:.4f})")
print()

mean = mean_loadings(dgp.panel, est)

print("strength selection at alpha = 1 (fully strong factors only):")
rep_mean = select_factors(est, grid, mean.lam_bar, target="mean", alpha=1.0)
print(f"  mean target:      selected {rep_mean.selected} "
      f"(singular value {rep_mean.singular_values[0]:.4f} vs "
      f"threshold {rep_mean.threshold:.4f})")
for tau in (0.5, 0.9):
    rep = select_factors(est, grid, target=tau, alpha=1.0)
    print(f"  quantile {tau} target: selected {rep.selected} "
          f"(singular value {rep.singular_values[0]:.4f})")
print()
print("the factor is strong in the tails but too weak for mean methods,")
print("which is why PCA misses it entirely.")
