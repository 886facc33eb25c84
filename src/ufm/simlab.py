"""Monte Carlo lab: data generation, baselines, and table replication.

The generating process draws a single factor and base loading uniformly on
[0, 2] and sets Y_it = (-0.99 + 2 U_it) * base_i * f_t with U uniform, so
the quantile-level loading path is beta(tau) * base_i. The factor is
strong across the quantile grid as a whole but nearly invisible to the
mean and to the median, which is exactly the regime where PCA and
single-level quantile fits struggle.

``monte_carlo_run`` reproduces the simulation tables at desk scale with
deterministic per-repetition seed streams, optional thread parallelism
(results are reduced in repetition order), and CSV/JSON outputs.
"""

from __future__ import annotations

import hashlib
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateRegressorsError, UfmWarning
from .idw import idw_ufa_fit
from .inference import mean_loadings, plugin_covariances, standard_errors
from .output import write_csv, write_json
from .panel import (
    EstimatorConfig,
    FactorEstimate,
    PanelMatrix,
    QuantileGrid,
    make_quantile_grid,
    single_level_grid,
)
from .ranksel import (
    default_rank_threshold,
    pel_profile,
    rank_from_profile,
    warm_start_from_profile,
)
from .ufa import _fix_column_signs, ufa_fit

DEFAULT_SHIFT = 0.04
DEFAULT_M = 9
_TABLE_IDS = {"table1": 1, "table2": 2, "table3": 3, "table4_fig1": 4}


def beta_coefficient(u):
    """Random quantile slope of the generating process: -0.99 + 2u."""
    return -0.99 + 2.0 * np.asarray(u, dtype=float)


@dataclass(frozen=True)
class DgpDraw:
    """One draw of the generating process plus its diagonalized truth.

    The rank is one, so the normalized factor is sqrt(T) times the unit
    vector along the raw factor and the loading path at level tau is
    beta(tau) times ``normalized_base``.
    """

    panel: PanelMatrix
    true_factor: np.ndarray        # (T,)
    true_loading_base: np.ndarray  # (N,)
    u: np.ndarray                  # (N, T)
    normalized_factor: np.ndarray  # (T, 1)
    normalized_base: np.ndarray    # (N, 1)

    def normalized_loadings(self, levels) -> np.ndarray:
        levels = np.asarray(levels, dtype=float)
        return beta_coefficient(levels)[:, None, None] * self.normalized_base[None]

    def true_common(self, tau: float) -> np.ndarray:
        """The tau-th conditional quantile surface, N x T."""
        return float(beta_coefficient(tau)) * np.outer(self.true_loading_base,
                                                       self.true_factor)

    def truth_digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.true_factor.tobytes())
        h.update(self.true_loading_base.tobytes())
        return h.hexdigest()


def make_dgp(f0: np.ndarray, base: np.ndarray, u: np.ndarray) -> DgpDraw:
    f0 = np.asarray(f0, dtype=float)
    base = np.asarray(base, dtype=float)
    y = beta_coefficient(u) * base[:, None] * f0[None, :]
    t = f0.size
    norm = np.linalg.norm(f0)
    f_norm = (np.sqrt(t) * f0 / norm)[:, None]
    base_norm = (base * norm / np.sqrt(t))[:, None]
    return DgpDraw(panel=PanelMatrix.from_values(y), true_factor=f0,
                   true_loading_base=base, u=np.asarray(u, dtype=float),
                   normalized_factor=f_norm, normalized_base=base_norm)


def gen_dgp(n: int, t: int, seed) -> DgpDraw:
    """Draw factor, base loading, and uniforms from one seeded stream."""
    rng = np.random.default_rng(seed)
    f0 = rng.uniform(0.0, 2.0, size=t)
    base = rng.uniform(0.0, 2.0, size=n)
    u = rng.uniform(0.0, 1.0, size=(n, t))
    return make_dgp(f0, base, u)


def pca_fit(panel: PanelMatrix, r: int) -> np.ndarray:
    """sqrt(T) times the top-r eigenvectors of Y'Y/(NT)."""
    n, t = panel.n_rows, panel.n_cols
    if r > min(n, t):
        raise ValueError("rank exceeds panel dimensions")
    gram = panel.values.T @ panel.values / (n * t)
    _, vecs = np.linalg.eigh(gram)
    return _fix_column_signs(np.sqrt(t) * vecs[:, ::-1][:, :r])


def qfa_fit(
    panel: PanelMatrix,
    tau: float,
    r: int,
    init: str = "ini_tau",
    config: EstimatorConfig | None = None,
    warm: FactorEstimate | None = None,
    warm_grid: QuantileGrid | None = None,
    shift: float = DEFAULT_SHIFT,
) -> FactorEstimate:
    """Single-level alternating fit, warm-started two ways.

    ``init='ini_tau'`` warm-starts from a penalized fit at tau alone;
    ``init='ini_UFA'`` reuses a multi-level warm start (pass it as ``warm``
    together with its grid, or it is recomputed) and takes its loading at
    tau.
    """
    config = (config or EstimatorConfig(rank=r)).with_rank(r).resolved_for(panel)
    grid1 = single_level_grid(tau, shift)
    if init == "ini_tau":
        start = warm_start_from_profile(pel_profile(panel, grid1), r, config)
    elif init == "ini_UFA":
        if warm is None:
            warm_grid = warm_grid or make_quantile_grid(DEFAULT_M, shift)
            warm = warm_start_from_profile(pel_profile(panel, warm_grid), r, config)
        if warm_grid is None:
            raise ValueError("ini_UFA needs the grid the warm start was built on")
        hits = np.flatnonzero(np.isclose(warm_grid.levels, tau, rtol=0, atol=1e-12))
        if hits.size == 0:
            raise ValueError(f"tau={tau} is not a level of the warm-start grid")
        start = FactorEstimate(factors=warm.factors,
                               loadings=warm.loadings[[int(hits[0])]],
                               eigenvalues=warm.eigenvalues[:r])
    else:
        raise ValueError("init must be 'ini_tau' or 'ini_UFA'")
    return ufa_fit(panel, grid1, config, init=start)


def adjusted_r2(true_factor: np.ndarray, estimated: np.ndarray) -> float:
    """Adjusted R^2 of the true factor regressed on estimated factors."""
    truth = np.asarray(true_factor, dtype=float).reshape(-1)
    x = np.asarray(estimated, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    t, k = x.shape
    if np.any(x.std(axis=0) < 1e-14 * (1.0 + np.abs(x).max())):
        raise DegenerateRegressorsError("estimated factor has zero variance")
    design = np.column_stack([np.ones(t), x])
    coef, *_ = np.linalg.lstsq(design, truth, rcond=None)
    resid = truth - design @ coef
    tss = float(np.sum((truth - truth.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / tss
    return 1.0 - (1.0 - r2) * (t - 1) / (t - k - 1)


def align_factor_signs(estimate: FactorEstimate, truth_factors: np.ndarray) -> FactorEstimate:
    """Flip estimated factor (and loading) columns to match the truth's signs."""
    truth = np.asarray(truth_factors, dtype=float)
    signs = np.where(np.einsum("tr,tr->r", estimate.factors, truth) >= 0, 1.0, -1.0)
    return FactorEstimate(factors=estimate.factors * signs,
                          loadings=estimate.loadings * signs,
                          eigenvalues=estimate.eigenvalues,
                          converged=estimate.converged, n_outer=estimate.n_outer)


def rotation_scalar(estimate: FactorEstimate | np.ndarray, truth_factors: np.ndarray) -> np.ndarray:
    """F0' Ftilde / T after aligning each estimated column's sign."""
    f_est = estimate.factors if isinstance(estimate, FactorEstimate) else np.asarray(estimate)
    truth = np.asarray(truth_factors, dtype=float)
    signs = np.where(np.einsum("tr,tr->r", f_est, truth) >= 0, 1.0, -1.0)
    return truth.T @ (f_est * signs) / truth.shape[0]


@dataclass(frozen=True)
class ExperimentSpec:
    """Descriptor for one table-replication experiment."""

    name: str
    sizes: tuple[int, ...]
    reps: int
    taus: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    estimators: tuple[str, ...] = ("ufa", "idw-ufa", "qfa-ini-ufa", "qfa-ini-tau", "pca")
    m_count: int = DEFAULT_M
    shift: float = DEFAULT_SHIFT
    penalty_const: float = 0.2

    def __post_init__(self):
        if self.name not in _TABLE_IDS:
            raise ValueError(f"unknown experiment {self.name!r}")


def _grid(spec: ExperimentSpec) -> QuantileGrid:
    return make_quantile_grid(spec.m_count, spec.shift)


def _rep_seed(seed: int, spec: ExperimentSpec, size: int, rep: int) -> list[int]:
    return [int(seed), _TABLE_IDS[spec.name], int(size), int(rep)]


def _rank_and_warm(dgp: DgpDraw, grid, spec: ExperimentSpec, config: EstimatorConfig):
    profile = pel_profile(dgp.panel, grid, spec.penalty_const)
    n, t = dgp.panel.n_rows, dgp.panel.n_cols
    report = rank_from_profile(profile, default_rank_threshold(n, t))
    r_hat = max(report.r_hat, 1)
    warm = warm_start_from_profile(profile, r_hat, config.resolved_for(dgp.panel))
    return report, r_hat, warm, profile


def _table1_rep(spec: ExperimentSpec, seed: int, size: int, rep: int) -> dict:
    dgp = gen_dgp(size, size, _rep_seed(seed, spec, size, rep))
    grid = _grid(spec)
    report, _, _, _ = _rank_and_warm(dgp, grid, spec, EstimatorConfig(rank=1))
    return {"size": size, "rep": rep, "r_hat": report.r_hat}


def _table2_rep(spec: ExperimentSpec, seed: int, size: int, rep: int) -> list[dict]:
    dgp = gen_dgp(size, size, _rep_seed(seed, spec, size, rep))
    grid = _grid(spec)
    config = EstimatorConfig(rank=1).resolved_for(dgp.panel)
    rows = []

    def emit(estimator, tau, factors):
        rows.append({"size": size, "rep": rep, "estimator": estimator,
                     "tau": tau, "adj_r2": adjusted_r2(dgp.true_factor, factors)})

    need_ufa = {"ufa", "idw-ufa", "qfa-ini-ufa"} & set(spec.estimators)
    if need_ufa:
        _, r_hat, warm, profile = _rank_and_warm(dgp, grid, spec, config)
        cfg_hat = config.with_rank(r_hat)
        ufa_est = ufa_fit(dgp.panel, grid, cfg_hat, init=warm)
        if "ufa" in spec.estimators:
            emit("ufa", "", ufa_est.factors)
        if "idw-ufa" in spec.estimators:
            idw_est, _ = idw_ufa_fit(dgp.panel, grid, cfg_hat, init=ufa_est)
            emit("idw-ufa", "", idw_est.factors)
        if "qfa-ini-ufa" in spec.estimators:
            # the quantile-level baseline uses the true rank, like the multi
            # level warm start restricted to its leading column
            warm_true = warm if warm.rank == 1 else warm_start_from_profile(profile, 1, config)
            for tau in spec.taus:
                est = qfa_fit(dgp.panel, tau, 1, init="ini_UFA", config=config,
                              warm=warm_true, warm_grid=grid, shift=spec.shift)
                emit("qfa-ini-ufa", tau, est.factors)
    if "qfa-ini-tau" in spec.estimators:
        for tau in spec.taus:
            est = qfa_fit(dgp.panel, tau, 1, init="ini_tau", config=config,
                          shift=spec.shift)
            emit("qfa-ini-tau", tau, est.factors)
    if "pca" in spec.estimators:
        emit("pca", "", pca_fit(dgp.panel, 1))
    return rows


def _table3_rep(spec: ExperimentSpec, seed: int, size: int, rep: int) -> dict:
    dgp = gen_dgp(size, size, _rep_seed(seed, spec, size, rep))
    grid = _grid(spec)
    config = EstimatorConfig(rank=1).resolved_for(dgp.panel)
    est, _ = idw_ufa_fit(dgp.panel, grid, config)
    h_mat = rotation_scalar(est, dgp.normalized_factor)
    return {"size": size, "rep": rep, "h_abs_dev": float(np.abs(h_mat[0, 0] - 1.0))}


_T4_TAUS = (0.5, 0.2, 0.8)


def _table4_rep(spec: ExperimentSpec, seed: int, size: int, rep: int,
                truth: tuple[np.ndarray, np.ndarray], digest: str) -> dict:
    f0, base = truth
    u = np.random.default_rng(_rep_seed(seed, spec, size, rep)).uniform(
        0.0, 1.0, size=(size, size))
    dgp = make_dgp(f0, base, u)
    if dgp.truth_digest() != digest:
        raise AssertionError("fixed-truth protocol violated: truth changed across reps")
    grid = _grid(spec)
    config = EstimatorConfig(rank=1).resolved_for(dgp.panel)
    est, weights = idw_ufa_fit(dgp.panel, grid, config)
    est = align_factor_signs(est, dgp.normalized_factor)
    mean = mean_loadings(dgp.panel, est)
    covs = plugin_covariances(dgp.panel, est, weights, mean, grid)
    i_star, t_star = size // 2 - 1, size // 2 - 1
    out = {"size": size, "rep": rep}
    se_f = standard_errors(est, covs, "factor", t=t_star)[0]
    out["f_std"] = float((est.factors[t_star, 0] - dgp.normalized_factor[t_star, 0]) / se_f)
    for tau in _T4_TAUS:
        m = int(np.flatnonzero(np.isclose(grid.levels, tau, rtol=0, atol=1e-12))[0])
        fitted = float(est.loadings[m, i_star] @ est.factors[t_star])
        true_val = float(dgp.true_common(tau)[i_star, t_star])
        se_c = standard_errors(est, covs, "common", tau=tau, i=i_star, t=t_star)
        out[f"L_std_{tau}"] = (fitted - true_val) / se_c
    return out


def _run_ordered(worker, jobs, threads: int):
    if threads <= 1:
        for job in jobs:
            yield worker(*job)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield from pool.map(lambda args: worker(*args), jobs)


def monte_carlo_run(spec: ExperimentSpec, seed: int, out_dir=None,
                    threads: int = 1, write_manifest: bool = True) -> dict:
    """Run one experiment; returns summary tables and optionally writes CSVs.

    Per-repetition seeds derive deterministically from the master seed, and
    results are reduced in repetition order, so outputs are byte-identical
    across runs and across thread counts.
    """
    t_start = time.time()
    rep_rows: list[dict] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UfmWarning)
        if spec.name == "table4_fig1":
            for size in spec.sizes:
                rng = np.random.default_rng([seed, _TABLE_IDS[spec.name], size])
                f0 = rng.uniform(0.0, 2.0, size=size)
                base = rng.uniform(0.0, 2.0, size=size)
                digest = make_dgp(f0, base, np.zeros((size, size))).truth_digest()
                jobs = [(spec, seed, size, rep, (f0, base), digest)
                        for rep in range(spec.reps)]
                rep_rows.extend(_run_ordered(_table4_rep, jobs, threads))
        else:
            worker = {"table1": _table1_rep, "table2": _table2_rep,
                      "table3": _table3_rep}[spec.name]
            jobs = [(spec, seed, size, rep)
                    for size in spec.sizes for rep in range(spec.reps)]
            for res in _run_ordered(worker, jobs, threads):
                rep_rows.extend(res if isinstance(res, list) else [res])

    summary = _summarize(spec, rep_rows)
    result = {"spec": spec, "rep_rows": rep_rows, "summary": summary}
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        header = list(rep_rows[0].keys())
        write_csv(out_dir / f"{spec.name}_reps.csv", header,
                  [[row[k] for k in header] for row in rep_rows])
        s_header = list(summary[0].keys())
        write_csv(out_dir / f"{spec.name}_summary.csv", s_header,
                  [[row[k] for k in s_header] for row in summary])
        if write_manifest:
            write_json(out_dir / "manifest.json", {
                "version": 1,
                "experiment": spec.name,
                "sizes": list(spec.sizes),
                "reps": spec.reps,
                "seed": seed,
                "taus": list(spec.taus),
                "estimators": list(spec.estimators),
                "m_count": spec.m_count,
                "shift": spec.shift,
                "penalty_const": spec.penalty_const,
                "runtime_seconds": time.time() - t_start,
            })
    return result


def _summarize(spec: ExperimentSpec, rows: list[dict]) -> list[dict]:
    out = []
    if spec.name == "table1":
        for size in spec.sizes:
            vals = np.array([r["r_hat"] for r in rows if r["size"] == size])
            out.append({"size": size, "avg": float(vals.mean()),
                        "max": int(vals.max()), "min": int(vals.min())})
    elif spec.name == "table2":
        for size in spec.sizes:
            for est in spec.estimators:
                taus = spec.taus if est.startswith("qfa") else [""]
                for tau in taus:
                    vals = np.array([r["adj_r2"] for r in rows
                                     if r["size"] == size and r["estimator"] == est
                                     and r["tau"] == tau])
                    if vals.size:
                        out.append({"size": size, "estimator": est, "tau": tau,
                                    "mean_adj_r2": float(vals.mean())})
    elif spec.name == "table3":
        for size in spec.sizes:
            vals = np.array([r["h_abs_dev"] for r in rows if r["size"] == size])
            out.append({"size": size, "mean_abs_dev": float(vals.mean())})
    else:
        targets = ["f_std"] + [f"L_std_{tau}" for tau in _T4_TAUS]
        for size in spec.sizes:
            for tgt in targets:
                vals = np.array([r[tgt] for r in rows if r["size"] == size])
                out.append({"size": size, "target": tgt,
                            "mean": float(vals.mean()),
                            "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0})
    return out
