"""Correctness checks on the files an operation wrote.

Every check reads the written CSV/JSON files with numpy and the standard
library and tests a property of the method itself; none of them imports
``ufm``. Each check returns a list of problems, empty when it passes.
``selftest.py`` shows that each one rejects a corrupted copy of a real
output.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

RECOVERY_FLOOR = 0.7     # adjusted R^2 a recovering estimator must clear
BLIND_CEILING = 0.4      # adjusted R^2 a mean/median-blind estimator stays under
ORTHO_TOL = 1e-8         # F'F/T = I
SE_RTOL = 1e-8           # written SEs against the loop-based evaluation
IDENTITY_RTOL = 1e-9     # rank-one SE identity residual, relative
CLIP_BAND = (0.05, 20.0)
MC_ROWS_PER_REP = {"ufa": 1, "idw-ufa": 1, "qfa-ini-ufa": 9, "qfa-ini-tau": 9, "pca": 1}


def read_matrix(path) -> np.ndarray:
    """A wide matrix CSV: a header of column ids, then a label and values per row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(v) for v in row[1:]] for row in rows[1:]], dtype=float)


def read_manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def level_files(out: Path, stem: str) -> list[tuple[float, Path]]:
    """(tau, path) of every ``<stem>_tau_<tau>.csv``, sorted by tau."""
    found = [(float(p.name[len(stem) + 5:-4]), p) for p in out.glob(f"{stem}_tau_*.csv")]
    return sorted(found)


def adjusted_r2(truth: np.ndarray, x: np.ndarray) -> float:
    t, k = x.shape
    design = np.column_stack([np.ones(t), x])
    coef = np.linalg.lstsq(design, truth, rcond=None)[0]
    resid = truth - design @ coef
    r2 = 1.0 - resid @ resid / np.sum((truth - truth.mean()) ** 2)
    return 1.0 - (1.0 - r2) * (t - 1) / (t - k - 1)


# --- estimate-idw ---------------------------------------------------------

def check_rank_one(out: Path, ctx: dict) -> list[str]:
    man = read_manifest(out)
    if man.get("r_hat") != 1 or man.get("rank_used", 1) != 1:
        return [f"r_hat={man.get('r_hat')} rank_used={man.get('rank_used')}, true rank 1"]
    return []


def check_orthonormal(out: Path, ctx: dict) -> list[str]:
    f = read_matrix(out / "factors.csv")
    gram = f.T @ f / f.shape[0]
    dev = np.abs(gram - np.eye(f.shape[1])).max()
    return [f"|F'F/T - I| = {dev:.3g}"] if dev > ORTHO_TOL else []


def check_recovery(out: Path, ctx: dict) -> list[str]:
    f = read_matrix(out / "factors.csv")
    r2 = adjusted_r2(ctx["true_factor"], f)
    return [f"adjusted R2 of the true factor {r2:.4f} < {RECOVERY_FLOOR}"] \
        if not r2 >= RECOVERY_FLOOR else []


def read_weights(out: Path, taus: np.ndarray, n: int, t: int) -> np.ndarray:
    """weights.csv as an (M, N, T) tensor; raises ValueError if not a full grid."""
    data = np.loadtxt(out / "weights.csv", delimiter=",", skiprows=1, ndmin=2)
    m_idx = np.searchsorted(taus, data[:, 0])
    if (data.shape[0] != taus.size * n * t or np.any(m_idx >= taus.size)
            or not np.allclose(taus[np.minimum(m_idx, taus.size - 1)], data[:, 0], atol=1e-12)):
        raise ValueError(f"{data.shape[0]} weight rows, expected M*N*T = {taus.size * n * t}")
    i_idx, s_idx = data[:, 1].astype(int), data[:, 2].astype(int)
    if i_idx.min() < 0 or i_idx.max() >= n or s_idx.min() < 0 or s_idx.max() >= t:
        raise ValueError("weight row/col index out of range")
    w = np.full((taus.size, n, t), np.nan)
    w[m_idx, i_idx, s_idx] = data[:, 3]
    if np.isnan(w).any():
        raise ValueError("weights.csv does not cover every (tau, row, col) cell")
    return w


def _estimate_parts(out: Path):
    f = read_matrix(out / "factors.csv")
    lev = level_files(out, "loadings")
    taus = np.array([tau for tau, _ in lev])
    lam = np.stack([read_matrix(p) for _, p in lev])
    w = read_weights(out, taus, lam.shape[1], f.shape[0])
    return taus, f, lam, w


def check_weights(out: Path, ctx: dict) -> list[str]:
    taus = np.array([tau for tau, _ in level_files(out, "loadings")])
    try:
        w = read_weights(out, taus, ctx["n"], ctx["t"])
    except ValueError as exc:
        return [str(exc)]
    med = np.median(w)
    lo, hi = CLIP_BAND[0] * med, CLIP_BAND[1] * med
    slack = 1e-12 * med
    if not (np.all(w > 0) and np.all(w >= lo - slack) and np.all(w <= hi + slack)):
        return [f"weights in [{w.min():.4g}, {w.max():.4g}] leave the band "
                f"[{lo:.4g}, {hi:.4g}] around the median {med:.4g}"]
    return []


def reference_ses(taus, f, lam, w):
    """Plug-in SEs by explicit loops over levels and factor coordinates.

    phi        = sum_{m,i} lam_mi lam_mi' / (M N)
    sigma_f(t) = sum_{m,k} kappa_mk sum_i w_mit lam_mi (w_kit lam_ki)' / (M^2 N)
    sigma_l(m,i) = tau_m (1 - tau_m) sum_t w_mit^2 f_t f_t' / T
    """
    m_count, n, r = lam.shape
    t = f.shape[0]
    phi = np.zeros((r, r))
    for m in range(m_count):
        for a in range(r):
            for b in range(r):
                phi[a, b] += lam[m, :, a] @ lam[m, :, b]
    phi /= m_count * n
    sigma_f = np.zeros((t, r, r))
    for m in range(m_count):
        for k in range(m_count):
            kappa = min(taus[m], taus[k]) - taus[m] * taus[k]
            for a in range(r):
                for b in range(r):
                    sigma_f[:, a, b] += kappa * np.sum(
                        (w[m] * lam[m, :, a, None]) * (w[k] * lam[k, :, b, None]), axis=0)
    sigma_f /= m_count**2 * n
    phi_inv = np.linalg.inv(phi)
    se_f = np.sqrt(np.array([np.diag(phi_inv @ s @ phi_inv) for s in sigma_f]) / n)
    se_l = np.empty((m_count, n, r))
    for m in range(m_count):
        for a in range(r):
            se_l[m, :, a] = np.sqrt(taus[m] * (1 - taus[m]) * (w[m] ** 2 @ f[:, a] ** 2) / t / t)
    return se_f, se_l


def _relative_gap(got: np.ndarray, want: np.ndarray) -> float:
    if got.shape != want.shape:
        return np.inf
    return float(np.max(np.abs(got - want) / np.abs(want)))


def check_se_match(out: Path, ctx: dict) -> list[str]:
    try:
        taus, f, lam, w = _estimate_parts(out)
    except ValueError as exc:
        return [str(exc)]
    se_f, se_l = reference_ses(taus, f, lam, w)
    lev = level_files(out, "se_loadings")
    if [tau for tau, _ in lev] != list(taus):
        return ["se_loadings_tau_*.csv levels differ from loadings_tau_*.csv"]
    gaps = {"se_factors.csv": _relative_gap(read_matrix(out / "se_factors.csv"), se_f),
            "se_loadings_tau_*.csv": max(_relative_gap(read_matrix(p), se_l[m])
                                         for m, (_, p) in enumerate(lev))}
    return [f"{name} off the loop-based plug-in by {gap:.3g} (relative)"
            for name, gap in gaps.items() if not gap <= SE_RTOL]


# --- infer-wide -----------------------------------------------------------

def _infer_ses(out: Path, tau: float):
    se_f = read_matrix(out / "se_factors.csv")
    se_l = dict(level_files(out, "se_loadings"))
    se_c = read_matrix(out / f"se_common_tau_{format(tau, 'g')}.csv")
    return se_f, se_l, se_c


def check_se_positive(out: Path, ctx: dict) -> list[str]:
    se_f, se_l, se_c = _infer_ses(out, ctx["tau"])
    n, t = ctx["n"], ctx["t"]
    problems = []
    if se_f.shape != (t, 1) or se_c.shape != (n, t) or len(se_l) != ctx["m"] \
            or any(v.shape != (n, 1) for v in map(read_matrix, se_l.values())):
        problems.append(f"SE shapes {se_f.shape}, {se_c.shape}, {len(se_l)} loading "
                        f"files; expected rank one on {n}x{t} with M={ctx['m']}")
    for name, arr in [("se_factors", se_f), ("se_common", se_c)] + [
            (p.name, read_matrix(p)) for p in se_l.values()]:
        if not (np.all(np.isfinite(arr)) and np.all(arr > 0)):
            problems.append(f"{name}: SE not finite and positive")
    return problems


def solve_rank_one_identity(s: np.ndarray, l: np.ndarray, y: np.ndarray):
    """Least squares for y_it = a_i s_t + b_t l_i with mean(b) = 1.

    For rank one, a_i = lambda_i^2, b_t = f_t^2, s_t = se_factor(t)^2,
    l_i = se_loading(i)^2 and y_it = se_common(i, t)^2. The normal
    equations are bordered by the constraint, which fixes the one-dimensional
    gauge (a + c l, b - c s) the model leaves free.
    """
    n, t = y.shape
    k = np.zeros((n + t + 1, n + t + 1))
    k[:n, :n] = np.eye(n) * (s @ s)
    k[n:n + t, n:n + t] = np.eye(t) * (l @ l)
    k[:n, n:n + t] = np.outer(l, s)
    k[n:n + t, :n] = np.outer(s, l)
    k[n + t, n:n + t] = k[n:n + t, n + t] = 1.0 / t
    rhs = np.concatenate([y @ s, y.T @ l, [1.0]])
    sol = np.linalg.solve(k, rhs)
    a, b = sol[:n], sol[n:n + t]
    return a, b, y - np.outer(a, s) - np.outer(l, b)


def check_se_identity(out: Path, ctx: dict) -> list[str]:
    se_f, se_l, se_c = _infer_ses(out, ctx["tau"])
    if se_f.shape[1] != 1 or ctx["tau"] not in se_l:
        return ["the rank-one identity needs one factor column and loading SEs at tau"]
    l_se = read_matrix(se_l[ctx["tau"]])
    if l_se.shape != (se_c.shape[0], 1) or se_f.shape[0] != se_c.shape[1]:
        return ["SE file shapes do not line up"]
    y = se_c**2
    a, b, resid = solve_rank_one_identity(se_f[:, 0] ** 2, l_se[:, 0] ** 2, y)
    scale = np.abs(y).max()
    worst = float(np.abs(resid).max() / scale)
    problems = []
    if not worst <= IDENTITY_RTOL:
        problems.append(f"se_common^2 misses lambda^2 se_f^2 + f^2 se_l^2 by {worst:.3g}")
    if a.min() < -IDENTITY_RTOL * np.abs(a).max() or b.min() < -IDENTITY_RTOL * np.abs(b).max():
        problems.append("the identity needs a negative lambda^2 or f^2")
    return problems


# --- rank-units -----------------------------------------------------------

def read_eigenvalues(out: Path) -> np.ndarray:
    data = np.loadtxt(out / "rank_eigenvalues.csv", delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 2 or not np.array_equal(data[:, 0], np.arange(1, data.shape[0] + 1)):
        raise ValueError("rank_eigenvalues.csv is not a j=1..k, eigenvalue table")
    return data[:, 1]


def check_eigenvalues(out: Path, ctx: dict) -> list[str]:
    try:
        ev = read_eigenvalues(out)
    except ValueError as exc:
        return [str(exc)]
    k = min(ctx["n"], ctx["t"])
    if ev.size != k or not np.isfinite(ev).all():
        return [f"{ev.size} eigenvalues, expected min(N,T) = {k} finite values"]
    slack = 1e-12 * np.abs(ev).max()
    problems = []
    if ev.min() < -slack:
        problems.append(f"negative eigenvalue {ev.min():.3g}")
    if np.diff(ev).max() > slack:
        problems.append("eigenvalues are not non-increasing")
    return problems


def check_threshold_count(out: Path, ctx: dict) -> list[str]:
    man = read_manifest(out)
    try:
        count = int(np.sum(read_eigenvalues(out) >= man["threshold"]))
    except ValueError as exc:
        return [str(exc)]
    return [f"r_hat={man['r_hat']} but {count} eigenvalues clear the threshold"] \
        if count != man["r_hat"] else []


# --- mc-table2 ------------------------------------------------------------

def read_mc_rows(out: Path) -> list[dict]:
    with open(out / "table2_reps.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _mc_mean(rows, estimator: str, tau: float | None = None) -> float:
    vals = [float(r["adj_r2"]) for r in rows if r["estimator"] == estimator
            and (r["tau"] == "" if tau is None else r["tau"] != "" and float(r["tau"]) == tau)]
    return float(np.mean(vals)) if vals else float("nan")


def check_mc_rows(out: Path, ctx: dict) -> list[str]:
    rows = read_mc_rows(out)
    problems = []
    for rep in range(ctx["reps"]):
        got = {}
        for r in rows:
            if r["rep"] == str(rep):
                got[r["estimator"]] = got.get(r["estimator"], 0) + 1
        if got != MC_ROWS_PER_REP:
            problems.append(f"rep {rep}: rows per estimator {got}, expected {MC_ROWS_PER_REP}")
    if len(rows) != ctx["reps"] * sum(MC_ROWS_PER_REP.values()):
        problems.append(f"{len(rows)} rows, expected 21 per repetition")
    return problems


def check_mc_recovery(out: Path, ctx: dict) -> list[str]:
    rows = read_mc_rows(out)
    means = {"ufa": _mc_mean(rows, "ufa"), "idw-ufa": _mc_mean(rows, "idw-ufa"),
             "qfa-ini-tau@0.9": _mc_mean(rows, "qfa-ini-tau", 0.9)}
    return [f"{k}: mean adjusted R2 {v:.4f} < {RECOVERY_FLOOR}"
            for k, v in means.items() if not v >= RECOVERY_FLOOR]


def check_mc_blind(out: Path, ctx: dict) -> list[str]:
    rows = read_mc_rows(out)
    means = {"pca": _mc_mean(rows, "pca"),
             "qfa-ini-tau@0.5": _mc_mean(rows, "qfa-ini-tau", 0.5)}
    return [f"{k}: mean adjusted R2 {v:.4f} > {BLIND_CEILING}; the factor is "
            "tail-only and should stay invisible here"
            for k, v in means.items() if not v <= BLIND_CEILING]


CHECKS = {
    "estimate-idw": {"rank_one": check_rank_one, "orthonormal": check_orthonormal,
                     "recovery": check_recovery, "weights": check_weights,
                     "se_match": check_se_match},
    "infer-wide": {"se_positive": check_se_positive, "se_identity": check_se_identity},
    "rank-units": {"rank_one": check_rank_one, "eigenvalues": check_eigenvalues,
                   "threshold_count": check_threshold_count},
    "mc-table2": {"rows": check_mc_rows, "recovery": check_mc_recovery,
                  "blind": check_mc_blind},
}


def run_checks(workload: str, out: Path, ctx: dict) -> dict[str, list[str]]:
    """Problems per failing check; a check that cannot read its files fails."""
    found = {}
    for name, check in CHECKS[workload].items():
        try:
            problems = check(out, ctx)
        except (OSError, ValueError, KeyError, IndexError, np.linalg.LinAlgError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            found[name] = problems
    return found
