"""Command-line front end.

Subcommands: estimate, rank, select, mean-loadings, infer, simulate.
Option precedence is CLI flag > config file (flat key=value lines) >
built-in default; the built-in defaults reproduce the simulation study
without any flags. All outputs are written atomically; exit status is 0 on
success, 1 on usage errors, and 2 on numeric failures.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import UfmError, UfmWarning
from .idw import fit_panel
from .inference import mean_loadings, plugin_covariances, standard_errors
from .output import atomic_write_text, write_csv, write_json, write_matrix
from .panel import EstimatorConfig, load_panel, make_quantile_grid
from .ranksel import estimate_r, select_factors
from .simlab import ExperimentSpec, monte_carlo_run

_DEFAULTS = {
    "layout": "wide",
    "m": 9,
    "rank": "auto",
    "h": None,
    "hd": 0.04,
    "kernel_order": 14,
    "c": 0.2,
    "cr": None,
    "alpha": 1.0,
    "tau": None,
    "seed": 0,
    "reps": 100,
    "sizes": [50],
    "threads": 1,
    "out_dir": "out",
    "method": "idw-ufa",
    "table": 2,
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # no prefix matching: an option a subcommand lacks must not resolve to
        # another one (``simulate --h`` would otherwise mean ``--help``)
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def config_keys(self) -> dict:
        """Config-file key -> option: each flag spelling without dashes, and the dest."""
        keys = {}
        for action in self._actions:
            if action.option_strings and action.dest not in ("help", "config"):
                for key in (action.dest, *(s.lstrip("-") for s in action.option_strings)):
                    keys[key] = action
        return keys


def _build_parser() -> tuple[_Parser, dict]:
    """The root parser, and each subcommand's parser by name."""
    parser = _Parser(prog="ufm", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def output(p):
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--config", help="flat key=value option file")

    def common(p, fits=True):
        """Panel, grid and PEL options; ``fits`` adds those of the factor fit."""
        p.add_argument("--input", required=True, help="panel CSV path")
        p.add_argument("--layout", choices=["wide", "long"])
        p.add_argument("--M", dest="m", type=int)
        p.add_argument("--hd", type=float, help="stencil shift h_d")
        p.add_argument("--C", dest="c", type=float, help="nuclear-norm penalty constant")
        p.add_argument("--Cr", dest="cr", type=float, help="rank threshold")
        if fits:
            p.add_argument("--rank", help="positive integer or 'auto'")
            p.add_argument("--h", type=float, help="smoothing bandwidth")
            p.add_argument("--kernel-order", dest="kernel_order", type=int,
                           choices=[2, 14])
        output(p)

    p_est = sub.add_parser("estimate", help="fit factors and loadings")
    p_est.add_argument("--method", choices=["ufa", "idw-ufa"])
    common(p_est)

    p_rank = sub.add_parser("rank", help="estimate the number of factors")
    common(p_rank, fits=False)

    p_sel = sub.add_parser("select", help="count factors of tolerated strength")
    p_sel.add_argument("--alpha", type=float)
    p_sel.add_argument("--tau", type=float, help="quantile target; omit for the mean")
    common(p_sel)

    p_mean = sub.add_parser("mean-loadings", help="mean-model loadings and SEs")
    common(p_mean)

    p_inf = sub.add_parser("infer", help="plug-in standard errors")
    p_inf.add_argument("--tau", type=float, help="also emit common-component SEs at tau")
    common(p_inf)

    p_sim = sub.add_parser("simulate", help="replicate the simulation tables")
    p_sim.add_argument("--table", type=int, choices=[1, 2, 3, 4])
    p_sim.add_argument("--sizes", type=int, nargs="+")
    p_sim.add_argument("--reps", type=int)
    p_sim.add_argument("--threads", type=int)
    p_sim.add_argument("--seed", type=int)
    output(p_sim)

    return parser, sub.choices


def _read_config_file(path: str, keys: dict) -> dict:
    """Parse flat ``key = value`` lines into dest -> value, converted as the
    flag's own value would be; a key that is no option of the subcommand is
    an error."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ValueError(f"config key {key!r} is not an option of this subcommand")
        action = keys[key]
        convert = action.type or str
        value = ([convert(v) for v in value.split()] if action.nargs == "+"
                 else convert(value))
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config key {key!r}: {value!r} is not one of "
                             f"{list(action.choices)}")
        out[action.dest] = value
    return out


def _merged_options(args: argparse.Namespace, keys: dict) -> dict:
    """CLI flag > config file > built-in default, for the subcommand's own options."""
    file_opts = _read_config_file(args.config, keys) if args.config else {}
    opts = {}
    for key, cli_val in vars(args).items():
        if cli_val is not None:
            opts[key] = cli_val
        else:
            opts[key] = file_opts.get(key, _DEFAULTS.get(key))
    return opts


def _check_tau(opts: dict) -> None:
    """Reject a --tau off the quantile grid before any fitting starts."""
    if opts["tau"] is not None:
        make_quantile_grid(opts["m"], opts["hd"]).index(opts["tau"])


def _inputs(opts: dict):
    return load_panel(opts["input"], opts["layout"]), make_quantile_grid(opts["m"], opts["hd"])


def _fit(opts: dict, weighted: bool = True):
    """The panel, its grid, and :func:`fit_panel` on them under the options."""
    panel, grid = _inputs(opts)
    rank = opts["rank"] if opts["rank"] == "auto" else int(opts["rank"])
    config = EstimatorConfig(rank=rank, bandwidth_h=opts["h"],
                             kernel_order=opts["kernel_order"])
    fit = fit_panel(panel, grid, config, penalty_const=opts["c"], threshold=opts["cr"],
                    weighted=weighted)
    return panel, grid, fit


def _tau_name(tau: float) -> str:
    return format(tau, "g")


def _write_estimate(out_dir: Path, panel, grid, est, weights):
    write_matrix(out_dir / "factors.csv", est.factors, row_ids=list(panel.col_ids),
                 col_ids=[f"f{j}" for j in range(est.rank)])
    for m, tau in enumerate(grid.levels):
        write_matrix(out_dir / f"loadings_tau_{_tau_name(tau)}.csv", est.loadings[m],
                     row_ids=list(panel.row_ids),
                     col_ids=[f"f{j}" for j in range(est.rank)])
    if weights is not None:
        # one "tau,row,col,weight" line per cell, in write_csv's number format
        cols = [f"{s}," for s in range(weights.w.shape[2])]
        lines = ["tau,row,col,weight"]
        for tau, w_m in zip(grid.levels, weights.w):
            for i, w_mi in enumerate(w_m.tolist()):
                prefix = f"{_tau_name(tau)},{i},"
                lines += [prefix + c + format(v, ".17g") for c, v in zip(cols, w_mi)]
        atomic_write_text(out_dir / "weights.csv", "\n".join(lines) + "\n")


def _write_ses(out_dir: Path, panel, grid, est, weights, tau_common=None):
    mean = mean_loadings(panel, est)
    covs = plugin_covariances(panel, est, weights, mean, grid)
    se = standard_errors(est, covs, tau_common)
    f_ids = [f"f{j}" for j in range(est.rank)]
    write_matrix(out_dir / "se_factors.csv", se.factor, row_ids=list(panel.col_ids),
                 col_ids=f_ids)
    for tau, se_l in zip(grid.levels, se.loading):
        write_matrix(out_dir / f"se_loadings_tau_{_tau_name(tau)}.csv", se_l,
                     row_ids=list(panel.row_ids), col_ids=f_ids)
    if se.common is not None:
        write_matrix(out_dir / f"se_common_tau_{_tau_name(tau_common)}.csv", se.common,
                     row_ids=list(panel.row_ids), col_ids=list(panel.col_ids))
    return mean, se


def _manifest(out_dir: Path, opts: dict, keys, caught: list, started: float,
              extra=None):
    """``keys`` are the options the subcommand defines; only those are dumped."""
    payload = {
        "version": __version__,
        "config": {k: opts[k] for k in sorted(keys) if k != "config"},
        "seed": opts.get("seed"),
        "timings": {"seconds": time.time() - started},
        "warnings": caught,
    }
    if extra:
        payload.update(extra)
    write_json(out_dir / "manifest.json", payload)


def _cmd_estimate(opts, out_dir):
    panel, grid, fit = _fit(opts, weighted=opts["method"] == "idw-ufa")
    est, weights = fit.estimate, fit.weights
    _write_estimate(out_dir, panel, grid, est, weights)
    if weights is not None:
        _write_ses(out_dir, panel, grid, est, weights)
    print(f"rank used: {est.rank} (estimated {fit.report.r_hat}); "
          f"converged: {est.converged}; outputs in {out_dir}")
    return {"r_hat": fit.report.r_hat, "rank_used": est.rank,
            "converged": bool(est.converged), "sweeps": est.n_outer,
            "clipped_fraction": weights.clipped_fraction if weights else 0.0}


def _cmd_rank(opts, out_dir):
    report = estimate_r(*_inputs(opts), opts["c"], opts["cr"])
    print(f"r_hat = {report.r_hat}  (threshold {report.threshold:.6g})")
    print("eigenvalues:", " ".join(f"{v:.6g}" for v in report.eigenvalues[:10]))
    write_csv(out_dir / "rank_eigenvalues.csv", ["j", "eigenvalue"],
              [[j + 1, v] for j, v in enumerate(report.eigenvalues)])
    return {"r_hat": report.r_hat, "threshold": report.threshold}


def _cmd_select(opts, out_dir):
    _check_tau(opts)
    panel, grid, fit = _fit(opts)
    est = fit.estimate
    mean = mean_loadings(panel, est)
    if opts["tau"] is None:
        rep = select_factors(est, grid, mean.lam_bar, target="mean",
                             alpha=opts["alpha"], constant=opts["c"])
    else:
        rep = select_factors(est, grid, target=opts["tau"], alpha=opts["alpha"],
                             constant=opts["c"])
    print(f"target {rep.target}: selected {rep.selected} of {est.rank} "
          f"(threshold {rep.threshold:.6g})")
    write_csv(out_dir / "strength_report.csv",
              ["target", "alpha", "selected", "threshold", "singular_values"],
              [[rep.target, rep.alpha, rep.selected, rep.threshold,
                " ".join(f"{v:.8g}" for v in rep.singular_values)]])
    return {"selected": rep.selected}


def _cmd_mean_loadings(opts, out_dir):
    panel, grid, fit = _fit(opts)
    est = fit.estimate
    mean, se = _write_ses(out_dir, panel, grid, est, fit.weights)
    f_ids = [f"f{j}" for j in range(est.rank)]
    write_matrix(out_dir / "mean_loadings.csv", mean.lam_bar,
                 row_ids=list(panel.row_ids), col_ids=f_ids)
    write_matrix(out_dir / "se_mean_loadings.csv", se.mean_loading,
                 row_ids=list(panel.row_ids), col_ids=f_ids)
    print(f"mean loadings written to {out_dir}")
    return {}


def _cmd_infer(opts, out_dir):
    _check_tau(opts)
    panel, grid, fit = _fit(opts)
    _write_ses(out_dir, panel, grid, fit.estimate, fit.weights, tau_common=opts["tau"])
    print(f"standard errors written to {out_dir}")
    return {"clipped_fraction": fit.weights.clipped_fraction}


def _cmd_simulate(opts, out_dir):
    name = {1: "table1", 2: "table2", 3: "table3", 4: "table4_fig1"}[opts["table"]]
    spec = ExperimentSpec(name=name, sizes=tuple(opts["sizes"]), reps=opts["reps"])
    result = monte_carlo_run(spec, seed=opts["seed"], out_dir=out_dir,
                             threads=opts["threads"], write_manifest=False)
    for row in result["summary"]:
        print(row)
    return {"experiment": spec.name, "reps": spec.reps}


_COMMANDS = {
    "estimate": _cmd_estimate,
    "rank": _cmd_rank,
    "select": _cmd_select,
    "mean-loadings": _cmd_mean_loadings,
    "infer": _cmd_infer,
    "simulate": _cmd_simulate,
}


def run_cli(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.time()
    try:
        opts = _merged_options(args, commands[args.command].config_keys())
        out_dir = Path(opts["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always", UfmWarning)
            extra = _COMMANDS[args.command](opts, out_dir)
        caught = [str(w.message) for w in rec if issubclass(w.category, UfmWarning)]
        _manifest(out_dir, opts, vars(args), caught, started, extra)
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UfmError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run_cli())
