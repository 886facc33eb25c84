"""Benchmark of the ufm estimators: one workload per process.

    python3 benchmark/run.py --workload estimate-idw --seed 1 --seconds 25 --trace 0

Runs whole rounds of the workload's operations for --seconds seconds after
set-up, checks every operation's outputs, and prints one JSON object as the
last line of standard output. With --trace 0 it reports the end-to-end
metrics; with --trace 1 it wraps each layer's entry points and reports
per-layer metrics instead. See README.md in this directory.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: the CLI workloads run on one core and mc-table2 on its
# two worker threads, so the benchmark never starts more threads than the
# two cores it is sized for.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["estimate-idw", "infer-wide", "rank-units", "mc-table2"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _import_ufm():
    """Import ufm from this checkout's src/, never from anywhere else."""
    pkg = ROOT / "src" / "ufm"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no ufm package at {pkg}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import ufm
    if Path(ufm.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported ufm from {ufm.__file__}, not {pkg}")


def _attempt(workload, op, out: Path):
    """Run one operation; returns (wall seconds, {check: problems})."""
    start = time.perf_counter()
    try:
        code, err = op.run(out), None
    except Exception:  # an operation that raises is a failed operation
        code, err = None, traceback.format_exc()
    wall = time.perf_counter() - start
    if code == 0:
        problems = checks.run_checks(workload.name, out, op.ctx)
    else:
        problems = {"exit": [err or f"exit code {code}"]}
    shutil.rmtree(out, ignore_errors=True)
    return wall, problems


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def add(self, workload, op, k: int, problems: dict) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if op.known_fault and set(problems) == {"rank_one"}:
            return
        self.correct = False
        for name, items in problems.items():
            for item in items:
                print(f"{workload.name} round {k} {op.label}: {name}: {item}",
                      file=sys.stderr)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_ufm()
    import workloads

    work = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        ops = wl.round(0)
        setup_s = time.perf_counter() - _START

        tr = tracer.Tracer() if args.trace else None
        if tr:
            tr.install()
            for name in tr.absent:
                print(f"trace: {name} is absent; its span reads 0", file=sys.stderr)
        tally = Tally()
        walls, round_traces, round_walls = [], [], []
        begin = time.perf_counter()
        k = 0
        while True:
            recs, round_wall = [], 0.0
            for j, op in enumerate(ops):
                if tr:
                    tr.collect()
                wall, problems = _attempt(wl, op, work / f"out-{k}-{j}")
                if tr:
                    recs.append(tr.collect())
                tally.add(wl, op, k, problems)
                print(f"round {k} {op.label}: {wall:.4f} s", file=sys.stderr)
                walls.append(wall)
                round_wall += wall
            round_traces.append(recs)
            round_walls.append(round_wall)
            if k == 0:
                # Set-up plus one round: what one CLI invocation per process uses.
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            k += 1
            if time.perf_counter() - begin >= args.seconds:
                break
            ops = wl.round(k)

        if tr:
            # Tracing overhead: rerun one warm round untraced on the same inputs.
            tr.uninstall()
            again = 1 if k > 1 else 0
            ops = wl.round(again)
            untraced = 0.0
            for j, op in enumerate(ops):
                wall, problems = _attempt(wl, op, work / f"again-{j}")
                tally.add(wl, op, again, problems)
                untraced += wall
            overhead = (round_walls[again] - untraced) / len(ops)
            metrics = tracer.layer_metrics(round_traces[0],
                                           [r for rs in round_traces for r in rs],
                                           overhead)
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "op_p50_s": {"value": statistics.median(walls), "unit": "s"},
                "ops_per_s": {"value": len(walls) / sum(walls), "unit": "1/s"},
                "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
