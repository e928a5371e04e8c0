"""submodsum benchmark: one workload, one process, one seeded run.

    python3 perfbench/run.py --workload cli-summarize --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): cli-summarize, scan-logdet, learn.  The run
generates its inputs from --seed, sets up, runs one warm-up operation,
then issues operations back to back (closed loop, one client) for
--seconds of wall time, stopping at the end of a mix cycle once the
workload's minimum operation count is reached (but by 3 x --seconds).  Input
generation and the output checks run between operations, outside the
timed region.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the package's layer boundaries are wrapped (tracer.py,
layers.py) and it carries the per-layer metrics instead, and the spans
are written to .perfbench_out/trace-<workload>-seed<seed>.jsonl.  The
line before it is a JSON record of the environment, the tail percentile,
the pick digest and any failed checks.  --size tiny runs the same paths
on toy inputs for smoke.py.

The run pins BLAS to one thread and clears SUBMOD_THREADS in its own
environment before numpy is imported.
"""

from __future__ import annotations

import os

# must precede any numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SUBMOD_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
IMPORT_REPS = 5
SETUP_REPS = 5

# name -> (unit, what it is); every end-to-end metric printed by --trace 0
END_TO_END_UNITS = {
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "objective_mean": "value",
    "summary_vrouge": "ratio",
}


def _import_seconds() -> float:
    """Median import time of the package in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import submodsum.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _environment(seed: int, view_bytes: float) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "view_bytes": view_bytes,
        "seed": seed,
    }


def _tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value
    (the maximum when there are too few samples for that)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    try:
        import submodsum  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the submodsum package from {SRC}: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer()
    if args.trace:
        layers.install(tracer)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        return _measure(args, tracer, workdir, WORKLOADS[args.workload], SIZES[args.size])
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, tracer, workdir: Path, workload_cls, sizes) -> int:
    wl = workload_cls(args.size, args.seed, workdir)
    import_s = _import_seconds()

    setup_times = []
    for r in range(SETUP_REPS):
        gc.collect()
        tracer.active = bool(args.trace)
        with tracer.operation("setup", f"setup-{r}"):
            t0 = perf_counter()
            wl.setup()
            setup_times.append(perf_counter() - t0)
        tracer.active = False

    attempted = failed = 0
    problems: list[str] = []
    times: list[float] = []
    values: list[float] = []
    vrouges: list[float] = []
    digest = hashlib.sha256()

    def one(i: int, timed: bool) -> None:
        nonlocal attempted, failed
        prep = wl.prepare(i)
        gc.collect()
        attempted += 1
        result = None
        error = None
        tracer.active = bool(args.trace) and timed
        try:
            with tracer.operation("op" if timed else "warmup", i):
                t0 = perf_counter()
                result = wl.run(i, prep)
                dt = perf_counter() - t0
        except Exception as exc:  # any failure of the program counts, the run goes on
            error = f"op {i}: {type(exc).__name__}: {exc}"
        finally:
            tracer.active = False
        if error is None:
            try:
                outcome = wl.check(i, prep, result)
            except Exception as exc:
                error = f"op {i}: check raised {type(exc).__name__}: {exc}"
            else:
                if outcome.problems:
                    error = "; ".join(outcome.problems)
        wl.cleanup(i, prep)
        if error is not None:
            failed += 1
            problems.append(error)
            return
        if timed:
            times.append(dt)
            values.extend(outcome.values)
            vrouges.extend(outcome.vrouges)
            if i <= wl.cycle:  # the first mix cycle, reached by every run
                digest.update(json.dumps(outcome.picks).encode())

    one(0, timed=False)  # warm-up: checked, not timed
    start = perf_counter()
    i = 1
    while True:
        elapsed = perf_counter() - start
        done = (i - 1) % wl.cycle == 0 and i > wl.min_ops
        if elapsed >= args.seconds and (done or elapsed >= 3 * args.seconds):
            break
        one(i, timed=True)
        i += 1

    if not times or not values:
        print(json.dumps({"problems": ["no operation completed"] + problems[:10]}))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    tail_pct, tail = _tail(times)
    p50 = statistics.median(times)
    view_bytes = float(getattr(wl, "view_bytes", 0.0))
    span_problems = layers.missing_spans(tracer, wl.name) if args.trace else []
    correct = failed == 0 and not span_problems

    if args.trace:
        metrics = layers.per_layer_metrics(tracer, len(times), len(setup_times),
                                           view_bytes, p50)
        path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tracer.write_spans(path)
    else:
        metrics = {
            "op_s_p50": p50,
            "op_s_tail": tail,
            "ops_per_s": len(times) / sum(times),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": (attempted - failed) / attempted,
            "objective_mean": statistics.fmean(values),
            "summary_vrouge": statistics.fmean(vrouges),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    info = {
        "workload": wl.name,
        "size": args.size,
        "params": {k: (v.to_json() if hasattr(v, "to_json") else v)
                   for k, v in sizes[wl.name].items()},
        "ops": len(times),
        "op_times": [round(t, 4) for t in times],
        "tail_percentile": round(tail_pct, 2),
        "picks_digest": digest.hexdigest()[:16],
        "trace": int(args.trace),
        "env": _environment(args.seed, view_bytes),
        "problems": (span_problems + problems)[:10],
    }
    if args.trace:
        info["shares"] = layers.dominant_shares(metrics, wl.name, statistics.fmean(times))
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="submodsum benchmark (one workload per process)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


if __name__ == "__main__":
    sys.exit(run(parse_args()))
