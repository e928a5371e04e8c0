"""Smoke test of the benchmark itself, at toy size (a few seconds in all).

    python3 perfbench/smoke.py

For every workload, runs run.py untraced and traced with --size tiny and
checks that:

* the run exits 0 and its last line is the result object, correct, with
  every end-to-end (untraced) or per-layer (traced) metric that
  BENCHMARK.json names, each with the unit BENCHMARK.json gives;
* every span mapped to the workload fired (the traced run fails if not);
* the traced run picked exactly what the untraced run picked.

Then checks that the benchmark, copied alone into an empty directory,
exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _check_run(done, declared: dict, label: str) -> tuple[dict, list[str]]:
    problems = []
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return {}, [f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}"]
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") or result.get("attempted", 0) < 1:
        problems.append(f"{label}: not correct: {info.get('problems')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"{label}: metrics {sorted(set(metrics) ^ set(declared))} "
                        "differ from BENCHMARK.json")
    for name, unit in declared.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: metric {name} is {got}, want unit {unit}")
    return info, problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        info0, p0 = _check_run(_run(ROOT, wl, 0), end_to_end, f"{wl} untraced")
        info1, p1 = _check_run(_run(ROOT, wl, 1), per_layer, f"{wl} traced")
        problems += p0 + p1
        if info0 and info1 and info0["picks_digest"] != info1["picks_digest"]:
            problems.append(f"{wl}: traced picks differ from untraced picks")
        print(f"{wl}: {'ok' if not p0 + p1 else 'FAIL'}", flush=True)

    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(bare, spec["workloads"][0]["name"], 0)
        if done.returncode == 0 or '"correct"' in done.stdout:
            problems.append("benchmark without the package did not fail cleanly")
        print(f"bare directory: exit {done.returncode}")

    for line in problems:
        print("FAIL", line)
    print("smoke ok" if not problems else f"smoke failed ({len(problems)})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
