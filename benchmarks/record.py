"""Run the benchmark over several seeds and write a ``BENCH_<label>.json`` point.

    python3 benchmarks/record.py --label baseline --seeds 1-10

Every workload of BENCHMARK.json runs once per seed untraced (end-to-end
metrics) and once traced at ``DEFAULT_SEED`` (per-layer metrics), each in
its own ``run.py`` process. For every end-to-end metric the file keeps each
run's value, the median, the quartiles and the spread (inter-quartile
distance over the median) next to the metric's bound. The file is written
to this directory; a later change adds its own file, so the files form the
trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import DEFAULT_SEED, HOLDOUT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "run_s": round(time.monotonic() - start, 3),
        "info": [line[2:] for line in lines[:-1] if line.startswith("# ")],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summarize(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bound,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "label": args.label,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "workloads": {},
    }
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run(name, s, bench["run_seconds"], 0) for s in seed_list(args.seeds)]
        traced = [run(name, DEFAULT_SEED, bench["run_seconds"], 1)]
        summary = summarize(runs, bounds)
        record["workloads"][name] = {"summary": summary, "runs": runs, "traced": traced}
        for metric, s in summary.items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  <-- above a third of its bound"
            print(f"{name:14s} {metric:16s} median {s['median']:12.5g} spread {s['spread']:.3f} bound {s['bound']}{flag}")
        sys.stdout.flush()
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
