"""Layered benchmark for cbp: four seeded workloads, every packing checked.

Usage, from the root of a checkout (no build step; ``src/`` is imported):

    python3 benchmarks/run.py --workload exact-small --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (trace files go to ``benchmarks/out/``).
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it state the
sample counts, the failures and the bins digest.

Each run is a single-process closed loop (one caller, no threads or pools)
in a fresh worker process; see ``worker.py``. ``setup_s`` is the time from
starting a fresh worker process to its first timed op (interpreter start,
``import cbp`` and instance generation): the median of ``SETUP_PROBES``
set-up-only processes plus the measured run's own set-up.

Machine speed on a shared host drifts by up to 2x within seconds, so every
end-to-end time is scaled to a reference speed measured by interleaved
calibration chunks (see ``worker.py``); the raw figures are printed on the
info lines.

Seeds: ``DEFAULT_SEED`` is the one quoted in the committed ``BENCH_*.json``
files; confirm a claimed gain on ``HOLDOUT_SEED`` as well.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HOLDOUT_SEED = 7919
SETUP_PROBES = 10
RUN_DEADLINE_S = 170.0


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class BenchError(Exception):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    """Start a fresh worker process; return its JSON report.

    ``setup_s`` in the report is the time from the spawn to the worker's
    first timed op, at reference speed: the worker scales its import and
    generation by calibration chunks it times around them, and the
    interpreter start-up before it is scaled by the first of those.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    spawn_ns = now_ns()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    report = json.loads(lines[-1])
    startup_s = (report["started_ns"] - spawn_ns) / 1e9 * report["startup_speed"]
    report["setup_s"] = startup_s + report["setup_in_process_s"]
    return report


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-check sizes (same code path)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "cbp" / "__init__.py").is_file():
        print(f"no cbp sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(common + ["--setup-only"], deadline)["setup_s"])
        report = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = report["metrics"]
    if not args.trace:
        setups.append(report["setup_s"])
        metrics = {"setup_s": statistics.median(setups), **metrics}
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 1

    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} cases={report['cases']} "
        f"ops_per_pass={report['ops_per_pass']} passes={report['passes']} latency_samples={report['attempted']} "
        f"attempted={report['attempted']} failed={report['failed']} "
        f"failed_frac={report['failed'] / report['attempted']:.6f}"
    )
    if not args.trace:
        print(f"# setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
        print(
            f"# timed loop: wall {report['wall_s']:.3f} s, raw {report['raw_solves_per_s']:.3f} solves/s, "
            f"median machine speed {report['speed']:.3f} x reference"
        )
        tail = report["tail"]
        print(
            f"# solve_p90_ms={tail['solve_p90_ms']:.6f} over {tail['samples']} op latencies, "
            f"{tail['beyond']} beyond it; bins_ratio_max={tail['bins_ratio_max']:.6f} "
            f"(printed, not gated; see benchmarks/README.md)"
        )
    print(f"# bins_digest={report['digest']}")
    for case_id, op, why in report["failures"]:
        print(f"# FAILED {case_id} {op}: {why}")
    print(
        json.dumps(
            {
                "correct": report["correct"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
