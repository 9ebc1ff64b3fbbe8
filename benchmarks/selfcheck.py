"""Fast self-check of the benchmark on the same code path at tiny sizes.

    python3 benchmarks/selfcheck.py

For every workload it runs ``run.py --tiny`` untraced twice, traced twice,
and untraced once more with ``CBP_SEED`` exported, then checks that

* the last line is the result object, with every metric BENCHMARK.json
  names (end-to-end untraced, per-layer traced) and its unit;
* ``correct`` holds and nothing failed;
* the bins digest, the bins ratios and every count repeat exactly across
  invocations, traced or not;
* exporting ``CBP_SEED`` changes nothing.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
# Metrics besides the counts that depend only on the seed's instances.
DETERMINISTIC = {"bins_ratio_mean", "bins_ratio_tail", "bpc.assign.evaluated_frac", "maxsize.guesses_per_split"}


def invoke(workload: str, trace: int, env_extra: dict | None = None) -> tuple[dict, str]:
    env = dict(os.environ, **(env_extra or {}))
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split("=", 1)[1] for line in lines if line.startswith("# bins_digest="))
    return json.loads(lines[-1]), digest


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            spec = {m["name"]: m["unit"] for m in bench[key]}
            (a, digest_a), (b, digest_b) = invoke(name, trace), invoke(name, trace)
            for result in (a, b):
                expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name} trace={trace}: result keys")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                expect(got == spec, f"{name} trace={trace}: every metric named, with its unit")
                expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: correct, none failed")
            expect(digest_a == digest_b, f"{name} trace={trace}: bins digest repeats")
            steady = [k for k, unit in spec.items() if unit == "count" or k in DETERMINISTIC]
            same = all(a["metrics"][k]["value"] == b["metrics"][k]["value"] for k in steady)
            expect(same, f"{name} trace={trace}: {len(steady)} counts and ratios repeat")
            if trace == 0:
                untraced_digest = digest_a
            else:
                expect(digest_a == untraced_digest, f"{name}: tracing leaves the bins unchanged")
        c, digest_c = invoke(name, 0, {"CBP_SEED": "12345"})
        expect(digest_c == untraced_digest, f"{name}: CBP_SEED changes nothing")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
