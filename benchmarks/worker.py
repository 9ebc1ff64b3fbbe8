"""One run of one workload, in a fresh process (started by ``run.py``).

A pass recognizes each instance once (timed, but outside op latencies),
then runs every applicable op on it: one ``harness.run_algorithm`` call
per algorithm of the workload and, on exact-small, one
``oracle.opt_bpc_exact`` call. Passes repeat until the run's time is
spent, and only whole passes are timed. Every op's packing is checked
outside the timed region. The last line of stdout is a JSON report.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / "benchmarks" / "out"
ORACLE_OP = "opt_bpc_exact"
ORACLE_LIMIT = 16
# A slower op is recorded as a timeout (a failure), never dropped.
OP_TIMEOUT_S = 30.0

# Machine speed on a shared host differs by up to 2x between runs a few
# minutes apart, and drifts within a run. Before any op that starts
# CAL_INTERVAL_NS or more after the last calibration, the loop times a fixed
# calibration chunk, and it scales each op latency by CAL_REF_NS / (median
# chunk time within CAL_WINDOW_NS of the op): times are reported at the
# reference speed, where one chunk takes CAL_REF_NS (its median time on the
# 2-vCPU x86-64 host, CPython 3.11, that recorded the baseline). Consecutive
# chunk times correlate (0.25 at 20 ms apart, 0.07 at 60 ms), so the window
# is short; a 0.5 s window made solves_per_s less steady across runs.
CAL_INTERVAL_NS = 20_000_000
CAL_WINDOW_NS = 60_000_000
CAL_REF_NS = 500_000

# Paper ceilings against an exact or planted OPT (criterion 04 of the tests).
CEILINGS = {
    "approx_bpc": lambda opt: math.ceil(Fraction(2445, 1000) * opt),
    "abs_bpb": lambda opt: math.ceil(Fraction(5, 3) * opt),
    "split_approx": lambda opt: math.ceil((1 + 2 / math.e) * opt),
    "multipartite_pack": lambda opt: math.ceil(Fraction(3, 2) * opt),
}

class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true", help="self-check sizes")
    return p.parse_args(argv)


def canonical(packing) -> list[list[int]]:
    return sorted(sorted(b) for b in packing.bins)


def lower_bound(instance) -> int:
    large = sum(1 for i in instance.items if instance.sizes[i] > Fraction(1, 2))
    return max(math.ceil(instance.total_size), large)


def calibration_chunk() -> int:
    """Time fixed pure-Python rational arithmetic, to track machine speed.

    The young generation is collected first and the collector is off while
    the chunk runs, so garbage the program left behind is not collected on
    the chunk's clock. Returns the chunk's duration in ns.
    """
    gc.collect(0)
    gc.disable()
    start = time.perf_counter_ns()
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i % 7 + 1, i % 97 + 1)
    end = time.perf_counter_ns()
    gc.enable()
    return end - start


class Runner:
    """Closed loop over the cases; ops interleaved with calibration chunks.

    Records are (case index, op name, latency ns, Packing or failure
    string, start ns). ``calibrations`` holds (midpoint ns, duration ns) of
    every chunk, and ``recognitions`` (start ns, duration ns) of every
    in-loop ``recognize`` call.
    """

    def __init__(self, workload, cases):
        from cbp import graphs, harness, oracle

        self.workload = workload
        self.cases = cases
        self.graphs, self.harness, self.oracle = graphs, harness, oracle
        self.span = lambda name, fn, *args: fn(*args)
        self.calibrations: list[tuple[int, int]] = []
        self.recognitions: list[tuple[int, int]] = []
        self.first_bins: Optional[dict] = None
        self.first_pass_rss_mb = 0.0
        self._last_cal = 0

    def ops_for(self, instance, info) -> list[str]:
        ops = []
        for name in self.workload.algorithms:
            if name in ("ffd", "asymptotic_bp") and instance.edges:
                continue
            if name == "split_approx" and info.split_partition is None:
                continue
            if name == "abs_bpb" and info.bipartition is None:
                continue
            if name == "multipartite_pack" and info.parts is None:
                continue
            ops.append(name)
        if self.workload.oracle_op:
            ops.append(ORACLE_OP)
        return ops

    def _op(self, name, instance, info):
        if name == ORACLE_OP:
            return self.oracle.opt_bpc_exact(instance, limit_n=ORACLE_LIMIT)[0]
        return self.harness.run_algorithm(name, instance, info)

    def _calibrate_if_due(self) -> None:
        now = time.perf_counter_ns()
        if now - self._last_cal < CAL_INTERVAL_NS:
            return
        duration = calibration_chunk()
        end = time.perf_counter_ns()
        self.calibrations.append(((now + end) // 2, duration))
        self._last_cal = end

    def one_pass(self) -> list[tuple]:
        records = []
        for ci, case in enumerate(self.cases):
            self._calibrate_if_due()
            start = time.perf_counter_ns()
            info = self.graphs.recognize(case.instance)
            self.recognitions.append((start, time.perf_counter_ns() - start))
            for name in self.ops_for(case.instance, info):
                self._calibrate_if_due()
                start = time.perf_counter_ns()
                try:
                    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
                    try:
                        outcome = self.span("op." + name, self._op, name, case.instance, info)
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                except OpTimeout:
                    outcome = "timeout"
                except Exception as exc:  # a raised error is a failed op, not a crash
                    outcome = f"error: {type(exc).__name__}: {exc}"
                latency = time.perf_counter_ns() - start
                records.append((ci, name, latency, self._against_first(ci, name, outcome), start))
        self._calibrate_if_due()
        return records

    def timed_passes(self, seconds: float, passes: int = 0):
        """Whole passes until the time is spent (or exactly ``passes``).

        Returns the wall time of each pass and the records of each pass.
        """
        pass_s, records = [], []
        while True:
            start = time.perf_counter()
            rec = self.one_pass()
            pass_s.append(time.perf_counter() - start)
            records.append(rec)
            if self.first_bins is None:
                # Memory after exactly one pass, however many fit in the run.
                self.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                self.first_bins = {
                    (ci, name): outcome if isinstance(outcome, str) else canonical(outcome)
                    for ci, name, _, outcome, _ in rec
                }
            if passes:
                if len(pass_s) >= passes:
                    break
            elif sum(pass_s) + statistics.fmean(pass_s) / 2 >= seconds:
                break
        return pass_s, records

    def _against_first(self, ci: int, name: str, outcome):
        """After the first pass, keep None where an op repeated its first-pass
        bins and a failure string otherwise, so memory stays flat."""
        if self.first_bins is None or isinstance(outcome, str):
            return outcome
        if canonical(outcome) == self.first_bins[(ci, name)]:
            return None
        return "nondeterministic: bins differ between passes"

    def speed(self):
        """Map an interval to its local speed factor (reference / measured).

        The factor uses the median of the calibration chunks within
        ``CAL_WINDOW_NS`` of the interval, and at least the nearest four.
        """
        cals = sorted(self.calibrations)
        mids = [m for m, _ in cals]

        def factor(start_ns: int, end_ns: int) -> float:
            lo = bisect.bisect_left(mids, start_ns - CAL_WINDOW_NS)
            hi = bisect.bisect_right(mids, end_ns + CAL_WINDOW_NS)
            if hi - lo < 4:
                lo = max(0, min(lo, bisect.bisect_left(mids, start_ns) - 2))
                hi = min(len(mids), max(hi, bisect.bisect_right(mids, end_ns) + 2))
            return CAL_REF_NS / statistics.median(d for _, d in cals[lo:hi])

        return factor

    def loop_s(self, passes: list[list[tuple]], since_ns: int = 0) -> float:
        """Op plus in-loop recognition time of ``passes``, at reference speed."""
        factor = self.speed()
        ops = sum(lat * factor(start, start + lat) for rec in passes for _, _, lat, _, start in rec)
        rec = sum(d * factor(t, t + d) for t, d in self.recognitions if t >= since_ns)
        return (ops + rec) / 1e9


def check(runner: Runner, passes: list[list[tuple]]):
    """Validate every op; return (failure per record, ratios, digest, failures)."""
    from cbp.model import Packing, validate_packing

    cases = runner.cases
    first = passes[0]
    status: dict[tuple[int, str], str] = {}
    opt_of: dict[int, int] = {}
    for ci, case in enumerate(cases):
        if case.planted_bins is not None:
            planted = Packing(case.planted_bins, "planted")
            report = validate_packing(case.instance, planted, require_cover=True)
            full = all(case.instance.size_of(b) == 1 for b in planted.bins)
            if report.feasible and full:
                opt_of[ci] = planted.bin_count
    for ci, name, _, outcome, _ in first:
        if name == ORACLE_OP and not isinstance(outcome, str):
            opt_of[ci] = outcome.bin_count

    digest = hashlib.sha256()
    ratios = []
    for ci, name, _, outcome, _ in first:
        case = cases[ci]
        key = (ci, name)
        if isinstance(outcome, str):
            status[key] = outcome
            digest.update(f"{case.case_id}\t{name}\tFAILED\n".encode())
            continue
        bins = runner.first_bins[key]
        digest.update(f"{case.case_id}\t{name}\t{json.dumps(bins)}\n".encode())
        count = outcome.bin_count
        lb = lower_bound(case.instance)
        opt = opt_of.get(ci)
        report = validate_packing(case.instance, outcome, require_cover=True)
        if not report.feasible:
            status[key] = f"infeasible: {report.violations[0].kind}"
        elif count < lb or (opt is not None and count < opt):
            status[key] = f"below reference: {count} bins, lb {lb}, opt {opt}"
        elif opt is not None and name in CEILINGS and count > CEILINGS[name](opt):
            status[key] = f"ceiling: {count} bins > {CEILINGS[name](opt)} for opt {opt}"
        else:
            status[key] = ""
        if name != ORACLE_OP:
            ratios.append(count / (opt if opt is not None else lb))

    fails = []
    for rec in passes:
        for ci, name, _, outcome, _ in rec:
            fails.append(outcome if isinstance(outcome, str) else status[(ci, name)])
    failures = sorted({(cases[ci].case_id, name, status[(ci, name)]) for (ci, name) in status if status[(ci, name)]})
    return fails, ratios, digest.hexdigest(), failures


def quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of a sorted list."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


def end_to_end(runner: Runner, passes, fails, ratios) -> tuple[dict, dict]:
    """End-to-end metrics; the p90 latency with its sample counts and the
    worst bins ratio, which are printed but not gated.

    Times are at reference speed (see CAL_REF_NS). ``solve_p50_ms`` is the
    mean of the middle fifth of the sorted latencies: with about a hundred
    ops of widely spread sizes (scale-ladder), the single middle value
    jumps between neighbouring ops. ``bins_ratio_tail`` is
    the mean ratio of the worst tenth of the ops: the plain maximum (printed
    with the p90) rests on a single instance and swings between seeds.
    """
    factor = runner.speed()
    latencies = sorted(lat * factor(start, start + lat) for rec in passes for _, _, lat, _, start in rec)
    attempted = len(latencies)
    failed = sum(1 for f in fails if f)
    worst_first = sorted(ratios, reverse=True)
    metrics = {
        "solves_per_s": attempted / runner.loop_s(passes),
        "solve_p50_ms": statistics.fmean(latencies[attempted * 2 // 5 : max(attempted * 3 // 5, attempted * 2 // 5 + 1)]) / 1e6,
        "ok_frac": 1.0 - failed / attempted,
        "bins_ratio_mean": statistics.fmean(ratios),
        "bins_ratio_tail": statistics.fmean(worst_first[: math.ceil(len(ratios) / 10)]),
        "peak_rss_mb": runner.first_pass_rss_mb,
    }
    p90 = quantile(latencies, 0.9)
    tail = {
        "solve_p90_ms": p90 / 1e6,
        "samples": attempted,
        "beyond": sum(1 for x in latencies if x > p90),
        "bins_ratio_max": worst_first[0],
    }
    return metrics, tail


def per_layer(tracer, n_passes: int, untraced_s: float, traced_s: float, import_s: float, generate_s: float) -> dict:
    """Counts per pass, and self time as a share of the traced pass time."""
    import tracing
    from cbp.harness import ALGORITHMS

    top = tracer.top_ns
    share = lambda name: tracer.self_s(name) * 1e9 / top if top else 0.0
    per_pass = lambda value: value / n_passes
    enumerated = tracer.counts["bpc.assign.enumerated"]
    splits = tracer.calls_of("bpc.split_approx")
    out = {
        "simplex.solve_max_lp.calls": per_pass(tracer.calls_of("simplex.solve_max_lp")),
        "simplex.solve_max_lp.pivots": per_pass(tracer.counts["simplex.solve_max_lp.pivots"]),
        "bpc.round_assignment.calls": per_pass(tracer.calls_of("bpc.round_assignment")),
        "bpc.assign.enumerated": per_pass(enumerated),
        "bpc.assign.evaluated_frac": tracer.calls_of("bpc.round_assignment") / enumerated if enumerated else 0.0,
        "model.validate_packing.calls": per_pass(tracer.calls_of("model.validate_packing")),
        "graphs.restrict_class_info.calls": per_pass(tracer.calls_of("graphs.restrict_class_info")),
        "packing_classic.ffd.calls": per_pass(tracer.calls_of("packing_classic.ffd")),
        "oracle.opt_bpc_exact.calls": per_pass(tracer.calls_of("oracle.opt_bpc_exact")),
        "bis.knapsack_fptas.calls": per_pass(tracer.calls_of("bis.knapsack_fptas")),
        "maxsize.max_size.calls": per_pass(tracer.calls_of("maxsize.max_size")),
        "maxsize.guesses_per_split": tracer.calls_under("bpc.split_approx", "maxsize.max_size") / splits if splits else 0.0,
    }
    for name, _, _ in tracing.LAYERS:
        out[f"{name}.self_frac"] = share(name)
    out["bpc.algorithms.self_frac"] = sum(share(n) for n in tracer.names if n.startswith("op."))
    for name in ALGORITHMS:
        nid = tracer._ids.get("op." + name)
        out[f"bpc.{name}.op_frac"] = tracer.total_ns[nid] / top if nid is not None and top else 0.0
    out["import_s"] = import_s
    out["harness.generate.s"] = generate_s
    out["traced_s"] = traced_s
    out["trace_overhead_frac"] = traced_s / untraced_s - 1.0
    return out


def layer_table(tracer, runner: Runner, passes: list[list[tuple]]) -> dict:
    """Full per-layer detail for the trace file: calls, self and total
    seconds (raw), and each op's median latency at reference speed."""
    table = {}
    for nid, name in enumerate(tracer.names):
        table[name] = {
            "calls": tracer.calls[nid],
            "self_s": tracer.self_ns[nid] / 1e9,
            "total_s": tracer.total_ns[nid] / 1e9,
        }
    factor = runner.speed()
    p50 = {}
    for rec in passes:
        for _, name, lat, _, start in rec:
            p50.setdefault(name, []).append(lat * factor(start, start + lat))
    return {
        "layers": table,
        "op_p50_ms": {name: statistics.median(v) / 1e6 for name, v in sorted(p50.items())},
        "counts": dict(tracer.counts),
        "calls_per_parent": {
            f"{tracer.names[p]} > {tracer.names[c]}": n for (p, c), n in sorted(tracer.pair_calls.items())
        },
    }


def setup_speed() -> float:
    """Machine speed (reference / measured) from fifteen calibration chunks."""
    return CAL_REF_NS / statistics.median(calibration_chunk() for _ in range(15))


def main(argv=None) -> int:
    args = parse_args(argv)
    # Set-up is timed in segments, each scaled by the machine speed measured
    # at its two ends; the calibration chunks themselves are left out.
    started_ns = now_ns()
    speeds = [setup_speed()]
    start = time.perf_counter()
    import cbp
    import tracing
    import workloads

    import_s = time.perf_counter() - start
    if not Path(cbp.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"cbp imported from {cbp.__file__}, not from this checkout's src/", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    speeds.append(setup_speed())
    start = time.perf_counter()
    cases = workload.build(args.seed, **(workload.tiny if args.tiny else {}))
    generate_s = time.perf_counter() - start
    speeds.append(setup_speed())
    result = {
        "started_ns": started_ns,
        "startup_speed": speeds[0],
        "setup_in_process_s": import_s * (speeds[0] + speeds[1]) / 2 + generate_s * (speeds[1] + speeds[2]) / 2,
        "import_s": import_s,
        "generate_s": generate_s,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(workload, cases)
    if args.trace:
        untraced_pass_s, passes = runner.timed_passes(args.seconds / 2)
        untraced_s = runner.loop_s(passes)
        tracer = tracing.Tracer()
        tracer.install()
        runner.span = tracer.call
        traced_since = time.perf_counter_ns()
        traced_pass_s, traced = runner.timed_passes(0, passes=len(untraced_pass_s))
        tracer.uninstall()
        traced_s = runner.loop_s(traced, since_ns=traced_since)
        passes += traced
    else:
        pass_s, passes = runner.timed_passes(args.seconds)

    fails, ratios, digest, failures = check(runner, passes)
    attempted = len(fails)
    result.update(
        attempted=attempted,
        failed=sum(1 for f in fails if f),
        correct=not failures,
        digest=digest,
        failures=[list(f) for f in failures[:20]],
        cases=len(cases),
        ops_per_pass=len(passes[0]),
    )
    if args.trace:
        result["passes"] = len(traced_pass_s)
        result["metrics"] = per_layer(tracer, len(traced_pass_s), untraced_s, traced_s, import_s, generate_s)
        stem = TRACE_DIR / f"trace-{workload.name}-s{args.seed}"
        tracer.write_spans(stem.with_name(stem.name + "-spans"))
        detail = layer_table(tracer, runner, traced)
        detail.update(workload=workload.name, seed=args.seed, passes=len(traced_pass_s), metrics=result["metrics"])
        stem.with_suffix(".json").write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    else:
        result["passes"] = len(pass_s)
        result["wall_s"] = sum(pass_s)
        result["raw_solves_per_s"] = attempted / sum(pass_s)
        result["speed"] = statistics.median(CAL_REF_NS / d for _, d in runner.calibrations)
        result["metrics"], result["tail"] = end_to_end(runner, passes, fails, ratios)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
