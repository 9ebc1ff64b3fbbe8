"""Command-line interface.

Subcommands: solve, generate, bench, verify. Exit codes: 0 ok,
2 parameter error, 3 capability or solver error, 4 infeasible packing on
verify.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import harness, oracle
from .errors import CapabilityError, ParameterError, SolverError
from .graphs import recognize
from .harness import ALGORITHMS
from .model import validate_packing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cbp", description="Bin packing with conflict graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one algorithm on an instance file")
    p_solve.add_argument("--algo", required=True, choices=ALGORITHMS)
    p_solve.add_argument("--in", dest="infile", required=True)
    p_solve.add_argument("--eps", default=None, help="error parameter as a fraction, e.g. 1/6")
    p_solve.add_argument("--oracle", action="store_true", help="also compute the exact optimum")
    p_solve.add_argument("--oracle-limit", type=int, default=oracle.DEFAULT_EXACT_LIMIT)
    p_solve.add_argument("--out", default=None, help="write the packing JSON here instead of stdout")

    p_gen = sub.add_parser("generate", help="generate instances from a spec file")
    p_gen.add_argument("--spec", required=True)
    p_gen.add_argument("--out", required=True)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("--suite", required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--jobs", type=int, default=1)

    p_verify = sub.add_parser("verify", help="validate a packing against an instance")
    p_verify.add_argument("--in", dest="infile", required=True)
    p_verify.add_argument("--packing", required=True)
    p_verify.add_argument("--no-cover", action="store_true", help="do not require full coverage")
    return parser


def _cmd_solve(args) -> int:
    instance = harness.read_instance(args.infile)
    kw = {}
    if args.eps is not None:
        try:
            kw["eps"] = Fraction(args.eps)
        except ZeroDivisionError as exc:
            raise ParameterError(f"--eps {args.eps!r} has a zero denominator") from exc
        if args.algo not in harness.EPS_ALGORITHMS:
            raise ParameterError(f"--eps is not accepted by {args.algo}")
    packing = harness.run_algorithm(args.algo, instance, recognize(instance), **kw)
    payload = harness.packing_to_dict(packing)
    payload["bin_count"] = packing.bin_count
    payload["labels"] = [[instance.labels[i] for i in sorted(b)] for b in packing.bins]
    report = validate_packing(instance, packing, require_cover=True)
    payload["feasible"] = report.feasible
    if args.oracle:
        _, opt = oracle.opt_bpc_exact(instance, limit_n=args.oracle_limit)
        payload["opt"] = opt
        payload["ratio"] = packing.bin_count / opt if opt else None
    text = harness.dump_json(payload)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_generate(args) -> int:
    with open(args.spec) as fh:
        data = json.load(fh)
    # Every spec is read, and every instance built, before the output
    # directory exists.
    specs = [harness.GeneratorSpec.from_dict(d) for d in (data if isinstance(data, list) else [data])]
    built = [
        harness.generate_b3dm(spec) if spec.klass == "b3dm-reduction" else (harness.generate(spec), None)
        for spec in specs
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for idx, (spec, (instance, planted)) in enumerate(zip(specs, built)):
        name = f"{spec.klass}-{idx:05d}"
        if planted is not None:
            harness.write_packing(planted, out / f"{name}.planted.json")
        harness.write_instance(instance, out / f"{name}.json")
    sys.stdout.write(f"wrote {len(specs)} instance(s) to {out}\n")
    return 0


def _cmd_bench(args) -> int:
    with open(args.suite) as fh:
        config = json.load(fh)
    report = harness.run_suite(config, args.out, jobs=args.jobs)
    sys.stdout.write(f"{len(report.rows)} rows -> {args.out}/report.csv\n")
    return 0


def _cmd_verify(args) -> int:
    instance = harness.read_instance(args.infile)
    packing = harness.read_packing(args.packing)
    report = validate_packing(instance, packing, require_cover=not args.no_cover)
    payload = {
        "feasible": report.feasible,
        "violations": [
            {"bin": v.bin_index, "kind": v.kind, "detail": v.detail} for v in report.violations
        ],
        "covered_items": sorted(report.covered_items),
    }
    sys.stdout.write(harness.dump_json(payload))
    return 0 if report.feasible else 4


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "generate": _cmd_generate,
        "bench": _cmd_bench,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ParameterError as exc:
        sys.stderr.write(f"parameter error: {exc}\n")
        return 2
    except CapabilityError as exc:
        sys.stderr.write(f"capability error: {exc}\n")
        return 3
    except SolverError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return exc.exit_code
    except (OSError, ValueError) as exc:
        # A path that cannot be read or written, or a file that is not JSON.
        sys.stderr.write(f"parameter error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
