"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Seeds are fixed; every expected value is either derived from a
brute-force oracle computed here or checked as an exact inequality.
"""

import math
import time
from fractions import Fraction

from cbp import (
    BisProblem,
    abs_bpb,
    approx_bpc,
    bis_fptas_split,
    bis_ptas,
    classify_items,
    color_sets,
    matching_pack,
    max_size,
    max_solve,
    minimum_coloring,
    multipartite_pack,
    opt_bpc_exact,
    recognize,
    round_assignment,
    round_config_lp,
    solve_config_lp,
    split_approx,
    validate_packing,
)
from cbp.harness import GeneratorSpec, SizeDist, generate, generate_b3dm, run_suite
from cbp.model import ConflictInstance
from cbp.packing_classic import asymptotic_bp, ffd
from cbp.rng import SplitMix64
from conftest import (
    bis_brute,
    make_packing,
    maxsize_brute,
    ref_build_assignment_lp,
    ref_solve_assignment_lp,
    weight_of,
)

ALL_CLASSES = ("edgeless", "bipartite", "split", "cluster", "complete-multipartite", "chordal")
RATIO_CLASSES = ("bipartite", "split", "cluster", "complete-multipartite", "chordal")


def _report(num: int, name: str, violations: list, extra: str = "") -> None:
    status = "PASS" if not violations else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert not violations, f"criterion {num} ({name}): {violations[:5]}"


def _seeded(klass: str, rng: SplitMix64, n_lo: int, n_hi: int) -> ConflictInstance:
    n = n_lo + rng.below(n_hi - n_lo + 1)
    density = 0.1 + 0.8 * rng.unit()
    return generate(GeneratorSpec(klass=klass, n=n, density=density, seed=rng.next_u64()))


def test_criterion_01_feasibility_suite():
    budget_s = 120.0
    rng = SplitMix64(20260801)
    per_class = 340
    violations = []
    start = time.perf_counter()
    total = 0
    for klass in ALL_CLASSES:
        for _ in range(per_class):
            inst = _seeded(klass, rng, 2, 20)
            info = recognize(inst)
            packings = [
                color_sets(inst, info),
                max_solve(inst, info),
                matching_pack(inst, info),
                approx_bpc(inst, info),
            ]
            if info.is_edgeless:
                packings.append(ffd(inst.items, inst.sizes))
                packings.append(asymptotic_bp(inst.items, inst.sizes))
            if info.is_split:
                packings.append(split_approx(inst, info))
            if info.is_bipartite:
                packings.append(abs_bpb(inst, info))
            if info.is_complete_multipartite:
                packings.append(multipartite_pack(inst, info))
            for packing in packings:
                report = validate_packing(inst, packing, require_cover=True)
                if not report.feasible:
                    violations.append((klass, inst.n, packing.source, report.violations[0]))
            total += 1
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        violations.append(f"runtime {elapsed:.1f}s over the {budget_s:.0f}s budget")
    _report(1, "feasibility suite", violations, f"{total} instances in {elapsed:.1f}s")


def test_criterion_02_ffd_bounds():
    rng = SplitMix64(20260802)
    violations = []
    dists = (
        SizeDist(),
        SizeDist(kind="uniform", lo=0.01, hi=1.0),
        SizeDist(kind="discrete", values=("1/7", "2/7", "3/7", "5/7", "6/7")),
    )
    runs = 10_000
    start = time.perf_counter()
    for k in range(runs):
        n = rng.below(15)
        inst = generate(
            GeneratorSpec(klass="edgeless", n=n, seed=rng.next_u64(), size_dist=dists[k % 3])
        )
        packing = ffd(inst.items, inst.sizes)
        count = Fraction(packing.bin_count)
        if n == 0:
            if count != 0:
                violations.append(("empty", k))
            continue
        max_s = max(inst.sizes.values())
        classes = classify_items(inst)
        first = (1 + 2 * max_s) * inst.total_size + 1
        second = (
            len(classes.large)
            + Fraction(3, 2) * inst.size_of(classes.medium)
            + Fraction(4, 3) * inst.size_of(classes.small)
            + 1
        )
        if count > first or count > second:
            violations.append((k, str(count), str(first), str(second)))
    elapsed = time.perf_counter() - start
    _report(2, "first-fit-decreasing bounds", violations, f"{runs} runs in {elapsed:.1f}s")


def test_criterion_03_coloring_bound():
    rng = SplitMix64(20260803)
    violations = []
    runs = 0
    for klass in ALL_CLASSES:
        for _ in range(100):
            inst = _seeded(klass, rng, 2, 16)
            info = recognize(inst)
            packing = color_sets(inst, info)
            chi = len(minimum_coloring(inst, info))
            classes = classify_items(inst)
            bound = (
                chi
                + len(classes.large)
                + Fraction(3, 2) * inst.size_of(classes.medium)
                + Fraction(4, 3) * inst.size_of(classes.small)
            )
            runs += 1
            if Fraction(packing.bin_count) > bound:
                violations.append((klass, inst.n, packing.bin_count, str(bound)))
    _report(3, "coloring-based bound", violations, f"{runs} runs")


def test_criterion_04_oracle_ratio_ceilings():
    per_class = 200
    budget_s = 60.0
    violations = []
    timings = []
    for offset, klass in enumerate(RATIO_CLASSES):
        rng = SplitMix64(20260804 + offset)
        start = time.perf_counter()
        for _ in range(per_class):
            inst = _seeded(klass, rng, 4, 14)
            info = recognize(inst)
            _, opt = opt_bpc_exact(inst, limit_n=14)
            general = approx_bpc(inst, info)
            if general.bin_count > math.ceil(Fraction(2445, 1000) * opt):
                violations.append((klass, "approx_bpc", inst.n, general.bin_count, opt))
            if klass == "bipartite":
                packing = abs_bpb(inst, info)
                if packing.bin_count > math.ceil(Fraction(5, 3) * opt):
                    violations.append((klass, "abs_bpb", inst.n, packing.bin_count, opt))
            elif klass == "split":
                packing = split_approx(inst, info)
                if packing.bin_count > math.ceil((1 + 2 / math.e) * opt):
                    violations.append((klass, "split_approx", inst.n, packing.bin_count, opt))
            elif klass == "complete-multipartite":
                packing = multipartite_pack(inst, info)
                ceiling = (3 * opt) // 2 + (1 if opt % 2 else 0)
                if packing.bin_count > ceiling:
                    violations.append((klass, "multipartite_pack", inst.n, packing.bin_count, opt))
        elapsed = time.perf_counter() - start
        timings.append(f"{klass}={elapsed:.1f}s")
        if elapsed >= budget_s:
            violations.append(f"{klass} suite took {elapsed:.1f}s (budget {budget_s:.0f}s)")
    _report(4, "oracle ratio ceilings", violations, ", ".join(timings))


def _bis_problem(inst: ConflictInstance, rng: SplitMix64) -> BisProblem:
    budget = Fraction(1 + rng.below(6), 4)
    return BisProblem(
        vertices=tuple(inst.items),
        adjacency=inst.adjacency,
        weights=dict(inst.sizes),
        budget=budget,
        class_info=recognize(inst),
    )


def test_criterion_05_bis_quality():
    violations = []
    rng = SplitMix64(20260805)
    eps_ptas = Fraction(1, 4)
    for k in range(500):
        klass = ALL_CLASSES[k % len(ALL_CLASSES)]
        inst = _seeded(klass, rng, 4, 14)
        problem = _bis_problem(inst, rng)
        chosen = bis_ptas(problem, eps_ptas)
        if not inst.is_independent(chosen) or weight_of(problem, chosen) > problem.budget:
            violations.append(("ptas-infeasible", k))
            continue
        _, opt = bis_brute(problem)
        if weight_of(problem, chosen) < (1 - eps_ptas) * opt:
            violations.append(("ptas", k, str(weight_of(problem, chosen)), str(opt)))

    eps_split = Fraction(1, 10)
    for k in range(500):
        inst = _seeded("split", rng, 4, 14)
        problem = _bis_problem(inst, rng)
        chosen = bis_fptas_split(problem, eps_split)
        if not inst.is_independent(chosen) or weight_of(problem, chosen) > problem.budget:
            violations.append(("split-infeasible", k))
            continue
        _, opt = bis_brute(problem)
        if weight_of(problem, chosen) < (1 - eps_split) * opt:
            violations.append(("split", k, str(weight_of(problem, chosen)), str(opt)))
    _report(5, "budgeted independent-set quality", violations, "500 + 500 problems")


def _maxsize_case(seed: int):
    rng = SplitMix64(seed)
    klass = ("bipartite", "split", "cluster", "chordal", "edgeless")[rng.below(5)]
    n = 6 + rng.below(6)
    inst = _seeded(klass, rng, n, n)
    bins = 1 + rng.below(4)
    items = sorted(inst.items, key=lambda i: (-inst.sizes[i], i))
    seeded: list[set] = [set() for _ in range(bins)]
    for b in range(min(bins, len(items))):
        if rng.chance(0.6):
            seeded[b].add(items[b])
    return inst, make_packing(seeded)


def test_criterion_06_maxsize_quality():
    violations = []
    lp_target = Fraction(1 - 1 / math.e - 0.05).limit_denominator(10**6)
    cases = 100
    for k in range(cases):
        inst, start = _maxsize_case(20260806 + k)
        info = recognize(inst)
        best = maxsize_brute(inst, start)
        greedy = max_size(inst, start, info)
        if greedy.added_size < Fraction(1, 2) * best:
            violations.append(("greedy", k, str(greedy.added_size), str(best)))
        solution = solve_config_lp(inst, start)
        if not solution.converged:
            violations.append(("lp-not-converged", k))
            continue
        values = [round_config_lp(solution, s).added_size for s in range(100)]
        mean = sum(values, Fraction(0)) / len(values)
        if mean < lp_target * best:
            violations.append(("config-lp", k, str(mean), str(best)))
    _report(6, "partial-packing growth quality", violations, f"{cases} cases x 100 roundings")


def test_criterion_07_assignment_rounding_structure():
    violations = []
    rng = SplitMix64(20260807)
    runs = 200
    for k in range(runs):
        inst = _seeded("bipartite", rng, 8, 14)
        info = recognize(inst)
        x, y = info.bipartition
        side = sorted(x) if k % 2 == 0 else sorted(y)
        w = side[: min(5, len(side))]
        big_items = [i for i in inst.items if i not in w]
        big_inst = ConflictInstance(
            {i: inst.sizes[i] for i in big_items},
            [(u, v) for u, v in inst.edges if u in big_items and v in big_items],
        )
        big = color_sets(big_inst)
        lp = ref_build_assignment_lp(inst, big, w)
        sol = ref_solve_assignment_lp(inst, lp)
        if len(sol.fractional_items) > lp.bin_count:
            violations.append(("fractional", k, len(sol.fractional_items), lp.bin_count))
        rounded = round_assignment(inst, big, w)
        if rounded.bin_count != big.bin_count:
            violations.append(("bin-count", k))
        kept = len(rounded.items() - big.items())
        if Fraction(kept) < sol.objective - lp.bin_count:
            violations.append(("kept", k, kept, str(sol.objective)))
        if not validate_packing(inst, rounded).feasible:
            violations.append(("infeasible", k))
    _report(7, "assignment rounding structure", violations, f"{runs} LPs")


def test_criterion_08_multipartite_decomposition():
    violations = []
    rng = SplitMix64(20260808)
    runs = 60
    for k in range(runs):
        inst = _seeded("complete-multipartite", rng, 4, 16)
        info = recognize(inst)
        _, opt = opt_bpc_exact(inst, limit_n=16)
        per_part = 0
        for part in info.parts:
            sub = ConflictInstance({i: inst.sizes[i] for i in part})
            per_part += opt_bpc_exact(sub, limit_n=16)[1]
        if per_part != opt:
            violations.append((k, per_part, opt))
    _report(8, "per-part decomposition equals optimum", violations, f"{runs} instances")


def test_criterion_09_reduction_generator():
    violations = []
    rng = SplitMix64(20260809)
    runs = 40
    for k in range(runs):
        x = 3 + rng.below(4)
        y = 3 + rng.below(4)
        z = 3 + rng.below(4)
        guess = 1 + rng.below(min(x, y, z))
        t = guess + rng.below(4)
        spec = GeneratorSpec(
            klass="b3dm-reduction",
            x_count=x,
            y_count=y,
            z_count=z,
            t_count=t,
            guess=guess,
            seed=rng.next_u64(),
            variant="BPB" if k % 2 == 0 else "BPS",
        )
        inst, planted = generate_b3dm(spec)
        useful = [b for b in planted.bins if len(b) == 4]
        if len(useful) != guess:
            violations.append((k, "useful-count"))
        for b in useful:
            if inst.size_of(b) != 1:
                violations.append((k, "useful-size", str(inst.size_of(b))))
        report = validate_packing(inst, planted, require_cover=True)
        if not report.feasible:
            violations.append((k, "planted-infeasible", report.violations[0]))
        if any(inst.size_of(b) != 1 for b in planted.bins):
            violations.append((k, "not-all-full"))
        info = recognize(inst)
        wanted = info.is_bipartite if spec.variant == "BPB" else info.is_split
        if not wanted:
            violations.append((k, "class"))
    _report(9, "hardness-reduction generator", violations, f"{runs} reductions")


def test_criterion_10_bench_determinism(tmp_path):
    config = {
        "seed": 424242,
        "sweep": {
            "classes": ["bipartite", "split", "complete-multipartite"],
            "count": 6,
            "n_min": 4,
            "n_max": 12,
        },
        "algorithms": ["color_sets", "approx_bpc", "matching_pack"],
        "oracle": True,
        "oracle_limit": 12,
        "deterministic": True,
    }
    run_suite(config, tmp_path / "first")
    run_suite(config, tmp_path / "second")
    violations = []
    for name in ("report.csv", "summary.csv"):
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        if a != b:
            violations.append(name)
    _report(10, "byte-identical benchmark reports", violations)
