"""Instance generators, benchmark runner, report persistence.

Generation is bit-reproducible from a seed via the documented splitmix
generator (see :mod:`cbp.rng`): sizes are drawn first (one draw per item in
id order), then the structure draws follow in the documented per-class
order. Reports are byte-identical across runs when the suite's
``deterministic`` flag is set (no timestamp, zeroed timings).
"""

from __future__ import annotations

import csv
import json
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import bpc, oracle, packing_classic
from .errors import CapabilityError, ParameterError
from .graphs import GraphClassInfo, minimum_coloring, recognize
from .model import (
    ConflictInstance,
    Packing,
    as_size,
    classify_items,
    validate_packing,
)
from .rng import SplitMix64

GENERATOR_CLASSES = (
    "bipartite",
    "split",
    "cluster",
    "complete-multipartite",
    "chordal",
    "edgeless",
    "b3dm-reduction",
)

B3DM_SIZES = {
    "element": Fraction(3, 20),   # 0.15
    "p_filler": Fraction(9, 20),  # 0.45
    "q_filler": Fraction(17, 20),  # 0.85
    "triple": Fraction(11, 20),   # 0.55
}


_JSON_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _spec_field(data: dict, key: str, default, kind: type):
    """``data[key]`` (or ``default``) as ``kind``, which must match its JSON
    type: an integer for int, any number for float, a string for str."""
    value = data.get(key, default)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ParameterError(
            f"spec field {key!r} must be {_JSON_TYPE_NAMES[kind]}, got {type(value).__name__}"
        )
    return kind(value)


def _reject_unknown_keys(data: dict, known: tuple[str, ...]) -> None:
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ParameterError(f"unknown spec field {unknown[0]!r}; known fields: {', '.join(known)}")


def _spec_unit(data: dict, key: str, default: float) -> float:
    """A number field of ``data`` that must lie in [0, 1]."""
    value = _spec_field(data, key, default, float)
    if not 0.0 <= value <= 1.0:
        raise ParameterError(f"spec field {key!r} must be in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class SizeDist:
    kind: str = "grid20"  # grid20 | uniform | discrete
    lo: float = 0.05
    hi: float = 1.0
    values: tuple[str, ...] = ()

    def draw(self, rng: SplitMix64) -> Fraction:
        if self.kind == "grid20":
            return Fraction(1 + rng.below(20), 20)
        if self.kind == "uniform":
            x = self.lo + (self.hi - self.lo) * rng.unit()
            x = min(max(x, 0.0), 1.0)
            return as_size(round(x, 9))
        if self.kind == "discrete":
            if not self.values:
                raise ParameterError("discrete size distribution needs values")
            return as_size(self.values[rng.below(len(self.values))])
        raise ParameterError(f"unknown size distribution {self.kind!r}")

    @staticmethod
    def from_dict(data: Optional[dict]) -> "SizeDist":
        if data is None:
            return SizeDist()
        if not isinstance(data, dict):
            raise ParameterError(f"spec field 'size_dist' must be a JSON object, got {type(data).__name__}")
        _reject_unknown_keys(data, tuple(f.name for f in fields(SizeDist)))
        values = data.get("values", [])
        if not isinstance(values, list):
            raise ParameterError(f"spec field 'values' must be a list, got {type(values).__name__}")
        lo, hi = _spec_unit(data, "lo", 0.05), _spec_unit(data, "hi", 1.0)
        if lo > hi:
            raise ParameterError(f"spec field 'lo' must not exceed 'hi', got lo {lo} > hi {hi}")
        return SizeDist(
            kind=_spec_field(data, "kind", "grid20", str),
            lo=lo,
            hi=hi,
            values=tuple(str(v) for v in values),
        )


@dataclass(frozen=True)
class GeneratorSpec:
    klass: str
    n: int = 0
    density: float = 0.3
    size_dist: SizeDist = field(default_factory=SizeDist)
    seed: int = 0
    # b3dm-reduction only:
    x_count: int = 0
    y_count: int = 0
    z_count: int = 0
    t_count: int = 0
    guess: int = 0
    variant: str = "BPB"
    degree_cap: int = 3

    @staticmethod
    def from_dict(data: dict) -> "GeneratorSpec":
        if not isinstance(data, dict):
            raise ParameterError(f"generator spec must be a JSON object, got {type(data).__name__}")
        # The field names, "klass" included, plus its JSON spelling "class".
        _reject_unknown_keys(data, ("class",) + tuple(f.name for f in fields(GeneratorSpec)))
        klass = data.get("class", data.get("klass"))
        if klass not in GENERATOR_CLASSES:
            raise ParameterError(f"unknown generator class {klass!r}")
        return GeneratorSpec(
            klass=klass,
            n=_spec_field(data, "n", 0, int),
            density=_spec_unit(data, "density", 0.3),
            size_dist=SizeDist.from_dict(data.get("size_dist")),
            seed=_spec_field(data, "seed", 0, int),
            x_count=_spec_field(data, "x_count", 0, int),
            y_count=_spec_field(data, "y_count", 0, int),
            z_count=_spec_field(data, "z_count", 0, int),
            t_count=_spec_field(data, "t_count", 0, int),
            guess=_spec_field(data, "guess", 0, int),
            variant=_spec_field(data, "variant", "BPB", str),
            degree_cap=_spec_field(data, "degree_cap", 3, int),
        )


def _draw_sizes(spec: GeneratorSpec, rng: SplitMix64) -> list[Fraction]:
    return [spec.size_dist.draw(rng) for _ in range(spec.n)]


def generate(spec: GeneratorSpec) -> ConflictInstance:
    """Deterministic instance for a spec; the declared class is verified."""
    if spec.klass == "b3dm-reduction":
        return generate_b3dm(spec)[0]
    if spec.n < 0:
        raise ParameterError("n must be nonnegative")
    rng = SplitMix64(spec.seed)
    sizes = _draw_sizes(spec, rng)
    n = spec.n
    edges: list[tuple[int, int]] = []
    if spec.klass == "edgeless":
        pass
    elif spec.klass == "bipartite":
        side = [rng.below(2) for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if side[u] != side[v] and rng.chance(spec.density):
                    edges.append((u, v))
    elif spec.klass == "split":
        in_clique = [rng.chance(min(0.5, spec.density)) for _ in range(n)]
        clique = [v for v in range(n) if in_clique[v]]
        stable = [v for v in range(n) if not in_clique[v]]
        for a in range(len(clique)):
            for b in range(a + 1, len(clique)):
                edges.append((clique[a], clique[b]))
        for u in clique:
            for v in stable:
                if rng.chance(spec.density):
                    edges.append((min(u, v), max(u, v)))
    elif spec.klass in ("cluster", "complete-multipartite"):
        groups = max(1, int(round(n * (1.0 - spec.density)))) if n else 1
        member = [rng.below(groups) for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                same = member[u] == member[v]
                if spec.klass == "cluster" and same:
                    edges.append((u, v))
                elif spec.klass == "complete-multipartite" and not same:
                    edges.append((u, v))
    elif spec.klass == "chordal":
        span = max(2 * n, 1)
        max_len = max(1, int(spec.density * span))
        intervals = []
        for _ in range(n):
            a = rng.below(span)
            b = a + 1 + rng.below(max_len)
            intervals.append((a, b))
        for u in range(n):
            for v in range(u + 1, n):
                au, bu = intervals[u]
                av, bv = intervals[v]
                if au <= bv and av <= bu:
                    edges.append((u, v))
    else:
        raise ParameterError(f"unknown generator class {spec.klass!r}")
    instance = ConflictInstance(sizes, edges, class_hint=spec.klass)
    _verify_declared_class(instance, spec.klass)
    return instance


def _verify_declared_class(instance: ConflictInstance, klass: str) -> None:
    # Cheap targeted re-check of the one class the generator promised.
    from . import graphs

    ok = {
        "edgeless": lambda: not instance.edges,
        "bipartite": lambda: graphs._try_bipartition(instance) is not None,
        "split": lambda: graphs._try_split(instance) is not None,
        "cluster": lambda: graphs._try_cluster(instance) is not None,
        "complete-multipartite": lambda: graphs._try_complete_multipartite(instance) is not None,
        "chordal": lambda: graphs._try_peo(instance) is not None,
    }[klass]()
    if not ok:
        raise AssertionError(f"generator produced a non-{klass} instance")


def generate_b3dm(spec: GeneratorSpec) -> tuple[ConflictInstance, Packing]:
    """Hard-instance construction from a synthetic triple system.

    Items: one per element of the three ground sets, one per triple, plus
    two filler families sized so a correct guess admits a packing with
    every bin full. Returns that planted packing alongside the instance.
    """
    x, y, z, t, i = spec.x_count, spec.y_count, spec.z_count, spec.t_count, spec.guess
    if min(x, y, z, t) < 0 or i < 0:
        raise ParameterError("counts must be nonnegative")
    if t - i < 0:
        raise ParameterError(f"guess {i} exceeds triple count {t}")
    if x + y + z - 3 * i < 0:
        raise ParameterError(f"guess {i} needs at least {3 * i} elements, got {x + y + z}")
    if i > min(x, y, z):
        raise ParameterError(f"guess {i} exceeds a ground-set size (planted matching)")
    if spec.variant not in ("BPB", "BPS"):
        raise ParameterError(f"variant must be BPB or BPS, got {spec.variant!r}")
    rng = SplitMix64(spec.seed)

    x_ids = list(range(x))
    y_ids = list(range(x, x + y))
    z_ids = list(range(x + y, x + y + z))
    t_base = x + y + z
    t_ids = list(range(t_base, t_base + t))
    p_ids = list(range(t_base + t, t_base + t + (t - i)))
    q_base = t_base + t + (t - i)
    q_ids = list(range(q_base, q_base + (x + y + z - 3 * i)))

    triples: list[tuple[int, int, int]] = []
    degree = {u: 0 for u in x_ids + y_ids + z_ids}
    for k in range(i):  # planted disjoint triples
        tri = (x_ids[k], y_ids[k], z_ids[k])
        triples.append(tri)
        for u in tri:
            degree[u] += 1
    seen = set(triples)
    attempts = 0
    while len(triples) < t:
        attempts += 1
        if attempts > 200 * (t + 1):
            raise ParameterError("cannot satisfy the per-element degree cap; lower t or raise the cap")
        tri = (
            x_ids[rng.below(x)] if x else -1,
            y_ids[rng.below(y)] if y else -1,
            z_ids[rng.below(z)] if z else -1,
        )
        if -1 in tri or tri in seen:
            continue
        if any(degree[u] >= spec.degree_cap for u in tri):
            continue
        triples.append(tri)
        seen.add(tri)
        for u in tri:
            degree[u] += 1

    sizes: dict[int, Fraction] = {}
    labels: dict[int, str] = {}
    for ids, role, tag in (
        (x_ids, "element", "x"),
        (y_ids, "element", "y"),
        (z_ids, "element", "z"),
        (t_ids, "triple", "t"),
        (p_ids, "p_filler", "p"),
        (q_ids, "q_filler", "q"),
    ):
        for k, item in enumerate(ids):
            sizes[item] = B3DM_SIZES[role]
            labels[item] = f"{tag}{k}"

    edges: list[tuple[int, int]] = []
    for k, (tx, ty, tz) in enumerate(triples):
        t_item = t_ids[k]
        for u in x_ids:
            if u != tx:
                edges.append((u, t_item))
        for u in y_ids:
            if u != ty:
                edges.append((u, t_item))
        for u in z_ids:
            if u != tz:
                edges.append((u, t_item))
    if spec.variant == "BPS":
        for a in range(len(t_ids)):
            for b in range(a + 1, len(t_ids)):
                edges.append((t_ids[a], t_ids[b]))

    instance = ConflictInstance(sizes, edges, class_hint=spec.variant.lower(), labels=labels)
    _verify_declared_class(instance, "bipartite" if spec.variant == "BPB" else "split")

    planted_bins: list[frozenset[int]] = []
    for k in range(i):
        tx, ty, tz = triples[k]
        planted_bins.append(frozenset({tx, ty, tz, t_ids[k]}))
    leftover_triples = [t_ids[k] for k in range(i, t)]
    for t_item, p_item in zip(leftover_triples, p_ids):
        planted_bins.append(frozenset({t_item, p_item}))
    leftover_elements = x_ids[i:] + y_ids[i:] + z_ids[i:]
    for u, q_item in zip(leftover_elements, q_ids):
        planted_bins.append(frozenset({u, q_item}))
    planted = Packing(tuple(planted_bins), "b3dm-planted")
    return instance, planted


# ---------------------------------------------------------------------------
# Benchmark runner


@dataclass
class RunRow:
    instance_id: str
    klass: str
    n: int
    algorithm: str
    bins: Optional[int]
    opt: Optional[int]
    ratio: Optional[float]
    lemma2_ok: Optional[bool] = None
    lemma4_ok: Optional[bool] = None
    lemma8_ok: Optional[bool] = None
    lemma12_ok: Optional[bool] = None
    lemma16_ok: Optional[bool] = None
    fallback_flags: str = ""
    micros: int = 0

    def as_csv(self) -> list[str]:
        """The row's cells in field order: None empty, booleans as
        true/false, the ratio with six decimals."""

        def cell(v) -> str:
            if v is None:
                return ""
            if isinstance(v, bool):
                return "true" if v else "false"
            return f"{v:.6f}" if isinstance(v, float) else str(v)

        return [cell(getattr(self, f.name)) for f in fields(self)]


# report.csv's header: RunRow's fields, with ``klass`` spelled "class".
CSV_COLUMNS = tuple("class" if f.name == "klass" else f.name for f in fields(RunRow))


@dataclass
class RunReport:
    rows: list[RunRow]
    config: dict


def _conflict_free(name: str):
    # ``packing_classic.<name>``, fit for edgeless instances only.
    def solve(instance: ConflictInstance, info: GraphClassInfo) -> Packing:
        if instance.edges:
            raise CapabilityError(f"{name} handles conflict-free instances only")
        return getattr(packing_classic, name)(instance.items, instance.sizes)

    return solve


def _conflict_graph(name: str):
    # ``bpc.<name>``; keywords (``eps``) pass through.
    def solve(instance: ConflictInstance, info: GraphClassInfo, **kw) -> Packing:
        return getattr(bpc, name)(instance, info, **kw)

    return solve


# Algorithm name -> solver(instance, info), in report order. Each solver
# looks its function up in the module at call time, so a wrapper rebound
# there (as benchmarks/tracing.py installs) sees the call.
SOLVERS = {
    "ffd": _conflict_free("ffd"),
    "asymptotic_bp": _conflict_free("asymptotic_bp"),
    "color_sets": _conflict_graph("color_sets"),
    "max_solve": _conflict_graph("max_solve"),
    "matching_pack": _conflict_graph("matching_pack"),
    "approx_bpc": _conflict_graph("approx_bpc"),
    "split_approx": _conflict_graph("split_approx"),
    "abs_bpb": _conflict_graph("abs_bpb"),
    "multipartite_pack": _conflict_graph("multipartite_pack"),
}
ALGORITHMS = tuple(SOLVERS)
# The solvers that also take the error parameter as ``eps=``.
EPS_ALGORITHMS = ("max_solve", "approx_bpc", "split_approx")


def run_algorithm(name: str, instance: ConflictInstance, info: GraphClassInfo) -> Packing:
    """Dispatch an algorithm by CLI/report name (CapabilityError if unfit)."""
    if name not in SOLVERS:
        raise ParameterError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")
    return SOLVERS[name](instance, info)


def _ffd_bounds_ok(instance: ConflictInstance, packing: Packing) -> bool:
    if instance.n == 0:
        return packing.bin_count <= 1
    max_s = max(instance.sizes.values())
    first = (1 + 2 * max_s) * instance.total_size + 1
    # The second bound is Lemma 4's with one color class.
    return packing.bin_count <= min(first, bpc.lemma4_bound(instance, 1))


def _coloring_bound_ok(instance: ConflictInstance, info: GraphClassInfo, packing: Packing) -> bool:
    chi = len(minimum_coloring(instance, info))
    return packing.bin_count <= bpc.lemma4_bound(instance, chi)


def _matching_bound_ok(
    instance: ConflictInstance, info: GraphClassInfo, packing: Packing, opt: int
) -> bool:
    chi = len(minimum_coloring(instance, info))
    classes = classify_items(instance)
    bound = opt + chi + Fraction(4, 3) * instance.size_of(classes.small)
    return Fraction(packing.bin_count) <= bound


def _decomposition_ok(instance: ConflictInstance, info: GraphClassInfo, opt: int, limit: int) -> Optional[bool]:
    if info.parts is None:
        return None
    total = 0
    for part in info.parts:
        if len(part) > limit:
            return None
        sub_sizes = {v: instance.sizes[v] for v in part}
        sub = ConflictInstance(sub_sizes)
        _, part_opt = oracle.opt_bpc_exact(sub, limit_n=limit)
        total += part_opt
    return total == opt


def _evaluate_instance(spec_dict: dict, instance_id: str, config: dict) -> tuple[list[RunRow], dict]:
    spec = GeneratorSpec.from_dict(spec_dict)
    instance = generate(spec)
    info = recognize(instance)
    algorithms = config.get("algorithms", ["approx_bpc"])
    oracle_on = bool(config.get("oracle", False))
    oracle_limit = int(config.get("oracle_limit", 14))
    timing = not bool(config.get("deterministic", True))

    opt: Optional[int] = None
    if oracle_on and instance.n <= oracle_limit:
        _, opt = oracle.opt_bpc_exact(instance, limit_n=oracle_limit)

    rows: list[RunRow] = []
    detail: dict = {
        "instance_id": instance_id,
        "class": spec.klass,
        "n": instance.n,
        "opt": opt,
        "results": [],
    }
    for name in algorithms:
        start = time.perf_counter_ns()
        try:
            packing = run_algorithm(name, instance, info)
        except CapabilityError as exc:
            rows.append(
                RunRow(instance_id, spec.klass, instance.n, name, None, opt, None,
                       fallback_flags=f"skipped:{exc}")
            )
            detail["results"].append({"algorithm": name, "skipped": str(exc)})
            continue
        micros = (time.perf_counter_ns() - start) // 1000 if timing else 0
        report = validate_packing(instance, packing, require_cover=True)
        flags = list(packing.flags)
        if not report.feasible:
            flags.append("INFEASIBLE")
        row = RunRow(
            instance_id,
            spec.klass,
            instance.n,
            name,
            packing.bin_count,
            opt,
            (packing.bin_count / opt) if opt else None,
            fallback_flags=";".join(flags),
            micros=int(micros),
        )
        if name in ("ffd", "asymptotic_bp") and not instance.edges:
            row.lemma2_ok = _ffd_bounds_ok(instance, packing)
        if name == "color_sets":
            row.lemma4_ok = _coloring_bound_ok(instance, info, packing)
        if name == "matching_pack" and opt:
            row.lemma8_ok = _matching_bound_ok(instance, info, packing, opt)
        if "lemma12:ok" in packing.flags:
            row.lemma12_ok = True
        elif "lemma12:fail" in packing.flags:
            row.lemma12_ok = False
        if name == "multipartite_pack" and opt:
            row.lemma16_ok = _decomposition_ok(instance, info, opt, oracle_limit)
        rows.append(row)
        detail["results"].append(
            {
                "algorithm": name,
                "bins": [sorted(b) for b in packing.bins],
                "bin_count": packing.bin_count,
                "feasible": report.feasible,
                "flags": flags,
                "micros": int(micros),
            }
        )
    return rows, detail


def expand_suite(config: dict) -> list[tuple[str, dict]]:
    """Expand a suite config into (instance_id, spec dict) pairs.

    The CBP_SEED environment variable overrides the base seed (and with it
    every derived instance seed).
    """
    base_seed = int(os.environ.get("CBP_SEED", config.get("seed", 0)))
    stream = SplitMix64(base_seed)
    out: list[tuple[str, dict]] = []
    for idx, spec in enumerate(config.get("instances", [])):
        spec = dict(spec)
        if "seed" not in spec or "CBP_SEED" in os.environ:
            spec["seed"] = stream.next_u64()
        klass = spec.get("class", "edgeless")
        out.append((f"{klass}-{idx:05d}", spec))
    sweep = config.get("sweep")
    if sweep:
        count = int(sweep.get("count", 10))
        n_min = int(sweep.get("n_min", 4))
        n_max = int(sweep.get("n_max", 14))
        classes = sweep.get("classes", ["bipartite"])
        for klass in classes:
            for k in range(count):
                n = n_min + stream.below(n_max - n_min + 1) if n_max > n_min else n_min
                density = 0.1 + 0.8 * stream.unit()
                spec = {
                    "class": klass,
                    "n": n,
                    "density": round(density, 6),
                    "seed": stream.next_u64(),
                }
                if "size_dist" in sweep:
                    spec["size_dist"] = sweep["size_dist"]
                out.append((f"{klass}-{len(out):05d}", spec))
    return out


def run_suite(config: dict, out_dir, jobs: int = 1) -> RunReport:
    """Run a suite config, write report.csv + per-instance JSON + summary."""
    out = Path(out_dir)
    (out / "results").mkdir(parents=True, exist_ok=True)
    pairs = expand_suite(config)
    rows: list[RunRow] = []
    details: list[dict] = []
    if jobs > 1 and len(pairs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_evaluate_instance, spec, iid, config) for iid, spec in pairs]
            for fut in futures:
                r, d = fut.result()
                rows.extend(r)
                details.append(d)
    else:
        for iid, spec in pairs:
            r, d = _evaluate_instance(spec, iid, config)
            rows.extend(r)
            details.append(d)
    rows.sort(key=lambda r: (r.instance_id, r.algorithm))
    details.sort(key=lambda d: d["instance_id"])

    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.as_csv())
    for d in details:
        with open(out / "results" / f"{d['instance_id']}.json", "w") as fh:
            json.dump(d, fh, indent=1, sort_keys=True)
            fh.write("\n")
    _write_summary(rows, out / "summary.csv")
    meta = {"config": config, "instances": len(pairs)}
    if not config.get("deterministic", True):
        meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return RunReport(rows, config)


def _write_summary(rows: list[RunRow], path: Path) -> None:
    groups: dict[tuple[str, str], list[RunRow]] = {}
    for row in rows:
        groups.setdefault((row.klass, row.algorithm), []).append(row)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "algorithm", "instances", "with_opt", "max_ratio", "mean_ratio"])
        for (klass, algo) in sorted(groups):
            g = groups[(klass, algo)]
            ratios = [r.ratio for r in g if r.ratio is not None]
            writer.writerow(
                [
                    klass,
                    algo,
                    str(len(g)),
                    str(len(ratios)),
                    f"{max(ratios):.6f}" if ratios else "",
                    f"{sum(ratios) / len(ratios):.6f}" if ratios else "",
                ]
            )


# ---------------------------------------------------------------------------
# Instance / packing files


def instance_to_dict(instance: ConflictInstance) -> dict:
    return {
        "items": [
            {"id": i, "size": f"{instance.sizes[i].numerator}/{instance.sizes[i].denominator}"}
            for i in instance.items
        ],
        "edges": [[u, v] for (u, v) in sorted(instance.edges)],
        "class_hint": instance.class_hint,
    }


def instance_from_dict(data: dict) -> ConflictInstance:
    if not isinstance(data, dict):
        raise ParameterError(f"instance must be a JSON object, got {type(data).__name__}")
    raw_items = data.get("items", [])
    if not isinstance(raw_items, list) or not all(isinstance(e, dict) for e in raw_items):
        raise ParameterError("items must be a list of JSON objects")
    for k, entry in enumerate(raw_items):
        for key in ("id", "size"):
            if key not in entry:
                raise ParameterError(f"item {k} has no {key!r}")
    ids = [entry["id"] for entry in raw_items]
    # A JSON true would otherwise equal the id 1 and print as "True".
    malformed = [i for i in ids if isinstance(i, bool) or not isinstance(i, (int, float, str))]
    if malformed:
        raise ParameterError(f"item ids must be numbers or strings, got {malformed[0]!r}")
    duplicates = [i for i, count in Counter(ids).items() if count > 1]
    if duplicates:
        raise ParameterError(f"duplicate item ids: {duplicates}")
    dense = all(isinstance(i, int) for i in ids) and sorted(ids) == list(range(len(ids)))
    if dense:
        remap = {i: i for i in ids}
    else:
        remap = {orig: k for k, orig in enumerate(ids)}
    sizes = {}
    labels = {}
    for entry in raw_items:
        new_id = remap[entry["id"]]
        sizes[new_id] = as_size(entry["size"])
        labels[new_id] = str(entry["id"])
    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and not any(isinstance(x, (list, dict)) for x in e)
        for e in raw_edges
    ):
        raise ParameterError("edges must be a list of [u, v] pairs of item ids")
    edges = []
    for u, v in raw_edges:
        if u not in remap or v not in remap:
            raise ParameterError(f"edge ({u}, {v}) references unknown items")
        edges.append((remap[u], remap[v]))
    return ConflictInstance(sizes, edges, class_hint=data.get("class_hint"), labels=labels)


def write_instance(instance: ConflictInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_instance(path) -> ConflictInstance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def packing_to_dict(packing: Packing) -> dict:
    return {
        "bins": [sorted(b) for b in packing.bins],
        "source": packing.source,
        "flags": list(packing.flags),
    }


def packing_from_dict(data: dict) -> Packing:
    if not isinstance(data, dict):
        raise ParameterError(f"packing must be a JSON object, got {type(data).__name__}")
    bins = data.get("bins", [])
    # Item ids are JSON integers; a JSON true would otherwise be item 1.
    if not isinstance(bins, list) or not all(
        isinstance(b, list) and all(isinstance(v, int) and not isinstance(v, bool) for v in b) for b in bins
    ):
        raise ParameterError("bins must be a list of lists of item ids")
    flags = data.get("flags", [])
    if not isinstance(flags, list):
        raise ParameterError("flags must be a list")
    return Packing(tuple(frozenset(b) for b in bins), data.get("source", ""), tuple(flags))


def read_packing(path) -> Packing:
    with open(path) as fh:
        return packing_from_dict(json.load(fh))


def write_packing(packing: Packing, path) -> None:
    with open(path, "w") as fh:
        json.dump(packing_to_dict(packing), fh, indent=1, sort_keys=True)
        fh.write("\n")
