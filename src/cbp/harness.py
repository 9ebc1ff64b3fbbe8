"""Instance generators, benchmark runner, report persistence.

Generation is bit-reproducible from a seed via the documented splitmix
generator (see :mod:`cbp.rng`): sizes are drawn first (one draw per item in
id order), then the structure draws follow in the documented per-class
order. Reports are byte-identical across runs when the suite's
``deterministic`` flag is set (no timestamp, zeroed timings).
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from . import bpc, oracle, packing_classic
from .errors import CapabilityError, ParameterError
from .graphs import CLASS_TABLE, GraphClassInfo, has_class, minimum_coloring, recognize
from .model import (
    ConflictInstance,
    Packing,
    as_size,
    classify_items,
    validate_packing,
)
from .rng import SplitMix64

GENERATOR_CLASSES = (*CLASS_TABLE, "edgeless", "b3dm-reduction")

B3DM_SIZES = {
    "element": Fraction(3, 20),   # 0.15
    "p_filler": Fraction(9, 20),  # 0.45
    "q_filler": Fraction(17, 20),  # 0.85
    "triple": Fraction(11, 20),   # 0.55
}


# A field's type, that of its default -> (the JSON types it is read from,
# as named in errors).
_JSON_TYPES = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    bool: (bool, "a boolean"),
    tuple: (list, "a list"),
}


def _spec_field(data: dict, key: str, default):
    """``data[key]`` (or ``default``) as the type of ``default``, which must
    match its JSON type: an integer for int, any number for float, a string
    for str, true or false for bool (a boolean is no number), a list for a
    tuple."""
    if key not in data:
        return default
    value, kind = data[key], type(default)
    accepted, name = _JSON_TYPES[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ParameterError(f"spec field {key!r} must be {name}, got {type(value).__name__}")
    return kind(value)


def _read_spec(cls, data: dict, **given):
    """``cls`` built from the JSON object ``data``: each field not in
    ``given`` is read by :func:`_spec_field` with the field's default. A key
    that names no field is rejected; a ``klass`` field is also spelled
    "class"."""
    names = tuple(f.name for f in fields(cls))
    known = ("class", *names) if "klass" in names else names
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ParameterError(f"unknown spec field {unknown[0]!r}; known fields: {', '.join(known)}")
    read = {f.name: _spec_field(data, f.name, f.default) for f in fields(cls) if f.name not in given}
    return cls(**read, **given)


def _check_unit(spec, *names: str) -> None:
    for name in names:
        value = getattr(spec, name)
        if not 0.0 <= value <= 1.0:
            raise ParameterError(f"spec field {name!r} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class SizeDist:
    """How a spec draws item sizes; construction checks every value."""

    kind: str = "grid20"  # grid20 | uniform | discrete
    lo: float = 0.05
    hi: float = 1.0
    values: tuple = ()  # discrete only: sizes as "p/q" or decimal strings, or numbers

    def __post_init__(self):
        if self.kind not in ("grid20", "uniform", "discrete"):
            raise ParameterError(f"unknown size distribution {self.kind!r}")
        if self.kind == "discrete" and not self.values:
            raise ParameterError("discrete size distribution needs values")
        _check_unit(self, "lo", "hi")
        if self.lo > self.hi:
            raise ParameterError(f"spec field 'lo' must not exceed 'hi', got lo {self.lo} > hi {self.hi}")
        for value in self.values:
            try:
                if not 0 <= as_size(value) <= 1:
                    raise ParameterError
            except ParameterError:
                raise ParameterError(f"spec field 'values' must hold sizes in [0, 1], got {value!r}") from None

    def draw(self, rng: SplitMix64) -> Fraction:
        if self.kind == "grid20":
            return Fraction(1 + rng.below(20), 20)
        if self.kind == "uniform":
            x = self.lo + (self.hi - self.lo) * rng.unit()
            x = min(max(x, 0.0), 1.0)
            return as_size(round(x, 9))
        return as_size(self.values[rng.below(len(self.values))])


def _size_dist(data) -> SizeDist:
    """The ``size_dist`` JSON object of a spec or sweep (absent or null: the default)."""
    if data is None:
        return SizeDist()
    if not isinstance(data, dict):
        raise ParameterError(f"spec field 'size_dist' must be a JSON object, got {type(data).__name__}")
    return _read_spec(SizeDist, data)


@dataclass(frozen=True)
class GeneratorSpec:
    """One seeded instance. Construction checks the values (class, ``n``,
    ``density`` and the b3dm counts); :meth:`from_dict` reads a JSON spec,
    every field checked for its JSON type first."""

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

    def __post_init__(self):
        if self.klass not in GENERATOR_CLASSES:
            raise ParameterError(f"unknown generator class {self.klass!r}")
        if self.n < 0:
            raise ParameterError("n must be nonnegative")
        _check_unit(self, "density")
        if self.klass != "b3dm-reduction":
            return
        x, y, z, t, i = self.x_count, self.y_count, self.z_count, self.t_count, self.guess
        if min(x, y, z, t) < 0 or i < 0:
            raise ParameterError("counts must be nonnegative")
        if t - i < 0:
            raise ParameterError(f"guess {i} exceeds triple count {t}")
        if x + y + z - 3 * i < 0:
            raise ParameterError(f"guess {i} needs at least {3 * i} elements, got {x + y + z}")
        if i > min(x, y, z):
            raise ParameterError(f"guess {i} exceeds a ground-set size (planted matching)")
        if self.variant not in ("BPB", "BPS"):
            raise ParameterError(f"variant must be BPB or BPS, got {self.variant!r}")

    @staticmethod
    def from_dict(data: dict) -> "GeneratorSpec":
        if not isinstance(data, dict):
            raise ParameterError(f"generator spec must be a JSON object, got {type(data).__name__}")
        klass = data.get("class", data.get("klass"))
        return _read_spec(GeneratorSpec, data, klass=klass, size_dist=_size_dist(data.get("size_dist")))


def _draw_sizes(spec: GeneratorSpec, rng: SplitMix64) -> list[Fraction]:
    return [spec.size_dist.draw(rng) for _ in range(spec.n)]


def generate(spec: GeneratorSpec) -> ConflictInstance:
    """Deterministic instance for a spec; the declared class is verified."""
    if spec.klass == "b3dm-reduction":
        return generate_b3dm(spec)[0]
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
    else:  # chordal
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
    instance = ConflictInstance(sizes, edges, class_hint=spec.klass)
    _verify_declared_class(instance, spec.klass)
    return instance


def _verify_declared_class(instance: ConflictInstance, klass: str) -> None:
    # Cheap targeted re-check of the one class the generator promised.
    if not has_class(instance, klass):
        raise AssertionError(f"generator produced a non-{klass} instance")


def generate_b3dm(spec: GeneratorSpec) -> tuple[ConflictInstance, Packing]:
    """Hard-instance construction from a synthetic triple system.

    Items: one per element of the three ground sets, one per triple, plus
    two filler families sized so a correct guess admits a packing with
    every bin full. Returns that planted packing alongside the instance.
    """
    x, y, z, t, i = spec.x_count, spec.y_count, spec.z_count, spec.t_count, spec.guess
    rng = SplitMix64(spec.seed)

    x_ids = list(range(x))
    y_ids = list(range(x, x + y))
    z_ids = list(range(x + y, x + y + z))
    t_base = x + y + z
    t_ids = list(range(t_base, t_base + t))
    p_ids = list(range(t_base + t, t_base + t + (t - i)))
    q_base = t_base + t + (t - i)
    q_ids = list(range(q_base, q_base + (x + y + z - 3 * i)))

    elements = x_ids + y_ids + z_ids
    triples: list[tuple[int, int, int]] = []
    degree = dict.fromkeys(elements, 0)
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

    # A triple's item conflicts with every element outside the triple.
    edges = [(u, t_item) for t_item, triple in zip(t_ids, triples) for u in elements if u not in triple]
    if spec.variant == "BPS":
        edges += itertools.combinations(t_ids, 2)

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
        if not has_class(instance, "edgeless"):
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


def _solver(name: str) -> Callable[..., Packing]:
    if name not in SOLVERS:
        raise ParameterError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")
    return SOLVERS[name]


def run_algorithm(name: str, instance: ConflictInstance, info: GraphClassInfo, **kw) -> Packing:
    """Dispatch an algorithm by CLI/report name (CapabilityError if unfit).

    Keywords (``eps``) reach the solver; only EPS_ALGORITHMS take one.
    """
    return _solver(name)(instance, info, **kw)


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


@dataclass(frozen=True)
class _Settings:
    """The suite fields every instance's evaluation reads, with their defaults."""

    algorithms: tuple[str, ...] = ("approx_bpc",)
    oracle: bool = False
    oracle_limit: int = 14
    deterministic: bool = True

    def __post_init__(self):
        for name in self.algorithms:
            _solver(name)


def _evaluate_instance(spec: GeneratorSpec, instance_id: str, settings: _Settings) -> tuple[list[RunRow], dict]:
    instance = generate(spec)
    info = recognize(instance)
    # Read every certificate now, so no algorithm's micros include a recognizer.
    info.supported_classes()
    timing = not settings.deterministic

    opt: Optional[int] = None
    if settings.oracle and instance.n <= settings.oracle_limit:
        _, opt = oracle.opt_bpc_exact(instance, limit_n=settings.oracle_limit)

    rows: list[RunRow] = []
    detail: dict = {
        "instance_id": instance_id,
        "class": spec.klass,
        "n": instance.n,
        "opt": opt,
        "results": [],
    }
    for name in settings.algorithms:
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
        # The conflict-free solvers return only on edgeless instances.
        if name in ("ffd", "asymptotic_bp"):
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
            row.lemma16_ok = _decomposition_ok(instance, info, opt, settings.oracle_limit)
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


# Suite field -> (JSON type, member type or None, as named in errors).
_SUITE_FIELDS = {
    "instances": (list, dict, "a list of JSON objects"),
    "algorithms": (list, str, "a list of strings"),
    "sweep": (dict, None, "a JSON object"),
}


def _check_shapes(data: dict, shapes: dict, what: str) -> None:
    for key, (kind, member, shape) in shapes.items():
        value = data.get(key, kind())
        if not isinstance(value, kind) or member and not all(isinstance(v, member) for v in value):
            raise ParameterError(f"{what} field {key!r} must be {shape}")


def expand_suite(config: dict) -> list[tuple[str, GeneratorSpec]]:
    """Expand a suite config into (instance_id, spec) pairs, every spec
    parsed and checked; an id is the spec's class and its index.

    Raises ParameterError, naming the field, when the suite or one of its
    fields has the wrong JSON type: ``instances``, ``algorithms`` and
    ``sweep`` as _SUITE_FIELDS says, the sweep's ``classes`` as a list of
    strings, and ``seed`` and the sweep's ``count``, ``n_min`` and
    ``n_max`` as integers, when ``n_max`` is below ``n_min``, or when an
    instance spec, a sweep class or the sweep's ``size_dist`` is not one
    :class:`GeneratorSpec` accepts. The CBP_SEED environment variable
    overrides the base seed (and with it every derived instance seed).
    """
    if not isinstance(config, dict):
        raise ParameterError(f"suite must be a JSON object, got {type(config).__name__}")
    _check_shapes(config, _SUITE_FIELDS, "suite")
    base_seed = int(os.environ.get("CBP_SEED", _spec_field(config, "seed", 0)))
    stream = SplitMix64(base_seed)
    out: list[tuple[str, GeneratorSpec]] = []
    for idx, data in enumerate(config.get("instances", [])):
        data = dict(data)
        if "seed" not in data or "CBP_SEED" in os.environ:
            data["seed"] = stream.next_u64()
        spec = GeneratorSpec.from_dict(data)
        out.append((f"{spec.klass}-{idx:05d}", spec))
    sweep = config.get("sweep")
    if sweep:
        _check_shapes(sweep, {"classes": (list, str, "a list of strings")}, "sweep")
        count = _spec_field(sweep, "count", 10)
        n_min = _spec_field(sweep, "n_min", 4)
        n_max = _spec_field(sweep, "n_max", 14)
        if n_max < n_min:
            raise ParameterError(f"sweep field 'n_max' must be at least n_min = {n_min}, got {n_max}")
        size_dist = _size_dist(sweep.get("size_dist"))
        for klass in sweep.get("classes", ["bipartite"]):
            for k in range(count):
                n = n_min + stream.below(n_max - n_min + 1) if n_max > n_min else n_min
                density = round(0.1 + 0.8 * stream.unit(), 6)
                spec = GeneratorSpec(klass=klass, n=n, density=density, size_dist=size_dist, seed=stream.next_u64())
                out.append((f"{klass}-{len(out):05d}", spec))
    return out


def run_suite(config: dict, out_dir, jobs: int = 1) -> RunReport:
    """Run a suite config, write report.csv + per-instance JSON + summary.

    The suite is read and checked in full (:func:`expand_suite`, then the
    ``algorithms``, ``oracle``, ``oracle_limit`` and ``deterministic``
    settings, each of its default's JSON type), and every instance is
    evaluated, before any output exists.
    """
    pairs = expand_suite(config)
    settings = _Settings(**{f.name: _spec_field(config, f.name, f.default) for f in fields(_Settings)})
    args = ([spec for _, spec in pairs], [iid for iid, _ in pairs], [settings] * len(pairs))
    if jobs > 1 and len(pairs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_evaluate_instance, *args))
    else:
        results = list(map(_evaluate_instance, *args))
    rows = [row for r, _ in results for row in r]
    details = [d for _, d in results]
    rows.sort(key=lambda r: (r.instance_id, r.algorithm))
    details.sort(key=lambda d: d["instance_id"])

    out = Path(out_dir)
    (out / "results").mkdir(parents=True, exist_ok=True)
    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.as_csv())
    for d in details:
        (out / "results" / f"{d['instance_id']}.json").write_text(dump_json(d))
    _write_summary(rows, out / "summary.csv")
    meta = {"config": config, "instances": len(pairs)}
    if not settings.deterministic:
        meta["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    (out / "meta.json").write_text(dump_json(meta))
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


def dump_json(data) -> str:
    """The text of every JSON file and payload ``cbp`` writes: sorted keys,
    indent 1, and a final newline."""
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


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
    Path(path).write_text(dump_json(instance_to_dict(instance)))


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
    Path(path).write_text(dump_json(packing_to_dict(packing)))
