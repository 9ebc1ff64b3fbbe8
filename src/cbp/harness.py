"""Instance generators, benchmark runner, report persistence.

Generation is bit-reproducible from a seed via the documented splitmix
generator (see :mod:`cbp.rng`): sizes are drawn first (one draw per item in
id order), then the structure draws follow in the documented per-class
order. Instances are built as neighbour masks, with no edge list
(:func:`cbp.model._from_masks`). Reports are byte-identical across runs
when the suite's ``deterministic`` flag is set (no timestamp, zeroed
timings).
"""

from __future__ import annotations

import csv
import json
import os
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from fractions import Fraction
from itertools import compress
from pathlib import Path
from typing import Optional

from . import bpc, oracle, packing_classic
from .errors import CapabilityError, ParameterError
from .graphs import CLASS_TABLE, GraphClassInfo, has_class, minimum_coloring, recognize
from .model import (
    ConflictInstance,
    Packing,
    _from_masks,
    _ids_mask,
    as_size,
    classify_items,
    fits_within,
    restrict_instance,
    validate_packing,
)
from .rng import SplitMix64

GENERATOR_CLASSES = (*CLASS_TABLE, "edgeless", "b3dm-reduction")
# The largest ``n`` or b3dm count of a spec, and ``count`` or ``n_max`` of
# a sweep: about 40x the largest benchmark instance, checked before any draw.
COUNT_CAP = 1 << 14

B3DM_SIZES = {
    "element": Fraction(3, 20),   # 0.15
    "p_filler": Fraction(9, 20),  # 0.45
    "q_filler": Fraction(17, 20),  # 0.85
    "triple": Fraction(11, 20),   # 0.55
}


# A field's type, that of its default -> (the JSON types it is read from,
# as named in errors); any other type is a dataclass, read from an object.
_JSON_TYPES = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    bool: (bool, "a boolean"),
    tuple: (list, "a list"),
}


def _spec_field(data: dict, key: str, default, what: str = "spec field"):
    """``data[key]`` (or ``default``) as the type of ``default``, which must
    match its JSON type: an integer for int, any number for float, a string
    for str, true or false for bool (a boolean is no number), a list for a
    tuple, each member read as the default's first member (the members of
    an empty default are not checked), and a JSON object for a dataclass,
    read by :func:`_read_spec` (null: the default)."""
    if data.get(key) is None and (key not in data or is_dataclass(default)):
        return default
    value, kind = data[key], type(default)
    accepted, name = _JSON_TYPES.get(kind, (dict, "a JSON object"))
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ParameterError(f"{what} {key!r} must be {name}, got {type(value).__name__}")
    if is_dataclass(kind):
        return _read_spec(kind, value)
    if kind is tuple and default:
        return tuple(_spec_field({key: v}, key, default[0], "each member of spec field") for v in value)
    return kind(value)


def _check_keys(data: dict, known: tuple, what: str) -> None:
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ParameterError(f"unknown {what} {unknown[0]!r}; known fields: {', '.join(known)}")


def _read_spec(cls, data: dict, **given):
    """``cls`` built from the JSON object ``data``: each field not in
    ``given`` is read by :func:`_spec_field` with the field's default. A key
    that names no field is rejected; a ``klass`` field is also spelled
    "class"."""
    names = tuple(f.name for f in fields(cls))
    _check_keys(data, ("class", *names) if "klass" in names else names, "spec field")
    read = {
        f.name: _spec_field(data, f.name, f.default_factory() if f.default is MISSING else f.default)
        for f in fields(cls)
        if f.name not in given
    }
    return cls(**read, **given)


def _check_cap(spec, what: str, *names: str) -> None:
    for name in names:
        if getattr(spec, name) > COUNT_CAP:
            raise ParameterError(f"{what} {name!r} must be at most {COUNT_CAP}, got {getattr(spec, name)}")


def _check_unit(spec, *names: str) -> None:
    for name in names:
        value = getattr(spec, name)
        if not 0.0 <= value <= 1.0:
            raise ParameterError(f"spec field {name!r} must be in [0, 1], got {value}")


# The grid20 sizes k/20, k = 1..20, built once.
_GRID20 = tuple(Fraction(k, 20) for k in range(1, 21))
# Uniform draws are rounded to multiples of 1 / _NANO.
_NANO = 10**9


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
        sizes = []
        for value in self.values:
            try:
                size = as_size(value)
                if not 0 <= size <= 1:
                    raise ParameterError
            except ParameterError:
                raise ParameterError(f"spec field 'values' must hold sizes in [0, 1], got {value!r}") from None
            sizes.append(size)
        # The parsed ``values``, which a discrete draw picks from.
        object.__setattr__(self, "_sizes", tuple(sizes))

    def draw(self, rng: SplitMix64) -> Fraction:
        if self.kind == "grid20":
            return _GRID20[rng.below(20)]
        if self.kind == "uniform":
            x = self.lo + (self.hi - self.lo) * rng.unit()
            x = min(max(x, 0.0), 1.0)
            # x rounded half-even to 9 decimals, exactly: the decimal that
            # ``round(x, 9)`` prints, as its shortest repr has at most 10
            # significant digits.
            p, q = x.as_integer_ratio()
            k, r = divmod(p * _NANO, q)
            if 2 * r > q or (2 * r == q and k & 1):
                k += 1
            return Fraction(k, _NANO)
        return self._sizes[rng.below(len(self._sizes))]


@dataclass(frozen=True)
class GeneratorSpec:
    """One seeded instance. Construction checks the values (class, ``n``,
    ``density`` and the b3dm counts, each at most :data:`COUNT_CAP`, as is
    the b3dm item total 2(x + y + z) + 2t - 4·guess);
    :meth:`from_dict` reads a JSON spec, every field checked for its JSON
    type first."""

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
        _check_cap(self, "spec field", "n", "x_count", "y_count", "z_count", "t_count")
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
        total = 2 * (x + y + z) + 2 * t - 4 * i
        if total > COUNT_CAP:
            raise ParameterError(f"b3dm spec has {total} items, must be at most {COUNT_CAP}")
        if self.variant not in ("BPB", "BPS"):
            raise ParameterError(f"variant must be BPB or BPS, got {self.variant!r}")

    @staticmethod
    def from_dict(data: dict) -> "GeneratorSpec":
        if not isinstance(data, dict):
            raise ParameterError(f"generator spec must be a JSON object, got {type(data).__name__}")
        return _read_spec(GeneratorSpec, data, klass=data.get("class", data.get("klass")))


def generate(spec: GeneratorSpec) -> ConflictInstance:
    """Deterministic instance for a spec; the declared class is verified.

    Each item's neighbour mask is written directly, with no edge list:
    from one mask per group (cluster, complete multipartite), from the
    interval endpoints (chordal) or from the clique's mask (split).
    Bipartite and split graphs draw one coin per candidate pair, in id
    order.
    """
    if spec.klass == "b3dm-reduction":
        return generate_b3dm(spec)[0]
    rng = SplitMix64(spec.seed)
    n, density = spec.n, spec.density
    sizes = {v: spec.size_dist.draw(rng) for v in range(n)}
    adj = [0] * n  # edgeless unless a class below joins items
    if spec.klass == "bipartite":
        side = [rng.below(2) for _ in range(n)]
        sides = ([v for v in range(n) if not side[v]], [v for v in range(n) if side[v]])
        for u in range(n):
            other = sides[1 - side[u]]
            later = other[bisect_right(other, u):]
            _join(adj, u, compress(later, rng.chances(density, len(later))))
    elif spec.klass == "split":
        in_clique = rng.chances(min(0.5, density), n)
        clique = list(compress(range(n), in_clique))
        stable = [v for v in range(n) if not in_clique[v]]
        mask = _ids_mask(clique)
        for u in clique:
            adj[u] = mask & ~(1 << u)
            _join(adj, u, compress(stable, rng.chances(density, len(stable))))
    elif spec.klass in ("cluster", "complete-multipartite"):
        groups = max(1, int(round(n * (1.0 - density)))) if n else 1
        member = [rng.below(groups) for _ in range(n)]
        masks = [0] * groups
        for v, g in enumerate(member):
            masks[g] |= 1 << v
        # A cluster joins the members of a group, a complete multipartite
        # graph those of different groups.
        if spec.klass == "cluster":
            adj = [masks[g] & ~(1 << v) for v, g in enumerate(member)]
        else:
            everyone = (1 << n) - 1
            adj = [everyone & ~masks[g] for g in member]
    elif spec.klass == "chordal":
        span = max(2 * n, 1)
        max_len = max(1, int(density * span))
        intervals = []
        for _ in range(n):
            a = rng.below(span)
            intervals.append((a, a + 1 + rng.below(max_len)))
        # Intervals [a, b] and [a', b'] meet when a' <= b and b' >= a.
        starts_le = fits_within(range(n), [a for a, _ in intervals])
        ends_ge = fits_within(range(n), [-b for _, b in intervals])
        adj = [starts_le(b) & ends_ge(-a) & ~(1 << v) for v, (a, b) in enumerate(intervals)]
    instance = _from_masks(sizes, dict(enumerate(adj)), class_hint=spec.klass)
    _verify_declared_class(instance, spec.klass)
    return instance


def _join(adj: list[int], u: int, neighbours) -> None:
    """Add the edges from ``u`` to each of ``neighbours`` to the masks."""
    bit, row = 1 << u, adj[u]
    for v in neighbours:
        row |= 1 << v
        adj[v] |= bit
    adj[u] = row


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

    # A triple's item conflicts with every element outside the triple; in
    # BPS the triple items also form a clique.
    adj = dict.fromkeys(sizes, 0)
    element_mask, triple_mask = _ids_mask(elements), _ids_mask(t_ids)
    for t_item, triple in zip(t_ids, triples):
        adj[t_item] = element_mask & ~_ids_mask(triple)
        if spec.variant == "BPS":
            adj[t_item] |= triple_mask & ~(1 << t_item)
        for u in triple:
            adj[u] |= 1 << t_item  # the triples holding u, flipped below
    for u in elements:
        adj[u] = triple_mask & ~adj[u]

    instance = _from_masks(sizes, adj, class_hint=spec.variant.lower(), labels=labels)
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


# Algorithm names, in report order.
ALGORITHMS = (
    "ffd", "asymptotic_bp", "color_sets", "max_solve", "matching_pack",
    "approx_bpc", "split_approx", "abs_bpb", "multipartite_pack",
)
# The solvers that also take the error parameter as ``eps=``.
EPS_ALGORITHMS = ("max_solve", "approx_bpc", "split_approx")


def _check_algorithm(name: str) -> None:
    if name not in ALGORITHMS:
        raise ParameterError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")


def run_algorithm(name: str, instance: ConflictInstance, info: GraphClassInfo, **kw) -> Packing:
    """Dispatch an algorithm by CLI/report name (CapabilityError if unfit).

    ``ffd`` and ``asymptotic_bp`` are ``packing_classic``'s, fit for
    edgeless instances only; the rest are ``bpc``'s. Keywords (``eps``)
    reach the solver; only EPS_ALGORITHMS take one. The function is looked
    up in its module at call time, so a wrapper rebound there (as
    benchmarks/tracing.py installs) sees the call.
    """
    _check_algorithm(name)
    if name in ("ffd", "asymptotic_bp"):
        if not has_class(instance, "edgeless"):
            raise CapabilityError(f"{name} handles conflict-free instances only")
        return getattr(packing_classic, name)(instance.items, instance.sizes, **kw)
    return getattr(bpc, name)(instance, info, **kw)


def _ffd_bounds_ok(instance: ConflictInstance, packing: Packing) -> bool:
    if instance.n == 0:
        return packing.bin_count <= 1
    max_s = max(instance.sizes.values())
    first = (1 + 2 * max_s) * instance.total_size + 1
    # The second bound is Lemma 4's with one color class.
    return packing.bin_count <= min(first, bpc.lemma4_bound(instance, 1))


def _matching_bound_ok(
    instance: ConflictInstance, info: GraphClassInfo, packing: Packing, opt: int
) -> bool:
    chi = len(minimum_coloring(instance, info))
    classes = classify_items(instance)
    bound = opt + chi + Fraction(4, 3) * instance.size_of(classes.small)
    return Fraction(packing.bin_count) <= bound


def _decomposition_ok(instance: ConflictInstance, info: GraphClassInfo, opt: int, limit: int) -> bool:
    # multipartite_pack returned, so ``info.parts`` is set; ``opt`` is set
    # only when n <= ``limit``, so every part is within the oracle's limit.
    total = 0
    for part in info.parts:
        _, part_opt = oracle.opt_bpc_exact(restrict_instance(instance, part), limit_n=limit)
        total += part_opt
    return total == opt


@dataclass(frozen=True)
class _Sweep:
    """A suite's sweep: ``count`` instances of each class, with ``n`` in
    [n_min, n_max] and density in [0.1, 0.9] drawn from the suite's seed
    stream. Construction checks every class, whatever ``count`` is."""

    classes: tuple = ("bipartite",)
    count: int = 10
    n_min: int = 4
    n_max: int = 14
    size_dist: SizeDist = field(default_factory=SizeDist)

    def __post_init__(self):
        for klass in self.classes:
            GeneratorSpec(klass=klass)  # the class check every spec makes
        for name in ("count", "n_min"):
            if getattr(self, name) < 0:
                raise ParameterError(f"sweep field {name!r} must be at least 0, got {getattr(self, name)}")
        _check_cap(self, "sweep field", "count", "n_max")
        if self.n_max < self.n_min:
            raise ParameterError(f"sweep field 'n_max' must be at least n_min = {self.n_min}, got {self.n_max}")


@dataclass(frozen=True)
class _Suite:
    """A suite file (see README "Suite file"); construction checks every
    algorithm name. The instance specs stay JSON objects until
    :func:`expand_suite` seeds them."""

    instances: tuple = ()
    # Absent or null: no sweep, and no draw from the seed stream for one.
    sweep: _Sweep = _Sweep(count=0)
    seed: int = 0
    algorithms: tuple = ("approx_bpc",)
    oracle: bool = False
    oracle_limit: int = 14
    deterministic: bool = True

    def __post_init__(self):
        for name in self.algorithms:
            _check_algorithm(name)
        if self.oracle_limit < 0:
            raise ParameterError(f"suite field 'oracle_limit' must be at least 0, got {self.oracle_limit}")


def _evaluate_instance(spec: GeneratorSpec, instance_id: str, settings: _Suite) -> tuple[list[RunRow], dict]:
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
            row.lemma4_ok = True  # color_sets raises SolverError unless its Lemma 4 bound holds
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


def expand_suite(config: dict) -> tuple[_Suite, list[tuple[str, GeneratorSpec]]]:
    """The suite config read by :func:`_read_spec`, and its (instance_id,
    spec) pairs, every spec parsed and checked; an id is the spec's class
    and its index.

    Raises ParameterError, naming the field, for a key that names no suite
    or sweep field, a field of the wrong JSON type, a sweep whose ``n_max``
    is below its ``n_min``, an unknown algorithm or sweep class, or an
    instance spec or sweep ``size_dist`` that :class:`GeneratorSpec`
    rejects. ``"sweep": {}`` is the default sweep. The CBP_SEED environment
    variable overrides the base seed (and with it every derived instance
    seed).
    """
    if not isinstance(config, dict):
        raise ParameterError(f"suite must be a JSON object, got {type(config).__name__}")
    suite = _read_spec(_Suite, config)
    stream = SplitMix64(int(os.environ.get("CBP_SEED", suite.seed)))
    out: list[tuple[str, GeneratorSpec]] = []
    for idx, data in enumerate(suite.instances):
        spec = GeneratorSpec.from_dict(data)
        if "seed" not in data or "CBP_SEED" in os.environ:
            spec = replace(spec, seed=stream.next_u64())
        out.append((f"{spec.klass}-{idx:05d}", spec))
    sweep = suite.sweep
    n_min, n_max = sweep.n_min, sweep.n_max
    for klass in sweep.classes:
        for _ in range(sweep.count):
            n = n_min + stream.below(n_max - n_min + 1) if n_max > n_min else n_min
            density = round(0.1 + 0.8 * stream.unit(), 6)
            spec = GeneratorSpec(klass=klass, n=n, density=density, size_dist=sweep.size_dist, seed=stream.next_u64())
            out.append((f"{klass}-{len(out):05d}", spec))
    return suite, out


def run_suite(config: dict, out_dir, jobs: int = 1) -> RunReport:
    """Run a suite config, write report.csv + per-instance JSON + summary.

    The suite is read and checked in full (:func:`expand_suite`), and every
    instance is evaluated, before any output exists.
    """
    if jobs < 1:
        raise ParameterError(f"jobs must be at least 1, got {jobs}")
    suite, pairs = expand_suite(config)
    # Each task carries the settings, not every instance's JSON object.
    settings = replace(suite, instances=())
    args = ([spec for _, spec in pairs], [iid for iid, _ in pairs], [settings] * len(pairs))
    if jobs > 1 and len(pairs) > 1:
        from concurrent.futures import ProcessPoolExecutor

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


def read_json(path):
    """The JSON value in the file at ``path``; every file ``cbp`` reads
    goes through here. A file nested too deeply for the parser raises a
    :class:`ParameterError` naming the file, and one that is not JSON the
    parser's ``ValueError``."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ParameterError(f"{path}: JSON nested too deeply to read") from None


def instance_to_dict(instance: ConflictInstance) -> dict:
    return {
        "items": [
            {"id": i, "size": f"{instance.sizes[i].numerator}/{instance.sizes[i].denominator}"}
            for i in instance.items
        ],
        "edges": [[u, v] for (u, v) in instance.edges],
        "class_hint": instance.class_hint,
    }


def instance_from_dict(data: dict) -> ConflictInstance:
    if not isinstance(data, dict):
        raise ParameterError(f"instance must be a JSON object, got {type(data).__name__}")
    _check_keys(data, ("items", "edges", "class_hint"), "instance field")
    raw_items = data.get("items", [])
    if not isinstance(raw_items, list) or not all(isinstance(e, dict) for e in raw_items):
        raise ParameterError("items must be a list of JSON objects")
    for k, entry in enumerate(raw_items):
        for key in ("id", "size"):
            if key not in entry:
                raise ParameterError(f"item {k} has no {key!r}")
        _check_keys(entry, ("id", "size"), f"item {k} field")
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
    # An endpoint follows the item-id rule: true is not item 1.
    if not isinstance(raw_edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and not any(isinstance(x, (list, dict, bool)) for x in e)
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
    return instance_from_dict(read_json(path))


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
    for k, b in enumerate(bins):
        if len(set(b)) < len(b):
            twice = next(v for j, v in enumerate(b) if v in b[:j])
            raise ParameterError(f"bin {k} lists item {twice} twice")
    flags = data.get("flags", [])
    if not isinstance(flags, list):
        raise ParameterError("flags must be a list")
    return Packing(tuple(frozenset(b) for b in bins), data.get("source", ""), tuple(flags))


def read_packing(path) -> Packing:
    return packing_from_dict(read_json(path))


def write_packing(packing: Packing, path) -> None:
    Path(path).write_text(dump_json(packing_to_dict(packing)))
