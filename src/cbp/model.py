"""Instance and packing data model.

Items carry exact rational sizes in [0, 1] (``fractions.Fraction``) and a
conflict graph on item ids. Sizes are Fractions at the API and file
boundary; the work runs on integer units. :func:`size_units` writes a set
of sizes as numerators over the lcm D of their denominators, so a bin of
capacity 1 holds D units, and each instance keeps one such table
(:attr:`ConflictInstance.unit_table`), filled on first use and inherited
by its restrictions. Size sums, the threshold classes (1/3, 1/2, eps),
validation and every packing hot loop compare these ints; Python ints
never round, so every capacity check stays exact. Instances and packings
are immutable after construction; every operation here is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import ParameterError

SizeLike = Union[Fraction, int, float, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_size(value: SizeLike) -> Fraction:
    """Coerce a size to an exact Fraction.

    Strings are read either as "p/q" or as a decimal literal; floats are
    interpreted by their shortest decimal repr (so 0.2 becomes 1/5, not the
    nearest binary double).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParameterError(f"not a size: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ParameterError(f"not a size: {value!r}")
        return Fraction(repr(value))
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"cannot parse size {value!r}") from exc
    raise ParameterError(f"cannot parse size {value!r}")


def size_units(sizes: Iterable[Fraction]) -> tuple[list[int], int]:
    """Exact integer units: ``(units, den)`` with ``units[k] / den == sizes[k]``.

    ``den`` is the lcm of the denominators (1 when there are none, or
    when every size is an int), so a set of these items fits a bin of
    capacity 1 exactly when its units sum to at most ``den``. There is no
    cap on ``den``; ints never overflow.
    """
    ratios = [s.as_integer_ratio() for s in sizes]
    den = math.lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


class ConflictInstance:
    """A set of items with sizes and a conflict graph.

    Item ids are nonnegative integers (dense 0..n-1 at parse time; a
    restriction keeps the original ids). ``labels`` maps ids back to the
    original external names for reporting.
    """

    __slots__ = ("items", "sizes", "edges", "class_hint", "labels", "adjacency", "_units")

    def __init__(
        self,
        sizes: Union[Mapping[int, SizeLike], Sequence[SizeLike]],
        edges: Iterable[tuple[int, int]] = (),
        class_hint: Optional[str] = None,
        labels: Optional[Mapping[int, str]] = None,
    ):
        if isinstance(sizes, Mapping):
            size_map = {int(i): as_size(s) for i, s in sizes.items()}
        else:
            size_map = {i: as_size(s) for i, s in enumerate(sizes)}
        for i, s in size_map.items():
            if i < 0:
                raise ParameterError(f"item ids must be nonnegative, got {i}")
            if not (ZERO <= s <= ONE):
                raise ParameterError(f"size of item {i} is {s}, outside [0, 1]")
        self.items: tuple[int, ...] = tuple(sorted(size_map))
        self.sizes: dict[int, Fraction] = {i: size_map[i] for i in self.items}

        norm = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ParameterError(f"self-loop on item {u}")
            if u not in size_map or v not in size_map:
                raise ParameterError(f"edge ({u}, {v}) references unknown items")
            norm.add((u, v) if u < v else (v, u))
        self.edges: frozenset[tuple[int, int]] = frozenset(norm)
        self.class_hint = class_hint
        self.labels: dict[int, str] = (
            {i: str(labels[i]) for i in self.items} if labels else {i: str(i) for i in self.items}
        )

        adj = {i: 0 for i in self.items}
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adjacency: dict[int, int] = adj
        self._units: Optional[tuple[dict[int, int], int]] = None

    @property
    def unit_table(self) -> tuple[dict[int, int], int]:
        """``(units, den)``: ``units[i] / den == sizes[i]`` for every item.

        Filled from ``sizes`` with :func:`size_units` on first use. A
        restriction inherits its parent's ``den``, a common multiple of its
        own denominators, which every integer comparison reads the same.
        """
        if self._units is None:
            units, den = size_units(self.sizes.values())
            self._units = (dict(zip(self.items, units)), den)
        return self._units

    def bin_state(self, members: Iterable[int]) -> tuple[int, int]:
        """``(blocked, room)`` of a bin holding ``members``.

        ``blocked`` ORs the members' neighbour masks, so an item ``v`` may
        join the bin only if bit ``v`` is clear; ``room`` is the capacity
        left in the unit table's units (``den - Σ units``).
        """
        units, room = self.unit_table
        blocked = 0
        for v in members:
            blocked |= self.adjacency[v]
            room -= units[v]
        return blocked, room

    @property
    def n(self) -> int:
        return len(self.items)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(_mask_to_ids(self.adjacency[v]))

    def size_of(self, items: Iterable[int]) -> Fraction:
        units, den = self.unit_table
        return Fraction(sum(units[i] for i in items), den)

    @property
    def total_size(self) -> Fraction:
        units, den = self.unit_table
        return Fraction(sum(units.values()), den)

    def is_independent(self, items: Iterable[int]) -> bool:
        mask = 0
        for i in items:
            if self.adjacency[i] & mask:
                return False
            mask |= 1 << i
        return True

    def conflicting_pairs(self, items: Iterable[int]) -> list[tuple[int, int]]:
        """All conflict edges with both endpoints inside ``items``."""
        ids = sorted(set(items))
        inside = 0
        for i in ids:
            inside |= 1 << i
        pairs = []
        for u in ids:
            # Bit k of ``later`` is the neighbour u + 1 + k.
            later = (self.adjacency[u] & inside) >> (u + 1)
            while later:
                low = later & -later
                pairs.append((u, u + low.bit_length()))
                later ^= low
        return pairs

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConflictInstance):
            return NotImplemented
        return self.items == other.items and self.sizes == other.sizes and self.edges == other.edges

    def __hash__(self):
        return hash((self.items, tuple(self.sizes.values()), self.edges))

    def __repr__(self) -> str:
        return f"ConflictInstance(n={self.n}, edges={len(self.edges)}, hint={self.class_hint!r})"


def _mask_to_ids(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class ItemClasses:
    """Size-threshold partition of the items.

    ``large`` holds s > 1/2, ``medium`` 1/3 < s <= 1/2, ``small`` s <= 1/3.
    When an epsilon was given, ``tiny`` holds s <= eps and ``big`` the rest.
    """

    large: frozenset[int]
    medium: frozenset[int]
    small: frozenset[int]
    eps: Optional[Fraction] = None
    tiny: Optional[frozenset[int]] = None
    big: Optional[frozenset[int]] = None


def classify_items(instance: ConflictInstance, eps: Optional[SizeLike] = None) -> ItemClasses:
    """Partition items into large/medium/small (and tiny/big when eps given).

    Boundaries are closed exactly as defined: s = 1/2 is medium, s = 1/3 is
    small, s = eps is tiny. ``eps`` must lie strictly inside (0, 0.1).
    """
    eps_f: Optional[Fraction] = None
    if eps is not None:
        eps_f = as_size(eps)
        if not (ZERO < eps_f < Fraction(1, 10)):
            raise ParameterError(f"eps must be in (0, 0.1), got {eps_f}")
    units, den = instance.unit_table
    large, medium, small = set(), set(), set()
    for i in instance.items:
        u = units[i]
        if 2 * u > den:
            large.add(i)
        elif 3 * u > den:
            medium.add(i)
        else:
            small.add(i)
    tiny = big = None
    if eps_f is not None:
        # u / den <= p / q  <=>  u * q <= p * den
        p, q = eps_f.numerator, eps_f.denominator
        tiny = frozenset(i for i in instance.items if units[i] * q <= p * den)
        big = frozenset(instance.items) - tiny
    return ItemClasses(
        large=frozenset(large),
        medium=frozenset(medium),
        small=frozenset(small),
        eps=eps_f,
        tiny=tiny,
        big=big,
    )


@dataclass(frozen=True)
class Packing:
    """An ordered list of bins (item-id sets) plus provenance metadata.

    A Packing object is just data; use :func:`validate_packing` to check
    disjointness, capacity and independence against an instance.
    """

    bins: tuple[frozenset[int], ...]
    source: str = ""
    flags: tuple[str, ...] = ()

    @property
    def bin_count(self) -> int:
        return len(self.bins)

    def items(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.bins:
            out |= b
        return frozenset(out)

    def with_source(self, source: str, extra_flags: tuple[str, ...] = ()) -> "Packing":
        return Packing(self.bins, source, self.flags + extra_flags)

    def with_flags(self, *flags: str) -> "Packing":
        return Packing(self.bins, self.source, self.flags + tuple(flags))


def make_packing(bins: Iterable[Iterable[int]], source: str = "", flags: tuple[str, ...] = ()) -> Packing:
    return Packing(tuple(frozenset(b) for b in bins), source, flags)


class Violation(NamedTuple):
    bin_index: Optional[int]
    kind: str  # overflow | conflict | duplicate-item | unknown-item | uncovered-item
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    feasible: bool
    violations: tuple[Violation, ...]
    covered_items: frozenset[int]


def validate_packing(
    instance: ConflictInstance, packing: Packing, require_cover: bool = False
) -> ValidationReport:
    """Check a packing against an instance, reporting every problem found.

    Problems are reported, never raised: overflows (exact unit sums
    against the instance's ``den``), intra-bin conflict edges, items
    occurring in more than one bin, unknown item ids, and (when
    require_cover) items missing from all bins.
    """
    units, den = instance.unit_table
    violations: list[Violation] = []
    seen: set[int] = set()
    covered: set[int] = set()
    for idx, b in enumerate(packing.bins):
        known = []
        for i in sorted(b):
            if i not in instance.sizes:
                violations.append(Violation(idx, "unknown-item", f"item {i} not in instance"))
                continue
            known.append(i)
            if i in seen:
                violations.append(Violation(idx, "duplicate-item", f"item {i} already packed"))
            seen.add(i)
            covered.add(i)
        total = sum(units[i] for i in known)
        if total > den:
            violations.append(Violation(idx, "overflow", f"bin size {Fraction(total, den)} > 1"))
        for u, v in instance.conflicting_pairs(known):
            violations.append(Violation(idx, "conflict", f"items {u} and {v} conflict"))
    if require_cover:
        for i in instance.items:
            if i not in covered:
                violations.append(Violation(None, "uncovered-item", f"item {i} in no bin"))
    return ValidationReport(
        feasible=not violations,
        violations=tuple(violations),
        covered_items=frozenset(covered),
    )


def concat_packings(b: Packing, c: Packing) -> Packing:
    """Bins of ``b`` followed by bins of ``c``."""
    source = b.source if b.source == c.source else (b.source or c.source)
    return Packing(b.bins + c.bins, source, b.flags + c.flags)


def union_packings(b: Packing, c: Packing) -> Packing:
    """Slot-wise union of two packings of equal length.

    The result is not necessarily feasible; callers must validate.
    """
    if b.bin_count != c.bin_count:
        raise ParameterError(f"bin counts differ: {b.bin_count} vs {c.bin_count}")
    bins = tuple(x | y for x, y in zip(b.bins, c.bins))
    return Packing(bins, b.source or c.source, b.flags + c.flags)


def restrict_instance(
    instance: ConflictInstance, subset: Iterable[int], mode: str = "intersect"
) -> ConflictInstance:
    """Induced sub-instance on ``subset`` (or its complement for subtract).

    Item ids are preserved; edges are restricted to the kept items. The
    parent's sizes are already checked, so the sub-instance is built from
    them, its masks and its unit table without validating again.
    """
    sub = set(subset)
    unknown = sub - instance.sizes.keys()
    if unknown:
        raise ParameterError(f"subset contains unknown items: {sorted(unknown)}")
    if mode == "intersect":
        kept = sub
    elif mode == "subtract":
        kept = set(instance.items) - sub
    else:
        raise ParameterError(f"mode must be 'intersect' or 'subtract', got {mode!r}")
    items = tuple(sorted(kept))
    inside = 0
    for i in items:
        inside |= 1 << i
    units, den = instance.unit_table
    out = object.__new__(ConflictInstance)
    out.items = items
    out.sizes = {i: instance.sizes[i] for i in items}
    out.edges = frozenset(instance.conflicting_pairs(items))
    out.class_hint = instance.class_hint
    out.labels = {i: instance.labels[i] for i in items}
    out.adjacency = {i: instance.adjacency[i] & inside for i in items}
    out._units = ({i: units[i] for i in items}, den)
    return out
