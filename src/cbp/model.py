"""Instance and packing data model.

Items carry exact rational sizes in [0, 1] (``fractions.Fraction``) and a
conflict graph on item ids. Sizes are Fractions at the API and file
boundary; the work runs on integer units. :func:`size_units` writes a set
of sizes as numerators over the lcm D of their denominators, so a bin of
capacity 1 holds D units, and each instance keeps one such table
(:attr:`ConflictInstance.unit_table`), built at construction and inherited
by its restrictions. Size sums, the threshold classes (1/3, 1/2, eps),
validation and every packing hot loop compare these ints; Python ints
never round, so every capacity check stays exact. Instances and packings
are immutable after construction; every operation here is a pure function.

The conflict graph is stored once, as one neighbour bitmask per item in
``adjacency``, which every algorithm, equality and hashing read. Every
instance is checked and built from masks by one builder: the public
constructor first reads its edge list into masks, a generated instance
hands its masks to :func:`_from_masks`, and a restriction takes its
parent's. ``edges`` is a read-only Set view of the masks that builds and
keeps nothing; its operators (``|``, ``-``, ``&``) return frozensets. No
algorithm reads it.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from collections.abc import Set
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

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


def bin_lower_bound(units: Iterable[int], den: int) -> int:
    """The L1 bound max(⌈Σ units / den⌉, #{2u > den}) on the bins of any
    packing of items of ``units`` over ``den`` (Martello & Toth 1990):
    the bins hold the total size, and no two items larger than 1/2 share
    one. It ignores conflicts, so it bounds every conflict graph too."""
    total = large = 0
    for u in units:
        total += u
        large += 2 * u > den
    return max(-(-total // den), large)


def fits_within(ids: Iterable[int], units: Union[Mapping[int, int], Sequence[int]]) -> Callable[[int], int]:
    """``fits(room)``: the bitmask of the ``ids`` of at most ``room`` units.

    One prefix mask per item of ``ids`` sorted by units; a call finds its
    prefix by bisection, so it costs O(log n) whatever the answer holds.
    ``units`` is read by id, so any int key works, as the chordal
    generator's interval endpoints do.
    """
    order = sorted(ids, key=units.__getitem__)
    caps = [units[v] for v in order]
    masks = [0]
    for v in order:
        masks.append(masks[-1] | 1 << v)
    return lambda room: masks[bisect_right(caps, room)]


class ConflictInstance:
    """A set of items with sizes and a conflict graph.

    Item ids are nonnegative integers (dense 0..n-1 at parse time; a
    restriction keeps the original ids). ``labels`` maps ids back to the
    original external names for reporting. ``unit_table`` is ``(units,
    den)`` with ``units[i] / den == sizes[i]`` for every item, built by
    :func:`size_units` at construction; a restriction inherits its
    parent's ``den``, a common multiple of its own denominators, which
    every integer comparison reads the same.

    The constructor reads ``sizes`` and the ``edges`` list into neighbour
    masks and builds the instance as :func:`_from_masks` does, so both
    check the same things with the same messages.
    """

    __slots__ = ("items", "sizes", "class_hint", "labels", "adjacency", "unit_table")

    def __init__(
        self,
        sizes: Union[Mapping[int, SizeLike], Sequence[SizeLike]],
        edges: Iterable[tuple[int, int]] = (),
        class_hint: Optional[str] = None,
        labels: Optional[Mapping[int, str]] = None,
    ):
        if isinstance(sizes, Mapping):
            pairs = sorted((_item_id(i), as_size(s)) for i, s in sizes.items())
        else:
            pairs = [(i, as_size(s)) for i, s in enumerate(sizes)]
        if pairs and pairs[0][0] < 0:
            raise ParameterError(f"item ids must be nonnegative, got {pairs[0][0]}")
        size_map = dict(pairs)
        adj = dict.fromkeys(size_map, 0)
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ParameterError(f"edge {edge!r} is not a pair of item ids") from None
            u, v = _item_id(u), _item_id(v)
            if u not in adj or v not in adj:
                raise _unknown_edge(u, v)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._build(size_map, adj, class_hint, labels, None)

    def _build(self, sizes: dict[int, Fraction], adjacency: dict[int, int], class_hint, labels, units) -> None:
        # The one place every instance is checked and filled in; see _from_masks.
        items = tuple(sizes)
        if units is None:
            units = _unit_table(sizes)
        outside = ~_ids_mask(items)
        for u in items:
            mask = adjacency[u]
            if mask >> u & 1:
                raise ParameterError(f"self-loop on item {u}")
            if mask & outside:
                raise _unknown_edge(u, _mask_to_ids(mask & outside)[0])
        try:
            named = {i: str(labels[i]) for i in items} if labels else {i: str(i) for i in items}
        except KeyError as exc:
            raise ParameterError(f"item {exc.args[0]} has no label") from None
        self.items: tuple[int, ...] = items
        self.sizes: dict[int, Fraction] = sizes
        self.adjacency: dict[int, int] = adjacency
        self.unit_table: tuple[dict[int, int], int] = units
        self.class_hint = class_hint
        self.labels: dict[int, str] = named

    @property
    def edges(self) -> Set[tuple[int, int]]:
        """The conflict edges as pairs ``(u, v)`` with ``u < v``: a
        read-only Set view of the neighbour masks, which builds and keeps
        nothing. It tests, counts and probes in place, iterates in
        ascending order, hashes and compares equal like the frozenset of
        its pairs, and its operators (``|``, ``-``, ``&``) return
        frozensets. The algorithms, equality and hashing read
        ``adjacency`` only.
        """
        return _EdgeView(self)

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
        adj = self.adjacency
        return u in adj and v in adj and bool(adj[u] >> v & 1)

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
        """All conflict edges with both endpoints inside ``items``, as
        ``(u, v)`` with ``u < v``, in ascending order."""
        inside = _ids_mask(items)
        adj = self.adjacency
        # -(2 << u) masks the ids above u.
        return [(u, v) for u in _mask_to_ids(inside) for v in _mask_to_ids(adj[u] & inside & -(2 << u))]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConflictInstance):
            return NotImplemented
        return self.items == other.items and self.sizes == other.sizes and self.adjacency == other.adjacency

    def __hash__(self):
        return hash((self.items, tuple(self.sizes.values()), tuple(self.adjacency.values())))

    def __repr__(self) -> str:
        return f"ConflictInstance(n={self.n}, edges={len(self.edges)}, hint={self.class_hint!r})"


class _EdgeView(Set):
    """``ConflictInstance.edges``: the pairs ``(u, v)``, ``u < v``, of the
    instance's neighbour masks, read from the masks at each call."""

    __slots__ = ("_instance",)

    def __init__(self, instance: ConflictInstance):
        self._instance = instance

    def __bool__(self) -> bool:
        return any(self._instance.adjacency.values())

    def __len__(self) -> int:
        return sum(mask.bit_count() for mask in self._instance.adjacency.values()) // 2

    def __contains__(self, pair) -> bool:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        u, v = pair
        return isinstance(u, int) and isinstance(v, int) and u < v and self._instance.has_edge(u, v)

    def __iter__(self):
        return iter(self._instance.conflicting_pairs(self._instance.items))

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    __hash__ = Set._hash


def _item_id(value) -> int:
    """``value`` as an item id: an int, not a bool or a non-integral value
    that ``int()`` would truncate."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"item ids must be integers, got {value!r}")
    return int(value)


def _unknown_edge(u: int, v: int) -> ParameterError:
    return ParameterError(f"edge ({u}, {v}) references unknown items")


def _unit_table(sizes: Mapping[int, Fraction]) -> tuple[dict[int, int], int]:
    """``(units, den)`` of :func:`size_units` keyed by the ids of
    ``sizes``, each size checked to lie in [0, 1]."""
    units, den = size_units(sizes.values())
    table = dict(zip(sizes, units))
    for i, u in table.items():
        if not 0 <= u <= den:
            raise ParameterError(f"size of item {i} is {sizes[i]}, outside [0, 1]")
    return table, den


def _ids_mask(ids: Iterable[int]) -> int:
    """The bitmask with bit ``i`` set for each ``i`` of ``ids``."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


# bin() digits to 0/1 bytes, for itertools.compress.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _mask_to_ids(mask: int) -> list[int]:
    """The ids of the set bits of a nonnegative ``mask``, ascending.

    A mask with fewer than 16 set bits, or fewer than one in eight of its
    width, is read off lowest bit first, one step per set bit. A denser
    mask is decoded in one C-level pass: its binary digits, reversed, select
    their own positions.
    """
    count = mask.bit_count()
    if count < 16 or count << 3 < mask.bit_length():
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
    return list(compress(range(len(bits)), bits))


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

    def with_source(self, source: str) -> "Packing":
        return Packing(self.bins, source, self.flags)

    def with_flags(self, *flags: str) -> "Packing":
        return Packing(self.bins, self.source, self.flags + tuple(flags))


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


def _from_masks(
    sizes: dict[int, Fraction],
    adjacency: dict[int, int],
    class_hint: Optional[str] = None,
    labels: Optional[Mapping[int, str]] = None,
    units: Optional[tuple[dict[int, int], int]] = None,
) -> ConflictInstance:
    """An instance built from its neighbour masks, with no edge list.

    ``sizes`` maps the items, in ascending id order, to their sizes, and
    ``adjacency`` the same items to their masks; the instance keeps both
    dicts. ``units``, when given, is a unit table of ``sizes`` already
    checked (a restriction's, cut from its parent's); otherwise it is
    built and every size checked to lie in [0, 1]. No mask may have its
    own item's bit or one outside the items, and labels must cover every
    item (each is labelled by its id without them): the public checks, run
    by the same code. Symmetric masks are the caller's duty, not checked.
    """
    out = object.__new__(ConflictInstance)
    out._build(sizes, adjacency, class_hint, labels, units)
    return out


def restrict_instance(instance: ConflictInstance, subset: Iterable[int]) -> ConflictInstance:
    """Induced sub-instance on ``subset``.

    Item ids are preserved; edges are restricted to the kept items. The
    sub-instance is built from its parent's sizes, masks and unit table by
    :func:`_from_masks`. Its ``edges``, like every instance's, is a
    read-only Set view of its masks whose operators return frozensets.
    """
    sub = set(subset)
    unknown = sub - instance.sizes.keys()
    if unknown:
        raise ParameterError(f"subset contains unknown items: {sorted(unknown)}")
    items = sorted(sub)
    inside = _ids_mask(items)
    units, den = instance.unit_table
    return _from_masks(
        {i: instance.sizes[i] for i in items},
        {i: instance.adjacency[i] & inside for i in items},
        instance.class_hint,
        instance.labels,
        ({i: units[i] for i in items}, den),
    )
