import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cbp import (
    ConflictInstance,
    ParameterError,
    classify_items,
    restrict_instance,
    validate_packing,
)
from cbp.harness import GENERATOR_CLASSES, GeneratorSpec, generate
from cbp.model import Packing, _from_masks, _mask_to_ids, as_size

from conftest import CLASSES, make_packing, seeded_instance


def test_as_size_parsing():
    assert as_size("3/20") == Fraction(3, 20)
    assert as_size("0.2") == Fraction(1, 5)
    assert as_size(0.2) == Fraction(1, 5)
    assert as_size(1) == 1
    assert as_size(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(ParameterError):
        as_size("abc")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "nan", "-inf"])
def test_as_size_rejects_non_finite(value):
    with pytest.raises(ParameterError):
        as_size(value)
    with pytest.raises(ParameterError):
        ConflictInstance([value])


def test_instance_validation():
    with pytest.raises(ParameterError):
        ConflictInstance({0: "1.2"})
    with pytest.raises(ParameterError):
        ConflictInstance({0: "-0.1"})
    with pytest.raises(ParameterError):
        ConflictInstance({0: "0.5", 1: "0.5"}, edges=[(0, 0)])
    with pytest.raises(ParameterError):
        ConflictInstance({0: "0.5"}, edges=[(0, 7)])
    with pytest.raises(ParameterError, match="item ids must be nonnegative, got -1"):
        ConflictInstance({-1: "0.5"})
    with pytest.raises(ParameterError, match="item 1 has no label"):
        ConflictInstance({0: "0.5", 1: "0.5"}, labels={0: "a"})
    with pytest.raises(ParameterError, match=r"edge \(-1, 0\) references unknown items"):
        ConflictInstance({0: "0.5", 1: "0.5"}, edges=[(-1, 0)])
    # Ids that int() would truncate or coerce are rejected, not renamed.
    with pytest.raises(ParameterError, match="item ids must be integers, got 0.5"):
        ConflictInstance({0.5: "1/2", 0.7: "1/3"})
    with pytest.raises(ParameterError, match="item ids must be integers, got 1.9"):
        ConflictInstance({0: "0.5", 1: "0.5"}, edges=[(0, 1.9)])
    with pytest.raises(ParameterError, match="item ids must be integers, got True"):
        ConflictInstance({0: "0.5", True: "0.5"})
    # An edge that is not a pair is named, as a bad id in one is.
    for edge, shown in (((0, 1, 2), "(0, 1, 2)"), (5, "5"), ((0,), "(0,)")):
        with pytest.raises(ParameterError, match=re.escape(f"edge {shown} is not a pair of item ids")):
            ConflictInstance([0.1, 0.2], [edge])
    inst = ConflictInstance({0: "0.5", 1: "0.5"}, edges=[(1, 0), (0, 1)])
    assert inst.edges == frozenset({(0, 1)})


def test_instance_equality_and_repr():
    inst = ConflictInstance({0: "1/2", 1: "1/3", 2: "1/4"}, edges=[(0, 1), (1, 2)], class_hint="bipartite")
    assert inst == ConflictInstance({0: "0.5", 1: "1/3", 2: 0.25}, edges=[(1, 2), (0, 1)])
    # Another type is not equal, not an error.
    assert inst != "ConflictInstance" and inst.__eq__(inst.sizes) is NotImplemented
    assert repr(inst) == "ConflictInstance(n=3, edges=2, hint='bipartite')"


def test_classify_spec_examples():
    inst = ConflictInstance({0: "0.6", 1: "0.5", 2: "0.2"})
    classes = classify_items(inst)
    assert classes.large == {0}
    assert classes.medium == {1}
    assert classes.small == {2}

    empty = ConflictInstance({})
    c = classify_items(empty)
    assert not (c.large | c.medium | c.small)

    inst2 = ConflictInstance({0: "0.15", 1: "0.55"})
    # eps must be < 0.1, so use scaled-down sizes for the tiny/big example
    inst3 = ConflictInstance({0: "0.03", 1: "0.55"})
    c3 = classify_items(inst3, eps=Fraction(1, 20))
    assert c3.tiny == {0}
    assert c3.big == {1}
    assert classify_items(inst2).large == {1}


def test_classify_boundaries_exact():
    inst = ConflictInstance({0: "1/2", 1: "1/3", 2: "0"})
    classes = classify_items(inst, eps=Fraction(1, 100))
    assert 0 in classes.medium  # s = 1/2 is medium, not large
    assert 1 in classes.small  # s = 1/3 is small, not medium
    assert 2 in classes.tiny  # s = eps boundary is tiny (0 <= eps)
    inst2 = ConflictInstance({0: "1/50"})
    c2 = classify_items(inst2, eps=Fraction(1, 50))
    assert 0 in c2.tiny


def test_classify_eps_range():
    inst = ConflictInstance({0: "0.5"})
    for bad in (0, Fraction(1, 10), -1, 1):
        with pytest.raises(ParameterError):
            classify_items(inst, eps=bad)


def test_classify_partitions_random():
    for seed in range(30):
        klass = CLASSES[seed % len(CLASSES)]
        inst = seeded_instance(klass, 3 + seed % 12, seed)
        c = classify_items(inst, eps=Fraction(1, 25))
        all_items = set(inst.items)
        assert c.large | c.medium | c.small == all_items
        assert len(c.large) + len(c.medium) + len(c.small) == len(all_items)
        assert c.tiny | c.big == all_items
        assert not (c.tiny & c.big)


def test_validate_packing_examples():
    empty = ConflictInstance({})
    assert validate_packing(empty, Packing(()), require_cover=True).feasible

    inst = ConflictInstance({0: "0.1", 1: "0.1"}, edges=[(0, 1)])
    report = validate_packing(inst, make_packing([{0, 1}]))
    assert not report.feasible
    assert [v.kind for v in report.violations] == ["conflict"]

    inst2 = ConflictInstance({0: "0.6", 1: "0.5"})
    report2 = validate_packing(inst2, make_packing([{0, 1}]))
    assert not report2.feasible
    assert [v.kind for v in report2.violations] == ["overflow"]


def test_validate_packing_duplicate_unknown_uncovered():
    inst = ConflictInstance({0: "0.1", 1: "0.1", 2: "0.1"})
    report = validate_packing(inst, make_packing([{0}, {0, 9}]), require_cover=True)
    kinds = sorted(v.kind for v in report.violations)
    assert kinds == ["duplicate-item", "uncovered-item", "uncovered-item", "unknown-item"]
    assert report.covered_items == {0}


def test_validate_matches_brute_recheck():
    for seed in range(25):
        inst = seeded_instance(CLASSES[seed % len(CLASSES)], 4 + seed % 9, 100 + seed)
        # split items into arbitrary bins of two
        items = sorted(inst.items)
        bins = [set(items[i : i + 2]) for i in range(0, len(items), 2)]
        packing = make_packing(bins)
        report = validate_packing(inst, packing, require_cover=True)
        brute_ok = all(
            sum((inst.sizes[i] for i in b), Fraction(0)) <= 1
            and all(not inst.has_edge(u, v) for u in b for v in b if u < v)
            for b in bins
        )
        assert report.feasible == brute_ok


def test_restrict_examples():
    inst = ConflictInstance({0: "0.2", 1: "0.3", 2: "0.4"}, edges=[(0, 1), (1, 2)])
    assert restrict_instance(inst, inst.items) == inst
    assert restrict_instance(inst, []).n == 0
    sub = restrict_instance(inst, {0, 2})
    assert sub.items == (0, 2)
    assert not sub.edges
    with pytest.raises(ParameterError):
        restrict_instance(inst, {7})


def test_restrict_idempotent_and_preserves_ids():
    for seed in range(15):
        inst = seeded_instance("bipartite", 10, 200 + seed)
        subset = set(list(inst.items)[::2])
        once = restrict_instance(inst, subset)
        twice = restrict_instance(once, subset)
        assert once == twice
        assert set(once.items) == subset
        for i in once.items:
            assert once.sizes[i] == inst.sizes[i]
            assert once.labels[i] == inst.labels[i]


def _message(build) -> str:
    with pytest.raises(ParameterError) as caught:
        build()
    return str(caught.value)


@pytest.mark.parametrize(
    "sizes, edges, masks, labels",
    [
        ({0: "1/2", 1: "1/2"}, [(1, 1)], {0: 0, 1: 0b10}, None),  # an item its own neighbour
        ({0: "1/2", 1: "1/2"}, [(1, 5)], {0: 0, 1: 1 << 5}, None),  # a neighbour outside the items
        ({0: "1/2", 2: "1/2"}, [(0, 1)], {0: 0b10, 2: 0}, None),  # a gap in sparse ids
        ({0: "1/2", 1: "1/2"}, [], {0: 0, 1: 0}, {0: "a"}),  # an unlabeled item
        ({0: "1/2", 1: "3/2"}, [], {0: 0, 1: 0}, None),  # a size above 1
        ({0: "-1/4", 1: "1/2"}, [], {0: 0, 1: 0}, None),  # a size below 0
    ],
)
def test_mask_constructor_rejects_what_the_public_one_does(sizes, edges, masks, labels):
    fractions = {i: Fraction(s) for i, s in sizes.items()}
    public = _message(lambda: ConflictInstance(fractions, edges, labels=labels))
    assert _message(lambda: _from_masks(fractions, masks, labels=labels)) == public


def test_mask_constructor_builds_the_public_instance():
    inst = ConflictInstance({0: "1/2", 2: "1/3", 5: "1"}, [(0, 5), (2, 5)], class_hint="chordal", labels={0: "a", 2: "b", 5: 7})
    built = _from_masks(dict(inst.sizes), dict(inst.adjacency), "chordal", {0: "a", 2: "b", 5: 7})
    assert (built.items, built.sizes, built.adjacency, built.labels, built.class_hint, built.edges) == (
        inst.items, inst.sizes, inst.adjacency, inst.labels, inst.class_hint, inst.edges
    )
    assert built.unit_table == inst.unit_table


@st.composite
def edge_cases(draw):
    """Up to 30 sparse item ids, an edge list on them that holds reversed
    and repeated pairs, and a random subset of the ids (repeats allowed)."""
    ids = draw(st.lists(st.integers(0, 300), min_size=2, max_size=30, unique=True))
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pair, max_size=80))
    edges += [(v, u) for u, v in edges[::3]] + edges[::4]
    subset = draw(st.lists(st.sampled_from(ids)))
    return ids, edges, subset


@settings(max_examples=200)
@given(case=edge_cases())
def test_conflicting_pairs_match_edge_scan(case):
    ids, edges, subset = case
    inst = ConflictInstance({i: "1/3" for i in ids}, edges)
    fresh = restrict_instance(inst, inst.items)
    assert fresh == inst
    assert hash(fresh) == hash(inst)

    def scan(items):
        return sorted({(min(u, v), max(u, v)) for u, v in edges if u in items and v in items})

    assert inst.conflicting_pairs(subset) == scan(subset)
    assert inst.conflicting_pairs(ids) == scan(ids)
    assert inst.edges == frozenset(scan(ids))


@st.composite
def generated_and_restricted(draw):
    """A small instance of any generator class, or a restriction of one to
    a drawn subset of its items."""
    klass = draw(st.sampled_from(GENERATOR_CLASSES))
    seed = draw(st.integers(0, 2**16))
    if klass == "b3dm-reduction":
        k = draw(st.integers(1, 4))
        t = draw(st.integers(0, k))
        spec = GeneratorSpec(
            klass=klass, x_count=k, y_count=k, z_count=k, t_count=t, guess=draw(st.integers(0, t)),
            variant=draw(st.sampled_from(("BPB", "BPS"))), seed=seed,
        )
    else:
        n, density = draw(st.integers(0, 24)), draw(st.sampled_from((0.0, 0.3, 0.8)))
        spec = GeneratorSpec(klass=klass, n=n, density=density, seed=seed)
    inst = generate(spec)
    if draw(st.booleans()):
        inst = restrict_instance(inst, draw(st.sets(st.sampled_from(inst.items))) if inst.items else ())
    return inst


@settings(max_examples=200)
@given(inst=generated_and_restricted())
def test_edges_view_reads_like_the_frozenset_of_its_pairs(inst):
    edges = inst.edges
    scan = [(u, v) for u in inst.items for v in inst.items if u < v and inst.has_edge(u, v)]
    assert list(edges) == scan
    frozen = frozenset(edges)
    assert (len(edges), bool(edges)) == (len(frozen), bool(frozen))
    # Reversed pairs, loops, an unknown id and values that are not pairs.
    others = [(v, u) for u, v in scan[:5]] + [(u, u) for u in inst.items[:3]]
    others += [(0, max(inst.items, default=0) + 1), 3, (0,), [0, 1]]
    for probe in scan + others:
        assert (probe in edges) == (probe in frozen if isinstance(probe, tuple) else False)
    assert edges == frozen and frozen == edges and not edges != frozen
    assert hash(edges) == hash(frozen)
    extra = {(0, 1), (1, 2)}
    for got, want in ((edges | extra, frozen | extra), (edges - extra, frozen - extra), (edges & extra, frozen & extra)):
        assert type(got) is frozenset and got == want
    assert extra | edges == extra | frozen and extra - edges == extra - frozen


def test_edges_view_allocates_nothing_for_bool_len_and_in():
    inst = seeded_instance("split", 320, 1, density=0.6)
    # The probe pair is read off the masks, so nothing reads edges first.
    u, v = inst.conflicting_pairs(inst.items)[0]
    tracemalloc.start()
    try:
        answers = (bool(inst.edges), len(inst.edges), (u, v) in inst.edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answers == (True, len(frozenset(inst.edges)), True)
    assert len(inst.edges) > 20_000
    assert peak < 4096, f"{peak} bytes"
    assert "_edges" not in ConflictInstance.__slots__


@st.composite
def masks(draw):
    """Nonnegative masks of up to 2000 bits, the top bit set, whose set-bit
    counts sit on both sides of each switch point of ``_mask_to_ids``:
    15/16 set bits, and one set bit in eight of the width."""
    width = draw(st.integers(1, 2000))
    eighth = width // 8
    counts = {1, 2, 14, 15, 16, 17, eighth - 1, eighth, eighth + 1, width // 2, width}
    count = draw(st.sampled_from(sorted(c for c in counts if 1 <= c <= width)))
    rest = random.Random(draw(st.integers(0, 2**32))).sample(range(width - 1), count - 1)
    return sum(1 << i for i in rest) | 1 << (width - 1)


@settings(max_examples=300)
@given(mask=masks())
@example(mask=0)
@example(mask=1)
def test_mask_to_ids_matches_bin_string(mask):
    """Masks are nonnegative: a negative int has no finite set of set bits."""
    assert _mask_to_ids(mask) == [i for i, digit in enumerate(reversed(bin(mask)[2:])) if digit == "1"]
