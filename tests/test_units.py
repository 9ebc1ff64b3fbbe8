"""Integer size units against Fraction references.

The packing hot loops (FFD, the knapsack DPs, matching_pack's pair test,
the budgeted independent-set solvers) and the instance's own size sums,
threshold classes and validation compare sizes as integers over a common
denominator (``ConflictInstance.unit_table``). The references here
are the plain ``Fraction`` versions of those loops, kept in this file so
they stay independent of the library code they check. Inputs are seeded
and cover three size families: grid20 (k/20), 9-digit decimals, and
pairwise-coprime denominators whose lcm exceeds 10^9.
"""

import collections
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cbp import BisProblem, bis, bpc, graphs, harness, model, opt_bpc_exact, oracle, packing_classic
from cbp.errors import CapabilityError, SolverError
from cbp.harness import GeneratorSpec, SizeDist, generate
from cbp.model import ConflictInstance, classify_items, restrict_instance, size_units, validate_packing
from cbp.packing_classic import ffd
from cbp.rng import SplitMix64

from conftest import (
    CLASSES,
    bis_brute,
    brute_opt_bins,
    make_packing,
    mask_pairs,
    ref_best_bins,
    seeded_instance,
    shuffle,
    single_bin_problem,
    weight_of,
)

PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157)
COPRIME = SizeDist(
    kind="discrete",
    values=tuple(f"{(37 * k) % p + 1}/{p}" for k, p in enumerate(PRIMES, start=1)),
)
FAMILIES = {"grid20": SizeDist(), "decimal": SizeDist(kind="uniform"), "coprime": COPRIME}


def family_instances(family: str, count: int, n_lo: int, n_hi: int, seed: int, classes=CLASSES):
    rng = SplitMix64(seed)
    for k in range(count):
        spec = GeneratorSpec(
            klass=classes[k % len(classes)],
            n=n_lo + rng.below(n_hi - n_lo + 1),
            density=0.2 + 0.4 * rng.unit(),
            size_dist=FAMILIES[family],
            seed=rng.next_u64(),
        )
        yield generate(spec)


def lcm_of(sizes) -> int:
    return math.lcm(*(s.denominator for s in sizes))


# --- Fraction references ---------------------------------------------------


def ref_ffd(items, sizes) -> list[frozenset[int]]:
    order = sorted(items, key=lambda i: (-sizes[i], i))
    bins: list[set[int]] = []
    loads: list[Fraction] = []
    for i in order:
        for b in range(len(bins)):
            if loads[b] + sizes[i] <= 1:
                bins[b].add(i)
                loads[b] += sizes[i]
                break
        else:
            bins.append({i})
            loads.append(sizes[i])
    return [frozenset(b) for b in bins]


def ref_knapsack_exact(ids, profits, costs, den, cap) -> frozenset[int]:
    dp = [Fraction(0)] * (cap + 1)
    take = [0] * (cap + 1)
    for idx, i in enumerate(ids):
        c = int(costs[i] * den)
        p = profits[i]
        if p <= 0:
            continue
        for w in range(cap, c - 1, -1):
            if dp[w - c] + p > dp[w]:
                dp[w] = dp[w - c] + p
                take[w] = take[w - c] | (1 << idx)
    best_w = max(range(cap + 1), key=lambda w: (dp[w], -w))
    return frozenset(ids[k] for k in range(len(ids)) if (take[best_w] >> k) & 1)


def ref_knapsack_scaled(ids, profits, costs, budget, eps) -> frozenset[int]:
    positive = [i for i in ids if profits[i] > 0]
    if not positive:
        return frozenset()
    scale = eps * max(profits[i] for i in positive) / len(positive)
    scaled = {i: int(profits[i] / scale) for i in positive}
    top = sum(scaled.values())
    dp = [budget + 1] * (top + 1)
    dp[0] = Fraction(0)
    take = [0] * (top + 1)
    for idx, i in enumerate(positive):
        sp = scaled[i]
        for p in range(top, sp - 1, -1):
            if dp[p - sp] + costs[i] < dp[p]:
                dp[p] = dp[p - sp] + costs[i]
                take[p] = take[p - sp] | (1 << idx)
    best_p = max((p for p in range(top + 1) if dp[p] <= budget), default=0)
    return frozenset(positive[k] for k in range(len(positive)) if (take[best_p] >> k) & 1)


def ref_knapsack_fptas(items, profits, costs, budget, eps) -> frozenset[int]:
    ids = [i for i in sorted(items) if costs[i] <= budget]
    if not ids or budget < 0:
        return frozenset()
    den = lcm_of(costs[i] for i in ids)
    if den <= bis.EXACT_DP_DENOM_LIMIT:
        cap = math.floor(budget * den)
        if (cap + 1) * len(ids) <= bis.EXACT_DP_CELL_LIMIT:
            return ref_knapsack_exact(ids, profits, costs, den, cap)
    return ref_knapsack_scaled(ids, profits, costs, budget, eps)


def ref_matching_pairs(instance) -> list[tuple[int, int]]:
    classes = classify_items(instance)
    lm = sorted(classes.large | classes.medium)
    return [
        (u, v)
        for k, u in enumerate(lm)
        for v in lm[k + 1 :]
        if instance.sizes[u] + instance.sizes[v] <= 1 and not instance.has_edge(u, v)
    ]


def ref_induced_edges(instance, kept) -> frozenset[tuple[int, int]]:
    return ref_induced_edges_of(instance.edges, kept)


def ref_induced_edges_of(edges, kept) -> frozenset[tuple[int, int]]:
    return frozenset((u, v) for (u, v) in edges if u in kept and v in kept)


def adjacency_pairs(problem) -> frozenset[tuple[int, int]]:
    """The edges a BisProblem's masks give among its own vertices."""
    vs = problem.vertices
    return frozenset(
        (min(u, v), max(u, v)) for u in vs for v in vs if (problem.adjacency[u] >> v) & 1
    )


def ref_adjacency(vertices, edges) -> dict[int, int]:
    adj = {v: 0 for v in vertices}
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def ref_independent_subsets(order, adj, weights, budget, max_size):
    current: list[int] = []

    def dfs(idx, banned, weight):
        yield list(current), weight
        if len(current) >= max_size:
            return
        for j in range(idx, len(order)):
            v = order[j]
            if (banned >> v) & 1 or weight + weights[v] > budget:
                continue
            current.append(v)
            yield from dfs(j + 1, banned | adj[v] | (1 << v), weight + weights[v])
            current.pop()

    yield from dfs(0, 0, Fraction(0))


def ref_bis_ptas(edges, problem, eps) -> frozenset[int]:
    """bis_ptas on Fractions, with the edge set induced on the problem's
    vertices and certificates restricted to each residual set."""
    cap = math.ceil(1 / eps)
    budget, weights = problem.budget, problem.weights
    kept = set(problem.vertices)
    adj = ref_adjacency(problem.vertices, ref_induced_edges_of(edges, kept))
    info = graphs.restrict_class_info(problem.class_info, kept)
    eligible = [v for v in sorted(problem.vertices) if weights[v] <= budget]
    if not eligible:
        return frozenset()
    light_cut = eps * budget
    reachable = min(budget, sum((weights[v] for v in eligible), Fraction(0)))
    best, best_w = frozenset(), Fraction(0)
    for members, w_f in ref_independent_subsets(eligible, adj, weights, budget, cap):
        f_mask = sum(1 << v for v in members)
        residual = [
            v
            for v in eligible
            if not (f_mask >> v) & 1 and weights[v] <= light_cut and not (adj[v] & f_mask)
        ]
        chosen = frozenset()
        if residual:
            sub_info = graphs.restrict_class_info(info, residual)
            sub_mask = sum(1 << v for v in residual)
            chosen = graphs._mwis_core(residual, adj, sub_mask, sub_info, weights)
        picked = set(chosen)
        total = w_f + sum((weights[v] for v in picked), Fraction(0))
        while total > budget:
            z = min(picked, key=lambda v: (weights[v], v))
            picked.discard(z)
            total -= weights[z]
        if total > best_w:
            best, best_w = frozenset(members) | frozenset(picked), total
            if best_w >= reachable:
                break
    return best


def ref_bis_fptas_split(edges, problem, eps) -> frozenset[int]:
    kept = set(problem.vertices)
    adj = ref_adjacency(problem.vertices, ref_induced_edges_of(edges, kept))
    clique, stable = problem.class_info.split_partition
    weights, budget = problem.weights, problem.budget
    stable = sorted(stable & kept)
    best, best_w = frozenset(), Fraction(0)
    for v in sorted(clique & kept):
        if weights[v] > budget:
            continue
        pool = [u for u in stable if not (adj[v] >> u) & 1]
        chosen = ref_knapsack_fptas(pool, weights, weights, budget - weights[v], eps)
        total = weights[v] + weight_of(problem, chosen)
        if total > best_w:
            best, best_w = frozenset({v}) | chosen, total
    chosen = ref_knapsack_fptas(stable, weights, weights, budget, eps)
    if weight_of(problem, chosen) > best_w:
        best = chosen
    return best


# --- tests ------------------------------------------------------------------


def test_size_units_examples():
    assert size_units([]) == ([], 1)
    assert size_units([Fraction(1, 2), Fraction(1, 3), Fraction(0), Fraction(1)]) == ([3, 2, 0, 6], 6)
    sizes = [Fraction(1, p) for p in PRIMES]
    units, den = size_units(sizes)
    assert den == math.prod(PRIMES) > 10**9
    assert [Fraction(u, den) for u in units] == sizes


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_ffd_matches_fraction_reference(family):
    huge = 0
    for inst in family_instances(family, 30, 0, 40, 9001):
        packing = ffd(inst.items, inst.sizes)
        assert list(packing.bins) == ref_ffd(inst.items, inst.sizes)
        huge += lcm_of(inst.sizes.values()) > 10**9
    assert huge >= 20 if family == "coprime" else huge == 0


def ref_bin_lower_bound(sizes) -> int:
    """max(ceil(s(I)), #items larger than 1/2), in Fractions."""
    sizes = list(sizes)
    return max(math.ceil(sum(sizes, Fraction(0))), sum(1 for s in sizes if s > Fraction(1, 2)))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bin_lower_bound_matches_fraction_reference(family):
    restricted = 0
    for inst in family_instances(family, 30, 0, 40, 7171):
        rng = SplitMix64(inst.n)
        kept = {i for i in inst.items if rng.below(3)}
        for sub in (inst, restrict_instance(inst, kept)):
            units, den = sub.unit_table
            restricted += den != size_units(sub.sizes.values())[1]
            assert model.bin_lower_bound(units.values(), den) == ref_bin_lower_bound(sub.sizes.values())
    if family == "coprime":
        # Restrictions whose inherited den is not their own lcm.
        assert restricted >= 10


def test_bin_lower_bound_boundaries():
    assert model.bin_lower_bound([], 1) == model.bin_lower_bound([], 20) == 0
    assert model.bin_lower_bound([0, 0], 7) == 0
    # 2u = den is not large: two halves share one bin; one unit more is large.
    assert model.bin_lower_bound([10, 10], 20) == 1
    assert model.bin_lower_bound([11, 9], 20) == 1
    assert model.bin_lower_bound([11, 11, 11], 20) == 3
    # A total of exactly k bins gives k; one unit more gives k + 1.
    assert model.bin_lower_bound([7, 7, 6] * 3, 20) == 3
    assert model.bin_lower_bound([7, 7, 6] * 3 + [1], 20) == 4


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_best_bins_matches_eager_reference(family):
    # Color classes are independent sets; _best_bins skips the exact search
    # when FFD meets the bound, and must return what running it would.
    skipped = 0
    for inst in family_instances(family, 40, 4, 30, 8181):
        units, den = inst.unit_table
        for cls in graphs.minimum_coloring(inst, graphs.recognize(inst)):
            got = packing_classic._best_bins(cls, units, den, inst.adjacency)
            assert got == ref_best_bins(cls, units, den, inst.adjacency)
            skipped += len(cls) <= packing_classic.DEFAULT_EXACT_THRESHOLD and len(got) == model.bin_lower_bound(
                (units[i] for i in cls), den
            )
    assert skipped >= 100


@settings(max_examples=200)
@given(st.lists(st.integers(0, 20), max_size=14))
def test_best_bins_matches_eager_reference_on_grid20(numerators):
    # Sizes k/20, where FFD misses the optimum often enough, e.g. on
    # 2/5, 2/5, 3/10 x 4: FFD 3 bins, optimum 2.
    units = dict(enumerate(numerators))
    adjacency = dict.fromkeys(units, 0)
    assert packing_classic._best_bins(units, units, 20, adjacency) == ref_best_bins(units, units, 20, adjacency)


@settings(max_examples=200)
@given(numerators=st.lists(st.integers(0, 8), max_size=8), ids=st.permutations(range(8)))
def test_best_bins_returns_a_class_within_one_bin_without_ffd(numerators, ids):
    # Zeros, classes of exactly one bin and the empty class occur. A class
    # within one bin is that bin, as FFD and the reference give it.
    units = dict(zip(ids, numerators))
    adjacency = dict.fromkeys(units, 0)
    with mock.patch.object(packing_classic, "_ffd_bins", wraps=packing_classic._ffd_bins) as ffd_bins:
        got = packing_classic._best_bins(units, units, 20, adjacency)
    assert got == ref_best_bins(units, units, 20, adjacency)
    one_bin = bool(units) and sum(numerators) <= 20
    assert ffd_bins.called != one_bin


def test_best_bins_searches_when_ffd_misses_the_bound():
    units = dict(enumerate([8, 8, 6, 6, 6, 6]))
    adjacency = dict.fromkeys(units, 0)
    assert len(packing_classic._ffd_bins(units, units, 20)) == 3
    assert len(packing_classic._best_bins(units, units, 20, adjacency)) == model.bin_lower_bound(units.values(), 20) == 2


def knapsack_inputs(family: str, seed: int):
    """(items, sizes, budget) triples: every item of a seeded instance, and
    a budget of one minus the first few items' load (as in a bin)."""
    for inst in family_instances(family, 40, 1, 12, seed):
        sizes = dict(inst.sizes)
        rng = SplitMix64(seed + inst.n)
        load = sum((sizes[i] for i in inst.items[: rng.below(3)]), Fraction(0))
        yield list(inst.items), sizes, max(Fraction(0), 1 - load)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_knapsack_fptas_matches_fraction_reference(family):
    eps = Fraction(1, 10)
    for items, sizes, budget in knapsack_inputs(family, 4242):
        got = bis.knapsack_fptas(items, sizes, budget, eps)
        assert got == ref_knapsack_fptas(items, sizes, sizes, budget, eps)


def test_mwis_reads_only_its_own_vertices_of_a_certificate():
    # The BIS solvers pass the whole instance's certificates: on any vertex
    # subset, each class branch, given its certificate alone, must choose
    # what it chooses with the certificate restricted to the subset.
    rng = SplitMix64(31)
    branches = collections.Counter()
    for k in range(60):
        inst = seeded_instance(CLASSES[k % len(CLASSES)], 6 + rng.below(10), rng.next_u64())
        info = graphs.recognize(inst)
        weights = {i: Fraction(rng.below(9), 1 + rng.below(4)) for i in inst.items}
        for field in ("elimination_order", "bipartition", "parts"):
            if getattr(info, field) is None:
                continue
            cert = graphs.GraphClassInfo(**{field: getattr(info, field)})
            for _ in range(4):
                sub = [i for i in inst.items if rng.below(3)]
                mask = sum(1 << v for v in sub)
                got = graphs._mwis_core(sub, inst.adjacency, mask, cert, weights)
                restricted = graphs.restrict_class_info(cert, sub)
                assert got == graphs._mwis_core(sub, inst.adjacency, mask, restricted, weights)
                branches[field] += any(inst.adjacency[v] & mask for v in sub)
    assert min(branches.values()) >= 20 and len(branches) == 3


def test_mwis_rejects_a_cluster_only_certificate():
    # Every cluster graph is chordal, so recognize always certifies it
    # with an elimination order; a cluster certificate alone is not read.
    inst = ConflictInstance({0: "1/2", 1: "1/3", 2: "1/4"}, edges=[(0, 1)])
    info = graphs.recognize(inst)
    assert info.is_cluster and info.is_chordal
    cert = graphs.GraphClassInfo(cluster_components=info.cluster_components)
    with pytest.raises(CapabilityError):
        graphs._mwis_core(list(inst.items), inst.adjacency, 0b111, cert, inst.sizes)


def ref_knapsack_path(items, costs, budget):
    """The DP knapsack_fptas runs on the Fractions: ("exact", cap) or
    ("scaled", None), or None when nothing fits."""
    ids = [i for i in items if costs[i] <= budget]
    if not ids or budget < 0:
        return None
    den = lcm_of(costs[i] for i in ids)
    cap = math.floor(budget * den)
    if den <= bis.EXACT_DP_DENOM_LIMIT and (cap + 1) * len(ids) <= bis.EXACT_DP_CELL_LIMIT:
        return ("exact", cap)
    return ("scaled", None)


def knapsack_path_inputs():
    # The three families, plus grid20 sizes under budgets whose
    # denominators are primes above EXACT_DP_DENOM_LIMIT and one item over
    # budget with such a denominator: only the kept sizes count.
    for family in sorted(FAMILIES):
        yield from knapsack_inputs(family, 4343)
    rng = SplitMix64(99)
    for p in (4099, 4111, 5003, 7919, 10007, 65537):
        ids = list(range(12))
        sizes = {i: Fraction(1 + rng.below(20), 20) for i in ids[:-1]}
        sizes[ids[-1]] = Fraction(p + 1, p)
        yield ids, sizes, Fraction(rng.below(p) + p // 2, 2 * p)
    # Odd numerators over EXACT_DP_DENOM_LIMIT: the largest lcm the exact path takes.
    sizes = {i: Fraction(2 * rng.below(2048) + 1, bis.EXACT_DP_DENOM_LIMIT) for i in range(12)}
    yield list(sizes), sizes, Fraction(1)


def test_knapsack_fptas_picks_the_dp_of_the_fraction_reference(monkeypatch):
    calls = []
    subset_sum, scaled = bis._subset_sum, bis._knapsack_scaled

    def recording_subset_sum(ids, units, cap):
        calls.append(("exact", cap))
        return subset_sum(ids, units, cap)

    def recording_scaled(*args):
        calls.append(("scaled", None))
        return scaled(*args)

    monkeypatch.setattr(bis, "_subset_sum", recording_subset_sum)
    monkeypatch.setattr(bis, "_knapsack_scaled", recording_scaled)
    seen = set()
    for items, sizes, budget in knapsack_path_inputs():
        calls.clear()
        got = bis.knapsack_fptas(items, sizes, budget, Fraction(1, 10))
        assert got == ref_knapsack_fptas(items, sizes, sizes, budget, Fraction(1, 10))
        want = ref_knapsack_path(items, sizes, budget)
        assert calls == ([want] if want else [])
        seen.add(want[0] if want else None)
    assert seen == {"exact", "scaled", None}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_knapsack_exact_dp_matches_fraction_reference(family):
    # The family's items, with sizes on the grid20 lattice (the exact
    # path's domain); some are zero, which the DP never takes.
    rng = SplitMix64(77)
    for items, _sizes, _budget in knapsack_inputs(family, 5151):
        ids = sorted(items)
        sizes = {i: Fraction(rng.below(21), 20) for i in ids}
        units, den = size_units(sizes[i] for i in ids)
        cap = math.floor(Fraction(rng.below(41), 20) * den)
        got = bis._subset_sum(ids, units, cap)
        assert got == ref_knapsack_exact(ids, sizes, sizes, den, cap)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_knapsack_scaled_dp_matches_fraction_reference(family):
    for items, sizes, budget in knapsack_inputs(family, 6262):
        ids = [i for i in sorted(items) if sizes[i] <= budget]
        units, _ = size_units([*(sizes[i] for i in ids), budget])
        limit = units.pop()
        for eps in (Fraction(1, 10), Fraction(1, 3)):
            got = bis._knapsack_scaled(ids, units, limit, eps)
            assert got == ref_knapsack_scaled(ids, sizes, sizes, budget, eps)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_matching_pack_pairs_match_fraction_reference(family, monkeypatch):
    seen = []

    def recording(adjacency):
        seen.append(mask_pairs(adjacency))
        return graphs.maximum_matching_masks(adjacency)

    monkeypatch.setattr(bpc, "maximum_matching_masks", recording)
    pairs = 0
    for inst in family_instances(family, 24, 10, 40, 3131):
        seen.clear()
        bpc.matching_pack(inst)
        assert seen == [ref_matching_pairs(inst)]
        pairs += len(seen[0])
    assert pairs > 100


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_induced_edges_match_edge_scan(family):
    for inst in family_instances(family, 12, 5, 40, 2727):
        rng = SplitMix64(inst.n)
        kept = {i for i in inst.items if rng.below(3)}
        sub = restrict_instance(inst, kept)
        # A restriction fills its edges from its masks on first read, a
        # restriction of it too; both equal the edge scan.
        inner = {i for i in kept if rng.below(2)}
        assert restrict_instance(sub, inner).edges == ref_induced_edges(inst, inner)
        assert sub.edges == ref_induced_edges(inst, kept)
        assert sub == ConflictInstance({i: inst.sizes[i] for i in kept}, ref_induced_edges(inst, kept))
        assert graphs.recognize(sub).is_edgeless == (not sub.edges)
        info = graphs.recognize(inst)
        first = frozenset(inst.items[:1])
        pool = [i for i in inst.items if i not in first]
        problem = single_bin_problem(inst, info, first, pool)
        assert adjacency_pairs(problem) == ref_induced_edges(inst, set(problem.vertices))


def ref_bin_state(instance, members) -> tuple[int, Fraction]:
    """The mask of items with an edge into the bin, by edge scan, and the
    bin's room 1 - s(bin) as a Fraction sum."""
    blocked = 0
    for u, v in instance.edges:
        if u in members:
            blocked |= 1 << v
        if v in members:
            blocked |= 1 << u
    return blocked, 1 - sum((instance.sizes[v] for v in members), Fraction(0))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bin_state_matches_fraction_reference(family):
    overfull = restricted = 0
    for inst in family_instances(family, 24, 1, 30, 5151):
        rng = SplitMix64(inst.n)
        kept = {i for i in inst.items if rng.below(3)}
        for sub in (inst, restrict_instance(inst, kept)):
            den = sub.unit_table[1]
            restricted += den != size_units(sub.sizes.values())[1]
            for _ in range(4):
                members = {i for i in sub.items if rng.below(4) == 0}
                blocked, room = sub.bin_state(members)
                ref_blocked, ref_room = ref_bin_state(sub, members)
                assert blocked == ref_blocked
                assert Fraction(room, den) == ref_room
                overfull += room < 0
    assert overfull >= 50
    if family == "coprime":
        # Restrictions whose inherited den is not their own lcm.
        assert restricted >= 10


def ref_lemma4_bound(instance, chi) -> tuple[int, Fraction, Fraction, Fraction]:
    """Lemma 4's terms and bound by size comparisons in Fractions:
    ``(|large|, s(medium), s(small), bound)``."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    sizes = [instance.sizes[i] for i in instance.items]
    n_large = sum(1 for s in sizes if s > half)
    s_m = sum((s for s in sizes if third < s <= half), Fraction(0))
    s_s = sum((s for s in sizes if s <= third), Fraction(0))
    return n_large, s_m, s_s, chi + n_large + Fraction(3, 2) * s_m + Fraction(4, 3) * s_s


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_lemma4_terms_match_fraction_reference(family):
    for inst in family_instances(family, 24, 1, 30, 6161):
        rng = SplitMix64(inst.n)
        kept = {i for i in inst.items if rng.below(3)}
        for sub in (inst, restrict_instance(inst, kept)):
            den = sub.unit_table[1]
            chi = rng.below(5)
            n_large, medium, small = bpc._class_bound_terms(sub)
            ref_large, ref_m, ref_s, ref_bound = ref_lemma4_bound(sub, chi)
            assert (n_large, Fraction(medium, den), Fraction(small, den)) == (ref_large, ref_m, ref_s)
            assert bpc.lemma4_bound(sub, chi) == ref_bound


def test_color_sets_bound_check_is_exact_at_equality(monkeypatch):
    # Empty instance: no colors, no bins, bound 0 -- equal, so no raise.
    assert bpc.color_sets(ConflictInstance({})).bin_count == 0
    # Two 3/4 items take two bins of one color class (den 4). Small units
    # 3 put the bound at 1 + 24/24 = 2 bins exactly; units 2 put it below.
    inst = ConflictInstance({0: "3/4", 1: "3/4"})
    monkeypatch.setattr(bpc, "_class_bound_terms", lambda instance: (0, 0, 3))
    assert bpc.lemma4_bound(inst, 1) == 2
    assert bpc.color_sets(inst).bin_count == 2
    monkeypatch.setattr(bpc, "_class_bound_terms", lambda instance: (0, 0, 2))
    with pytest.raises(SolverError, match="2 > 5/3"):
        bpc.color_sets(inst)


def test_exact_oracle_on_sizes_with_lcm_above_1e9():
    rng = SplitMix64(404)
    for _ in range(12):
        n = 6 + rng.below(3)
        primes = list(PRIMES)
        shuffle(rng, primes)
        sizes = {i: Fraction(1 + rng.below(p - 1), p) for i, p in enumerate(primes[:n])}
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.below(4) == 0]
        inst = ConflictInstance(sizes, edges)
        assert lcm_of(inst.sizes.values()) > 10**9
        packing, count = opt_bpc_exact(inst)
        assert validate_packing(inst, packing, require_cover=True).feasible
        assert count == packing.bin_count == brute_opt_bins(inst)


def size_problems(family: str, seed: int, classes=CLASSES):
    """(instance, problem) pairs with sizes as weights: the single-bin
    problem max_size builds for a bin holding the first item, and the whole
    instance against one minus the first few items' load."""
    for inst in family_instances(family, 24, 4, 24, seed, classes):
        info = graphs.recognize(inst)
        first = frozenset(inst.items[:1])
        pool = [i for i in inst.items if i not in first]
        yield inst, single_bin_problem(inst, info, first, pool)
        load = sum((inst.sizes[i] for i in inst.items[: SplitMix64(seed + inst.n).below(3)]), Fraction(0))
        budget = max(Fraction(0), 1 - load)
        yield inst, BisProblem(inst.items, inst.adjacency, inst.sizes, budget, info)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bis_ptas_matches_fraction_reference(family):
    picked = huge = 0
    for inst, problem in size_problems(family, 1717):
        for eps in (Fraction(1, 4), Fraction(2, 7), Fraction(1, 6)):
            got = bis.bis_ptas(problem, eps)
            assert got == ref_bis_ptas(inst.edges, problem, eps)
            picked += len(got)
        huge += lcm_of(problem.weights[v] for v in problem.vertices) > 10**9
    assert picked > 100
    assert huge >= 10 if family == "coprime" else huge == 0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bis_fptas_split_matches_fraction_reference(family):
    picked = 0
    for inst, problem in size_problems(family, 1818, classes=("split",)):
        for eps in (Fraction(1, 10), Fraction(1, 3)):
            got = bis.bis_fptas_split(problem, eps)
            assert got == ref_bis_fptas_split(inst.edges, problem, eps)
            picked += len(got)
    assert picked > 100


def test_bis_solvers_convert_to_units_once_per_call(monkeypatch):
    # One size_units call per solver call, however many knapsacks
    # bis_fptas_split runs (one per clique vertex, plus one).
    calls = []

    def counting_size_units(sizes):
        calls.append(1)
        return size_units(sizes)

    monkeypatch.setattr(bis, "size_units", counting_size_units)
    pooled = 0
    for inst, problem in size_problems("decimal", 1919, classes=("split",)):
        clique, stable = problem.class_info.split_partition
        vset = set(problem.vertices)
        pooled += any(
            problem.weights[v] <= problem.budget
            and any(not (inst.adjacency[v] >> u) & 1 for u in stable & vset)
            for v in clique & vset
        )
        for solve in (bis.bis_fptas_split, bis.bis_ptas):
            calls.clear()
            solve(problem, Fraction(1, 4))
            assert len(calls) == 1
    assert pooled >= 10


def test_bis_solvers_match_fraction_reference_on_other_weights():
    # Weights above 1 and zero weights; budgets 0, small and 10^9.
    rng = SplitMix64(515)
    splits = 0
    for k in range(48):
        inst = seeded_instance(CLASSES[k % len(CLASSES)], 4 + rng.below(9), rng.next_u64())
        info = graphs.recognize(inst)
        weights = {i: Fraction(rng.below(60), 1 + rng.below(12)) for i in inst.items}
        assert any(w > 1 for w in weights.values()) or inst.n < 6
        for budget in (Fraction(0), Fraction(1 + rng.below(40), 3), Fraction(10**9)):
            problem = BisProblem(inst.items, inst.adjacency, weights, budget, info)
            eps = Fraction(2, 7)
            assert bis.bis_ptas(problem, eps) == ref_bis_ptas(inst.edges, problem, eps)
            if info.is_split:
                splits += 1
                got = bis.bis_fptas_split(problem, eps)
                assert got == ref_bis_fptas_split(inst.edges, problem, eps)
    assert splits >= 24


@settings(max_examples=80)
@given(
    klass=st.sampled_from(CLASSES),
    n=st.integers(1, 10),
    seed=st.integers(0, 2**32),
    eps=st.sampled_from([Fraction(1, 3), Fraction(2, 7), Fraction(1, 4), Fraction(1, 6)]),
    data=st.data(),
)
def test_bis_solvers_property(klass, n, seed, eps, data):
    inst = seeded_instance(klass, n, seed)
    info = graphs.recognize(inst)
    weight = st.fractions(min_value=0, max_value=3, max_denominator=10**4)
    weights = {i: data.draw(weight) for i in inst.items}
    budget = data.draw(st.fractions(min_value=0, max_value=5, max_denominator=10**4))
    problem = BisProblem(inst.items, inst.adjacency, weights, budget, info)
    _, opt = bis_brute(problem)
    solvers = [(bis.bis_ptas, ref_bis_ptas)]
    if info.is_split:
        solvers.append((bis.bis_fptas_split, ref_bis_fptas_split))
    for solve, ref in solvers:
        chosen = solve(problem, eps)
        assert chosen == ref(inst.edges, problem, eps)
        assert inst.is_independent(chosen)
        assert weight_of(problem, chosen) <= budget
        assert weight_of(problem, chosen) >= (1 - eps) * opt


# --- The instance's unit table ---------------------------------------------


def outcome(name, instance):
    try:
        packing = harness.run_algorithm(name, instance, graphs.recognize(instance))
    except CapabilityError:
        return None
    return packing.bins, packing.source, packing.flags


@settings(max_examples=60)
@given(
    klass=st.sampled_from(CLASSES),
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32),
    eps=st.sampled_from([Fraction(1, 20), Fraction(1, 11), 0.05, "0.07", Fraction(3, 100)]),
    data=st.data(),
)
def test_unit_table_matches_fraction_references(klass, family, n, seed, eps, data):
    base = generate(GeneratorSpec(klass=klass, n=n, density=0.4, size_dist=FAMILIES[family], seed=seed))
    inst = base
    if data.draw(st.booleans(), label="restrict"):
        inst = restrict_instance(base, data.draw(st.sets(st.sampled_from(base.items)), label="kept"))
        # Sparse ids, and the parent's den, a common multiple of the kept denominators.
        assert inst.unit_table[1] == base.unit_table[1]
    sizes = inst.sizes
    fresh = ConflictInstance(dict(sizes), inst.edges, class_hint=inst.class_hint)

    def ref_size(items):
        return sum((sizes[i] for i in items), Fraction(0))

    subset = data.draw(st.sets(st.sampled_from(inst.items)), label="subset") if inst.items else set()
    assert inst.size_of(subset) == ref_size(subset)
    assert inst.total_size == ref_size(inst.items)

    classes = classify_items(inst, eps)
    ref_eps = Fraction(str(eps))
    assert classes.eps == ref_eps
    assert classes.large == {i for i in inst.items if sizes[i] > Fraction(1, 2)}
    assert classes.medium == {i for i in inst.items if Fraction(1, 3) < sizes[i] <= Fraction(1, 2)}
    assert classes.small == {i for i in inst.items if sizes[i] <= Fraction(1, 3)}
    assert classes.tiny == {i for i in inst.items if sizes[i] <= ref_eps}
    assert classes.big == set(inst.items) - classes.tiny

    slots = data.draw(st.lists(st.integers(0, 3), min_size=inst.n, max_size=inst.n), label="slots")
    bins = [[i for i, k in zip(inst.items, slots) if k == b] for b in range(4)]
    report = validate_packing(inst, make_packing(bins))
    overflows = {v.bin_index: v.detail for v in report.violations if v.kind == "overflow"}
    assert overflows == {b: f"bin size {ref_size(items)} > 1" for b, items in enumerate(bins) if ref_size(items) > 1}

    # The restriction and a freshly built instance with the same sizes and
    # edges pack alike, and every packing covers its instance feasibly.
    for name in harness.ALGORITHMS:
        got = outcome(name, inst)
        assert got == outcome(name, fresh), name
        if got is not None:
            packing = make_packing(got[0])
            assert validate_packing(inst, packing, require_cover=True).feasible, name
            assert all(ref_size(b) <= 1 and inst.is_independent(b) for b in packing.bins), name


def test_restriction_keeps_the_parents_den():
    inst = ConflictInstance({0: "1/2", 1: "1/3", 2: "1/5"}, edges=[(0, 1)])
    sub = restrict_instance(inst, {0, 2})
    assert sub.unit_table == ({0: 15, 2: 6}, 30)
    assert sub.size_of([0, 2]) == Fraction(7, 10) and sub.total_size == Fraction(7, 10)
    assert sub.adjacency == {0: 0, 2: 0} and not sub.edges
    classes = classify_items(sub, eps=Fraction(1, 20))
    assert (classes.medium, classes.small, classes.tiny) == ({0}, {2}, frozenset())
    report = validate_packing(sub, make_packing([[0, 2], [0]]))
    assert [v.kind for v in report.violations] == ["duplicate-item"]


def test_split_approx_and_max_solve_convert_sizes_once_per_instance(monkeypatch):
    # However many bins or guesses they grow: the one conversion is the
    # unit table the constructor builds, which restrictions inherit.
    conversions = []
    solves = collections.Counter()

    def counting_size_units(sizes):
        conversions.append(1)
        return size_units(sizes)

    for module in (model, bis, oracle):
        monkeypatch.setattr(module, "size_units", counting_size_units)
    for core in ("_ptas", "_fptas_split"):

        def counting(*args, _core=getattr(bis, core), _name=core):
            solves[_name] += 1
            return _core(*args)

        monkeypatch.setattr(bis, core, counting)
    runs = 0
    for family in sorted(FAMILIES):
        for base in family_instances(family, 12, 12, 30, 4242):
            info = graphs.recognize(base)
            algorithms = [bpc.max_solve] + ([bpc.split_approx] if info.split_partition is not None else [])
            for algorithm in algorithms:
                conversions.clear()
                inst = ConflictInstance(dict(base.sizes), base.edges)
                before = sum(solves.values())
                algorithm(inst, info)
                assert len(conversions) == 1, algorithm.__name__
                runs += sum(solves.values()) - before > 1
    assert runs >= 20
    assert solves["_ptas"] >= 20 and solves["_fptas_split"] >= 100
