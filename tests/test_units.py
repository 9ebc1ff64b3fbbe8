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

import pytest
from hypothesis import given, settings, strategies as st

from cbp import BisProblem, bis, bis_brute, bpc, graphs, harness, model, opt_bpc_exact, oracle, packing_classic
from cbp.errors import CapabilityError
from cbp.harness import GeneratorSpec, SizeDist, generate
from cbp.model import ConflictInstance, classify_items, make_packing, restrict_instance, size_units, validate_packing
from cbp.packing_classic import ffd
from cbp.rng import SplitMix64

from conftest import CLASSES, brute_opt_bins, seeded_instance, single_bin_problem

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
        total = weights[v] + problem.weight_of(chosen)
        if total > best_w:
            best, best_w = frozenset({v}) | chosen, total
    chosen = ref_knapsack_fptas(stable, weights, weights, budget, eps)
    if problem.weight_of(chosen) > best_w:
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
        got = bis.knapsack_fptas(items, sizes, sizes, budget, eps)
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
    # The three families, plus grid20 costs under budgets whose
    # denominators are primes above EXACT_DP_DENOM_LIMIT and one item over
    # budget with such a denominator: only the kept costs count.
    for family in sorted(FAMILIES):
        for items, sizes, budget in knapsack_inputs(family, 4343):
            yield items, sizes, sizes, budget
    rng = SplitMix64(99)
    for p in (4099, 4111, 5003, 7919, 10007, 65537):
        ids = list(range(12))
        costs = {i: Fraction(1 + rng.below(20), 20) for i in ids[:-1]}
        costs[ids[-1]] = Fraction(p + 1, p)
        profits = {i: Fraction(1 + rng.below(97), 97) for i in ids}
        yield ids, profits, costs, Fraction(rng.below(p) + p // 2, 2 * p)


def test_knapsack_fptas_picks_the_dp_of_the_fraction_reference(monkeypatch):
    calls = []
    exact, scaled = bis._knapsack_exact, bis._knapsack_scaled

    def recording_exact(ids, profits, units, cap):
        calls.append(("exact", cap))
        return exact(ids, profits, units, cap)

    def recording_scaled(*args):
        calls.append(("scaled", None))
        return scaled(*args)

    monkeypatch.setattr(bis, "_knapsack_exact", recording_exact)
    monkeypatch.setattr(bis, "_knapsack_scaled", recording_scaled)
    seen = set()
    for items, profits, costs, budget in knapsack_path_inputs():
        calls.clear()
        got = bis.knapsack_fptas(items, profits, costs, budget, Fraction(1, 10))
        assert got == ref_knapsack_fptas(items, profits, costs, budget, Fraction(1, 10))
        want = ref_knapsack_path(items, costs, budget)
        assert calls == ([want] if want else [])
        seen.add(want[0] if want else None)
    assert seen == {"exact", "scaled", None}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_knapsack_exact_dp_matches_fraction_reference(family):
    # Costs on the grid20 lattice (the exact path's domain); profits from
    # the family, so their lcm is 20, up to 10^9, or above 10^9, and some
    # are zero or negative.
    rng = SplitMix64(77)
    for items, profits, _budget in knapsack_inputs(family, 5151):
        ids = sorted(items)
        costs = {i: Fraction(1 + rng.below(20), 20) for i in ids}
        for i in ids[::3]:
            profits[i] = -profits[i] if rng.below(2) else Fraction(0)
        units, den = size_units(costs[i] for i in ids)
        gains, _ = size_units(profits[i] for i in ids)
        cap = math.floor(Fraction(rng.below(41), 20) * den)
        got = bis._knapsack_exact(ids, gains, units, cap)
        assert got == ref_knapsack_exact(ids, profits, costs, den, cap)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_knapsack_scaled_dp_matches_fraction_reference(family):
    rng = SplitMix64(88)
    for items, sizes, budget in knapsack_inputs(family, 6262):
        ids = [i for i in sorted(items) if sizes[i] <= budget]
        profits = {i: Fraction(1 + rng.below(97), 97) for i in ids}
        units, _ = size_units([*(sizes[i] for i in ids), budget])
        limit = units.pop()
        gains, _ = size_units(profits[i] for i in ids)
        for eps in (Fraction(1, 10), Fraction(1, 3)):
            got = bis._knapsack_scaled(ids, gains, units, limit, eps)
            assert got == ref_knapsack_scaled(ids, profits, sizes, budget, eps)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_matching_pack_pairs_match_fraction_reference(family, monkeypatch):
    seen = []

    def recording(vertices, edges):
        seen.append(list(edges))
        return graphs.maximum_matching_general(vertices, edges)

    monkeypatch.setattr(bpc, "maximum_matching_general", recording)
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
        assert restrict_instance(inst, kept).edges == ref_induced_edges(inst, kept)
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


def test_exact_oracle_on_sizes_with_lcm_above_1e9():
    rng = SplitMix64(404)
    for _ in range(12):
        n = 6 + rng.below(3)
        primes = list(PRIMES)
        rng.shuffle(primes)
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
        assert problem.weight_of(chosen) <= budget
        assert problem.weight_of(chosen) >= (1 - eps) * opt


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
    # instance's unit table, which restrictions inherit.
    conversions = []
    solves = collections.Counter()

    def counting_size_units(sizes):
        conversions.append(1)
        return size_units(sizes)

    for module in (model, bis, oracle, packing_classic):
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
                inst = ConflictInstance(dict(base.sizes), base.edges)
                conversions.clear()
                before = sum(solves.values())
                algorithm(inst, info)
                assert len(conversions) == 1, algorithm.__name__
                runs += sum(solves.values()) - before > 1
    assert runs >= 20
    assert solves["_ptas"] >= 20 and solves["_fptas_split"] >= 100
