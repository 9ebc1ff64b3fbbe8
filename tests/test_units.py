"""Integer size units against Fraction references.

The packing hot loops (FFD, the knapsack DPs, matching_pack's pair test)
compare sizes as integers over a common denominator. The references here
are the plain ``Fraction`` versions of those loops, kept in this file so
they stay independent of the library code they check. Inputs are seeded
and cover three size families: grid20 (k/20), 9-digit decimals, and
pairwise-coprime denominators whose lcm exceeds 10^9.
"""

import math
from fractions import Fraction

import pytest

from cbp import bis, bpc, graphs, opt_bpc_exact
from cbp.harness import GeneratorSpec, SizeDist, generate
from cbp.maxsize import _single_bin_problem
from cbp.model import ConflictInstance, classify_items, restrict_instance, size_units, validate_packing
from cbp.packing_classic import ffd
from cbp.rng import SplitMix64

from conftest import CLASSES, brute_opt_bins

PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157)
COPRIME = SizeDist(
    kind="discrete",
    values=tuple(f"{(37 * k) % p + 1}/{p}" for k, p in enumerate(PRIMES, start=1)),
)
FAMILIES = {"grid20": SizeDist(), "decimal": SizeDist(kind="uniform"), "coprime": COPRIME}


def family_instances(family: str, count: int, n_lo: int, n_hi: int, seed: int):
    rng = SplitMix64(seed)
    for k in range(count):
        spec = GeneratorSpec(
            klass=CLASSES[k % len(CLASSES)],
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
    return frozenset((u, v) for (u, v) in instance.edges if u in kept and v in kept)


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
        cap = math.floor(Fraction(rng.below(41), 20) * den)
        got = bis._knapsack_exact(ids, profits, units, cap)
        assert got == ref_knapsack_exact(ids, profits, costs, den, cap)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_knapsack_scaled_dp_matches_fraction_reference(family):
    rng = SplitMix64(88)
    for items, sizes, budget in knapsack_inputs(family, 6262):
        ids = [i for i in sorted(items) if sizes[i] <= budget]
        profits = {i: Fraction(1 + rng.below(97), 97) for i in ids}
        for eps in (Fraction(1, 10), Fraction(1, 3)):
            got = bis._knapsack_scaled(ids, profits, sizes, budget, eps)
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
        problem = _single_bin_problem(inst, info, first, pool)
        assert problem.edges == ref_induced_edges(inst, set(problem.vertices))


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
