"""Seeded workload definitions for the layered benchmark.

Every instance comes from ``harness.generate`` or ``harness.generate_b3dm``
with an explicit per-instance seed drawn from the workload seed, so the
``CBP_SEED`` environment variable (read only by ``expand_suite``) cannot
change a workload. Instance sizes (n) follow a fixed ladder per workload;
the seed draws densities, structure and sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from cbp import harness
from cbp.bpc import AssignConfig
from cbp.harness import GeneratorSpec, SizeDist
from cbp.model import ConflictInstance
from cbp.rng import SplitMix64

CLASSES = ("edgeless", "bipartite", "split", "cluster", "complete-multipartite", "chordal")

# Sizes for the tiny-item bipartite instances: 4 of 7 values are at most
# 1/10000, the tiny threshold of ``assign``; the big ones are 2/5 to 1/2, so
# a bin holds at most two of them and two can fill a bin to within 1/10 or
# exactly. Each has exactly TINY_BIGS big items (drawn until it does):
# ``assign`` then enumerates a few dozen packings of them per side, and on
# each the assignment LP of the tiny items has columns and binding
# capacities, so the simplex pivots.
TINY_SIZES = SizeDist(
    kind="discrete",
    values=("1/20000", "1/10000") * 2 + ("2/5", "9/20", "1/2"),
)
TINY_BIGS = 5
TINY_EPS = AssignConfig().eps
DECIMAL_SIZES = SizeDist(kind="uniform")


@dataclass(frozen=True)
class Case:
    """One generated instance; b3dm cases carry their planted all-full
    packing, whose bin count is OPT."""

    case_id: str
    instance: ConflictInstance
    planted_bins: Optional[tuple[frozenset[int], ...]] = None


@dataclass(frozen=True)
class Workload:
    """A named instance set and the ops run on it (reasons: BENCHMARK.json)."""

    name: str
    algorithms: tuple[str, ...]
    oracle_op: bool
    build: Callable[..., list[Case]]
    tiny: dict  # arguments to ``build`` for the self-check's tiny sizes


def _plain(rng: SplitMix64, klass: str, n: int, density: float, sizes: SizeDist = SizeDist()) -> ConflictInstance:
    spec = GeneratorSpec(klass=klass, n=n, density=density, size_dist=sizes, seed=rng.next_u64())
    return harness.generate(spec)


def _b3dm(rng: SplitMix64, variant: str, q: int) -> tuple[ConflictInstance, tuple[frozenset[int], ...]]:
    # x = y = z = t = q with a planted matching of q/2 triples: n = 6q items
    # and 5q/2 planted bins, every one exactly full.
    spec = GeneratorSpec(
        klass="b3dm-reduction",
        x_count=q,
        y_count=q,
        z_count=q,
        t_count=q,
        guess=q // 2,
        variant=variant,
        seed=rng.next_u64(),
    )
    instance, planted = harness.generate_b3dm(spec)
    return instance, planted.bins


def _density(j: int, count: int, lo: float = 0.1, hi: float = 0.9) -> float:
    """Midpoint of the j-th of ``count`` equal strata of [lo, hi].

    Densities are fixed rather than drawn: the seed draws structure and
    sizes, and a run's cost then depends less on which seed it got.
    """
    return round(lo + (hi - lo) * ((j % count) + 0.5) / count, 6)


# n = 9 and 10 are left out: there abs_bpb enumerates every packing of up
# to 10 conflict-free grid20 items, whose count (and time, up to 30x the
# mean) swings with the seed more than a run can average out.
EXACT_SMALL_N = (4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16)
TINY_N = (12, 14, 16)


def _tiny_bipartite(rng: SplitMix64, n: int, density: float) -> ConflictInstance:
    while True:
        instance = _plain(rng, "bipartite", n, density, TINY_SIZES)
        if sum(1 for s in instance.sizes.values() if s > TINY_EPS) == TINY_BIGS:
            return instance


def build_exact_small(
    seed: int,
    replicas: int = 4,
    ladder: tuple[int, ...] = EXACT_SMALL_N,
    tiny_replicas: int = 20,
    tiny_ladder: tuple[int, ...] = TINY_N,
) -> list[Case]:
    """Every class at every n of the ladder (grid20), plus tiny-item
    bipartite instances, which carry most of the run's time."""
    rng = SplitMix64(seed)
    cases = []
    for r in range(replicas):
        for n in ladder:
            for c, klass in enumerate(CLASSES):
                instance = _plain(rng, klass, n, _density(r + c, replicas))
                cases.append(Case(f"{klass}-n{n}-{r}", instance))
    for r in range(tiny_replicas):
        for k, n in enumerate(tiny_ladder):
            instance = _tiny_bipartite(rng, n, _density(r + k, tiny_replicas, 0.2, 0.4))
            cases.append(Case(f"bipartite-tiny-n{n}-{r}", instance))
    return cases


def build_scale_ladder(seed: int, ladder: tuple[int, ...] = (80, 160, 320), qs: tuple[int, ...] = (16, 32, 64)) -> list[Case]:
    rng = SplitMix64(seed)
    cases = []
    for k, n in enumerate(ladder):
        for c, klass in enumerate(CLASSES):
            cases.append(Case(f"{klass}-n{n}", _plain(rng, klass, n, _density(k + c, 3))))
    for q in qs:
        for variant in ("BPB", "BPS"):
            instance, planted = _b3dm(rng, variant, q)
            cases.append(Case(f"b3dm-{variant}-q{q}", instance, planted))
    return cases


def build_split_grid(
    seed: int, replicas: int = 8, ladder: tuple[int, ...] = tuple(range(20, 35)), qs: tuple[int, ...] = (8,)
) -> list[Case]:
    rng = SplitMix64(seed)
    cases = []
    for r in range(replicas):
        for k, n in enumerate(ladder):
            cases.append(Case(f"split-n{n}-{r}", _plain(rng, "split", n, _density(r + k, replicas))))
        for q in qs:
            instance, planted = _b3dm(rng, "BPS", q)
            cases.append(Case(f"b3dm-BPS-q{q}-{r}", instance, planted))
    return cases


def build_split_decimal(
    seed: int, replicas: int = 200, ladder: tuple[int, ...] = (8, 9, 10, 11)
) -> list[Case]:
    rng = SplitMix64(seed)
    cases = []
    for r in range(replicas):
        for k, n in enumerate(ladder):
            instance = _plain(rng, "split", n, _density(r + k, replicas, 0.3, 0.6), DECIMAL_SIZES)
            cases.append(Case(f"split-dec-n{n}-{r}", instance))
    return cases


ALL_BUT_SPLIT = tuple(a for a in harness.ALGORITHMS if a != "split_approx")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-small",
            harness.ALGORITHMS,
            True,
            build_exact_small,
            {"replicas": 1, "ladder": (4, 6, 8), "tiny_replicas": 1, "tiny_ladder": (12,)},
        ),
        Workload(
            "scale-ladder",
            ALL_BUT_SPLIT,
            False,
            build_scale_ladder,
            {"ladder": (12, 16), "qs": (4,)},
        ),
        Workload(
            "split-grid",
            ("split_approx",),
            False,
            build_split_grid,
            {"replicas": 1, "ladder": (10, 14), "qs": (4,)},
        ),
        Workload(
            "split-decimal",
            ("split_approx",),
            False,
            build_split_decimal,
            {"replicas": 2, "ladder": (6, 8)},
        ),
    )
}
