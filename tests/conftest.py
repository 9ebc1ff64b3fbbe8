"""Shared helpers: seeded instance factories and independent brute oracles.

The brute-force routines here are deliberately naive (exhaustive scans) so
they stay independent of the library paths they check.
"""

from fractions import Fraction

from hypothesis import settings

from cbp import BisProblem, CapabilityError, ConflictInstance, harness, recognize
from cbp.harness import GeneratorSpec, generate
from cbp.oracle import bis_brute


# Property tests replay the same examples on every run, and a slow host
# cannot fail them on a time limit; each test sets only max_examples.
settings.register_profile("cbp", derandomize=True, deadline=None)
settings.load_profile("cbp")

CLASSES = ("edgeless", "bipartite", "split", "cluster", "complete-multipartite", "chordal")


def seeded_instance(klass: str, n: int, seed: int, density: float = 0.4) -> ConflictInstance:
    return generate(GeneratorSpec(klass=klass, n=n, density=density, seed=seed))


def single_bin_problem(instance: ConflictInstance, info, bin_items, pool) -> BisProblem:
    """The single-bin subproblem max_size solves for a bin holding
    ``bin_items``: the items of ``pool`` with no edge into the bin, and the
    bin's room as the size budget."""
    blocked, room = instance.bin_state(bin_items)
    return BisProblem(
        vertices=tuple(v for v in pool if not (blocked >> v) & 1),
        adjacency=instance.adjacency,
        weights=instance.sizes,
        budget=Fraction(room, instance.unit_table[1]),
        class_info=info,
    )


def run_every_algorithm() -> dict[str, object]:
    """Bins (or "unfit") of every harness algorithm on one seeded instance
    of each generator class. Imports nothing beyond cbp, so it also runs
    where networkx cannot be imported."""
    out: dict[str, object] = {}
    for klass in harness.GENERATOR_CLASSES:
        if klass == "b3dm-reduction":
            spec = GeneratorSpec(klass=klass, x_count=4, y_count=4, z_count=4, t_count=4, guess=2, seed=7)
        else:
            spec = GeneratorSpec(klass=klass, n=14, density=0.4, seed=7)
        inst = generate(spec)
        info = recognize(inst)
        for name in harness.ALGORITHMS:
            try:
                packing = harness.run_algorithm(name, inst, info)
            except CapabilityError:
                out[f"{klass}/{name}"] = "unfit"
            else:
                out[f"{klass}/{name}"] = sorted(sorted(b) for b in packing.bins)
    return out


def brute_chromatic(instance: ConflictInstance) -> int:
    """Exhaustive chromatic number (n <= ~10)."""
    items = list(instance.items)
    if not items:
        return 0
    if not instance.edges:
        return 1

    def colorable(k: int) -> bool:
        colors: dict[int, int] = {}

        def dfs(idx: int, used: int) -> bool:
            if idx == len(items):
                return True
            v = items[idx]
            for c in range(min(used + 1, k)):
                if all(colors.get(u) != c for u in instance.neighbors(v)):
                    colors[v] = c
                    if dfs(idx + 1, max(used, c + 1)):
                        return True
                    del colors[v]
            return False

        return dfs(0, 0)

    k = 2
    while not colorable(k):
        k += 1
    return k


def brute_matching_size(vertices, edges) -> int:
    """Exhaustive maximum matching cardinality."""
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)

    def dfs(idx: int, used: frozenset, count: int) -> int:
        best = count
        for j in range(idx, len(edges)):
            u, v = edges[j]
            if u in used or v in used:
                continue
            best = max(best, dfs(j + 1, used | {u, v}, count + 1))
        return best

    return dfs(0, frozenset(), 0)


def brute_split_partition_exists(instance: ConflictInstance) -> bool:
    """Exhaustive split check: some vertex subset is a clique whose
    complement is independent (n <= ~10)."""
    items = list(instance.items)
    n = len(items)
    for mask in range(1 << n):
        clique = [items[k] for k in range(n) if (mask >> k) & 1]
        rest = [items[k] for k in range(n) if not (mask >> k) & 1]
        ok = all(instance.has_edge(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :])
        if ok and instance.is_independent(rest):
            return True
    return False


def brute_mwis_value(instance: ConflictInstance, weights) -> Fraction:
    total = sum(weights.values(), Fraction(0)) + 1
    problem = BisProblem(
        vertices=tuple(instance.items),
        adjacency=instance.adjacency,
        weights=weights,
        budget=total,
        class_info=recognize(instance),
    )
    _, value = bis_brute(problem)
    return value


def brute_opt_bins(instance: ConflictInstance) -> int:
    """Exhaustive optimal bin count via canonical partition enumeration
    (n <= ~8). Independent of the branch-and-bound path."""
    items = sorted(instance.items)
    best = len(items) if items else 0

    def dfs(idx: int, bins: list[list[int]]):
        nonlocal best
        if len(bins) >= best:
            return
        if idx == len(items):
            best = min(best, len(bins))
            return
        v = items[idx]
        for b in bins:
            if sum((instance.sizes[u] for u in b), instance.sizes[v]) <= 1 and all(
                not instance.has_edge(v, u) for u in b
            ):
                b.append(v)
                dfs(idx + 1, bins)
                b.pop()
        bins.append([v])
        dfs(idx + 1, bins)
        bins.pop()

    if items:
        dfs(0, [])
    else:
        best = 0
    return best
