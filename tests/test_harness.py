import hashlib
import json
import math
import re
from dataclasses import MISSING, fields
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cbp import ConflictInstance, Packing, ParameterError, packing_classic, recognize, validate_packing
from cbp.harness import (
    COUNT_CAP,
    CSV_COLUMNS,
    GENERATOR_CLASSES,
    GeneratorSpec,
    SizeDist,
    _ffd_bounds_ok,
    expand_suite,
    generate,
    generate_b3dm,
    instance_from_dict,
    read_instance,
    run_suite,
    write_instance,
)
from cbp.rng import SplitMix64

from conftest import ref_draw, ref_generate, ref_generate_b3dm


def test_rng_reference_stream():
    rng = SplitMix64(0)
    first = rng.next_u64()
    rng2 = SplitMix64(0)
    assert rng2.next_u64() == first
    assert SplitMix64(1).next_u64() != first
    # published splitmix64 test vector for seed 1234567
    rng3 = SplitMix64(1234567)
    assert rng3.next_u64() == 6457827717110365317
    with pytest.raises(ValueError, match=r"below\(\) needs n >= 1, got 0"):
        SplitMix64(0).below(0)


def _unit_after(seed: int) -> float:
    return SplitMix64(seed).unit()


@pytest.mark.parametrize(
    "p",
    [
        0.0,
        1.0,
        0.5,
        # The first draw of seed 3 itself (a point of the 2**-53 grid, where
        # that draw's coin is false) and the float just above it (true).
        _unit_after(3),
        math.nextafter(_unit_after(3), 1.0),
    ],
)
@pytest.mark.parametrize("count", [0, 1, 7, 500])
def test_chances_draw_what_chance_draws(p, count):
    one, many = SplitMix64(3), SplitMix64(3)
    coins = [one.chance(p) for _ in range(count)]
    assert many.chances(p, count) == coins
    assert many.state == one.state
    if p == _unit_after(3) and count:
        assert coins[0] is False and SplitMix64(3).chances(math.nextafter(p, 1.0), 1) == [True]


def _generated(spec: GeneratorSpec, make) -> tuple:
    """What ``make`` gives for ``spec``, every field of the instance and
    the planted packing compared, or the error it raises."""
    try:
        out = make(spec)
    except Exception as exc:
        return type(exc), str(exc)
    inst, planted = out if isinstance(out, tuple) else (out, None)
    return (inst.items, inst.sizes, inst.adjacency, inst.labels, inst.class_hint, inst.edges), planted


@settings(max_examples=500)
@given(
    klass=st.sampled_from(GENERATOR_CLASSES),
    n=st.integers(0, 80),
    density=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
    size_dist=st.sampled_from(
        (SizeDist(), SizeDist(kind="uniform", lo=0.1, hi=0.7), SizeDist(kind="discrete", values=("1/3", "0.25", 0.5)))
    ),
    counts=st.tuples(*[st.integers(0, 7)] * 5),
    variant=st.sampled_from(("BPB", "BPS")),
    degree_cap=st.integers(1, 4),
    seed=st.integers(0, 2**64 - 1),
)
def test_generators_match_the_edge_list_reference(klass, n, density, size_dist, counts, variant, degree_cap, seed):
    # The generators write neighbour masks; the reference lists the edges
    # and builds through the public constructor. Same instances, planted
    # packings and errors.
    x, y, z, t, guess = counts
    b3dm = dict(x_count=x, y_count=y, z_count=z, t_count=2 * t, guess=min(guess, x, y, z, 2 * t))
    try:
        spec = GeneratorSpec(
            klass=klass, n=n, density=density, size_dist=size_dist, seed=seed, variant=variant,
            degree_cap=degree_cap, **(b3dm if klass == "b3dm-reduction" else {}),
        )
    except ParameterError:
        return
    assert _generated(spec, generate) == _generated(spec, ref_generate)
    if klass == "b3dm-reduction":
        assert _generated(spec, generate_b3dm) == _generated(spec, ref_generate_b3dm)


def test_generator_determinism_and_classes():
    for klass in ("bipartite", "split", "cluster", "complete-multipartite", "chordal", "edgeless"):
        for seed in (0, 5, 77):
            spec = GeneratorSpec(klass=klass, n=11, density=0.45, seed=seed)
            a = generate(spec)
            b = generate(spec)
            assert a == b
            info = recognize(a)
            flag = {
                "bipartite": info.is_bipartite,
                "split": info.is_split,
                "cluster": info.is_cluster,
                "complete-multipartite": info.is_complete_multipartite,
                "chordal": info.is_chordal,
                "edgeless": info.is_edgeless,
            }[klass]
            assert flag
            assert a.class_hint == klass


def test_size_distributions():
    grid = GeneratorSpec(klass="edgeless", n=50, seed=1)
    inst = generate(grid)
    assert all(s.denominator <= 20 for s in inst.sizes.values())
    uni = GeneratorSpec(
        klass="edgeless", n=50, seed=1, size_dist=SizeDist(kind="uniform", lo=0.2, hi=0.4)
    )
    inst2 = generate(uni)
    assert all(Fraction(1, 5) <= s <= Fraction(2, 5) for s in inst2.sizes.values())
    disc = GeneratorSpec(
        klass="edgeless", n=20, seed=1, size_dist=SizeDist(kind="discrete", values=("1/3", "1/2"))
    )
    inst3 = generate(disc)
    assert set(inst3.sizes.values()) <= {Fraction(1, 3), Fraction(1, 2)}


class _FixedUnits:
    """An rng stand-in whose ``unit()`` returns the given floats in turn."""

    def __init__(self, *units):
        self.units = iter(units)

    def unit(self):
        return next(self.units)


@pytest.mark.parametrize(
    "x, nanos",
    [
        # Ten decimals ending in 5: a tie, rounded to the even neighbour.
        (2**-10, 976562),  # 0.0009765625
        (3 * 2**-10, 2929688),  # 0.0029296875
        (5 * 2**-11, 2441406),  # 0.00244140625, not a tie
        (0.1, 100000000),
        (1 - 2**-53, 10**9),
        (0.0, 0),
        (1.0, 10**9),
    ],
)
def test_uniform_draw_rounds_half_even_to_nine_decimals(x, nanos):
    dist = SizeDist(kind="uniform", lo=0.0, hi=1.0)
    assert dist.draw(_FixedUnits(x)) == Fraction(nanos, 10**9)
    assert dist.draw(_FixedUnits(x)) == ref_draw(dist, _FixedUnits(x))


@pytest.mark.parametrize(
    "dist",
    [
        SizeDist(),
        SizeDist(kind="uniform", lo=0.1, hi=0.7),
        SizeDist(kind="uniform", lo=0.0, hi=1.0),
        SizeDist(kind="discrete", values=("1/3", "0.25", 0.5, 1, "0")),
    ],
)
def test_draws_match_the_parsing_reference(dist):
    # The same stream of sizes, and the rng left in the same state.
    ours, theirs = SplitMix64(99), SplitMix64(99)
    assert [dist.draw(ours) for _ in range(3000)] == [ref_draw(dist, theirs) for _ in range(3000)]
    assert ours.next_u64() == theirs.next_u64()


def test_b3dm_generator():
    spec = GeneratorSpec(
        klass="b3dm-reduction", x_count=4, y_count=4, z_count=4, t_count=6, guess=3, seed=11
    )
    inst, planted = generate_b3dm(spec)
    assert inst.n == 4 * 3 + 6 + (6 - 3) + (12 - 9)
    info = recognize(inst)
    assert info.is_bipartite
    report = validate_packing(inst, planted, require_cover=True)
    assert report.feasible
    assert all(inst.size_of(b) == 1 for b in planted.bins)
    # useful bins: one triple item plus its three elements, size exactly 1
    triples = [b for b in planted.bins if len(b) == 4]
    assert len(triples) == spec.guess

    bps = GeneratorSpec(
        klass="b3dm-reduction", x_count=4, y_count=4, z_count=4, t_count=6, guess=3, seed=11,
        variant="BPS",
    )
    inst2, planted2 = generate_b3dm(bps)
    assert recognize(inst2).is_split
    assert validate_packing(inst2, planted2, require_cover=True).feasible

    with pytest.raises(ParameterError):
        generate_b3dm(GeneratorSpec(klass="b3dm-reduction", x_count=1, y_count=1, z_count=1, t_count=2, guess=3))
    with pytest.raises(ParameterError):
        generate_b3dm(GeneratorSpec(klass="b3dm-reduction", x_count=9, y_count=1, z_count=1, t_count=2, guess=2))


def test_b3dm_degree_cap():
    spec = GeneratorSpec(
        klass="b3dm-reduction", x_count=5, y_count=5, z_count=5, t_count=12, guess=3,
        seed=2, degree_cap=3,
    )
    inst, _ = generate_b3dm(spec)
    # count triples per element via labels
    triple_items = [i for i in inst.items if inst.labels[i].startswith("t")]
    element_items = [i for i in inst.items if inst.labels[i][0] in "xyz"]
    for u in element_items:
        member_of = sum(
            1 for t in triple_items if not inst.has_edge(u, t)
        )
        assert member_of <= spec.degree_cap


def test_instance_io_roundtrip(tmp_path):
    inst = generate(GeneratorSpec(klass="split", n=9, seed=3))
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    back = read_instance(path)
    assert back == inst

    data = {
        "items": [{"id": 10, "size": "1/3"}, {"id": 20, "size": 0.25}],
        "edges": [[10, 20]],
        "class_hint": None,
    }
    remapped = instance_from_dict(data)
    assert remapped.items == (0, 1)
    assert remapped.sizes[0] == Fraction(1, 3)
    assert remapped.sizes[1] == Fraction(1, 4)
    assert remapped.labels == {0: "10", 1: "20"}
    assert remapped.edges == frozenset({(0, 1)})

    with pytest.raises(ParameterError):
        instance_from_dict({"items": [{"id": 0, "size": "0.5"}], "edges": [[0, 3]]})


@pytest.mark.parametrize("items", [{"0": "1/2"}, "1/2", [["0", "1/2"]], [{"id": 0, "size": "1/2"}, 0]])
def test_instance_items_must_be_a_list_of_objects(items):
    with pytest.raises(ParameterError, match="items must be a list of JSON objects"):
        instance_from_dict({"items": items})


def test_spec_parses_valid_size_dists():
    # "klass", the field's own name, is accepted for "class".
    uniform = GeneratorSpec.from_dict(
        {"klass": "edgeless", "n": 30, "seed": 3, "size_dist": {"kind": "uniform", "lo": 0.25, "hi": 0.5}}
    )
    assert uniform == GeneratorSpec(klass="edgeless", n=30, seed=3, size_dist=SizeDist(kind="uniform", lo=0.25, hi=0.5))
    assert all(Fraction(1, 4) <= s <= Fraction(1, 2) for s in generate(uniform).sizes.values())
    discrete = GeneratorSpec.from_dict(
        {"class": "edgeless", "n": 30, "seed": 3, "size_dist": {"kind": "discrete", "values": ["1/3", "0.25"]}}
    )
    assert discrete.size_dist == SizeDist(kind="discrete", values=("1/3", "0.25"))
    assert set(generate(discrete).sizes.values()) == {Fraction(1, 3), Fraction(1, 4)}


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SizeDist(kind="nope"), "unknown size distribution 'nope'"),
        (lambda: SizeDist(kind="discrete"), "discrete size distribution needs values"),
        (lambda: SizeDist(kind="discrete", values=("1/2", "abc")), "must hold sizes in [0, 1], got 'abc'"),
        (lambda: SizeDist(kind="discrete", values=("3/2",)), "spec field 'values' must hold sizes in [0, 1], got '3/2'"),
        (lambda: SizeDist(lo=-0.5), "spec field 'lo' must be in [0, 1], got -0.5"),
        (lambda: SizeDist(lo=0.6, hi=0.4), "spec field 'lo' must not exceed 'hi', got lo 0.6 > hi 0.4"),
        (lambda: GeneratorSpec(klass="nope"), "unknown generator class 'nope'"),
        (lambda: GeneratorSpec(klass="split", n=-1), "n must be nonnegative"),
        (lambda: GeneratorSpec(klass="split", density=1.5), "spec field 'density' must be in [0, 1], got 1.5"),
        (lambda: GeneratorSpec(klass="b3dm-reduction", variant="BPX"), "variant must be BPB or BPS, got 'BPX'"),
        (lambda: GeneratorSpec(klass="b3dm-reduction", y_count=-1), "counts must be nonnegative"),
        (lambda: GeneratorSpec(klass="edgeless", n=10**30), f"spec field 'n' must be at most {COUNT_CAP}, got {10**30}"),
        (
            lambda: GeneratorSpec(klass="b3dm-reduction", t_count=COUNT_CAP + 1),
            f"spec field 't_count' must be at most {COUNT_CAP}, got {COUNT_CAP + 1}",
        ),
        (
            lambda: GeneratorSpec(klass="b3dm-reduction", x_count=1, y_count=1, z_count=1, t_count=2, guess=2),
            "guess 2 needs at least 6 elements, got 3",
        ),
        (
            # Every count under the per-field cap, the item total over it.
            lambda: GeneratorSpec(klass="b3dm-reduction", x_count=COUNT_CAP, y_count=COUNT_CAP, z_count=COUNT_CAP, t_count=COUNT_CAP),
            f"b3dm spec has {8 * COUNT_CAP} items, must be at most {COUNT_CAP}",
        ),
        (
            # The guess removes 4 items per planted triple from the total.
            lambda: GeneratorSpec(klass="b3dm-reduction", x_count=COUNT_CAP, y_count=1, z_count=1, t_count=1, guess=1),
            f"b3dm spec has {2 * COUNT_CAP + 2} items, must be at most {COUNT_CAP}",
        ),
    ],
)
def test_direct_construction_checks_values(make, message):
    # A spec built in code gets the checks a JSON spec gets, before any draw.
    with pytest.raises(ParameterError, match=re.escape(message)):
        make()


# The JSON types each derived field type accepts; every other candidate
# below must be rejected by name.
_ACCEPTED = {int: (int,), float: (int, float), str: (str,), tuple: (list,)}


@pytest.mark.parametrize(
    "cls, name",
    [(cls, f.name) for cls in (GeneratorSpec, SizeDist) for f in fields(cls) if f.default is not MISSING],
)
def test_spec_field_of_wrong_json_type_is_rejected(cls, name):
    kind = type(next(f.default for f in fields(cls) if f.name == name))
    for wrong in ("x", 3, 0.5, True, None, [], {}):
        if type(wrong) in _ACCEPTED[kind]:
            continue
        spec = {"class": "edgeless", "n": 2}
        if cls is SizeDist:
            spec["size_dist"] = {name: wrong}
        else:
            spec[name] = wrong
        with pytest.raises(ParameterError, match=f"spec field '{name}' must be "):
            GeneratorSpec.from_dict(spec)


def test_counts_at_the_cap_are_accepted():
    # Construction only: the largest accepted counts draw nothing yet. A
    # b3dm spec of x = y = z = t = COUNT_CAP / 8 and no guess has
    # 2(x + y + z) + 2t = COUNT_CAP items; one more triple is two too many.
    counts = dict.fromkeys(("x_count", "y_count", "z_count", "t_count"), COUNT_CAP // 8)
    spec = GeneratorSpec(klass="b3dm-reduction", n=COUNT_CAP, **counts)
    assert [getattr(spec, name) for name in ("n", *counts)] == [COUNT_CAP] + [COUNT_CAP // 8] * 4
    with pytest.raises(ParameterError, match=f"b3dm spec has {COUNT_CAP + 2} items, must be at most {COUNT_CAP}$"):
        GeneratorSpec(klass="b3dm-reduction", **{**counts, "t_count": COUNT_CAP // 8 + 1})
    suite, pairs = expand_suite({"sweep": {"count": COUNT_CAP, "n_min": COUNT_CAP, "n_max": COUNT_CAP, "classes": []}})
    assert (suite.sweep.count, suite.sweep.n_max, pairs) == (COUNT_CAP, COUNT_CAP, [])
    for sweep in ({"count": COUNT_CAP + 1}, {"n_max": COUNT_CAP + 1}):
        with pytest.raises(ParameterError, match=f"sweep field '{next(iter(sweep))}' must be at most {COUNT_CAP}, got"):
            expand_suite({"sweep": sweep})


def test_suite_ids_follow_the_parsed_class():
    # "klass" is the field's own spelling of "class"; the id follows it.
    _, [(instance_id, spec)] = expand_suite({"instances": [{"klass": "bipartite", "n": 6}]})
    assert instance_id == "bipartite-00000"
    assert spec.klass == "bipartite"


def test_empty_sweep_is_the_default_sweep():
    _, pairs = expand_suite({"sweep": {}})
    assert [iid for iid, _ in pairs] == [f"bipartite-{k:05d}" for k in range(10)]
    assert all(4 <= spec.n <= 14 and spec.size_dist == SizeDist() for _, spec in pairs)
    for config in ({}, {"sweep": None}, {"sweep": {"classes": ["split"], "count": 0}}):
        assert expand_suite(config)[1] == []


def _suite_config(**overrides):
    config = {
        "seed": 9,
        "instances": [
            {"class": "bipartite", "n": 8, "density": 0.4, "seed": 4},
        ],
        "algorithms": ["color_sets", "abs_bpb"],
        "oracle": True,
        "oracle_limit": 10,
        "deterministic": True,
    }
    config.update(overrides)
    return config


def test_run_suite_rows_and_files(tmp_path):
    report = run_suite(_suite_config(), tmp_path)
    assert len(report.rows) == 2
    for row in report.rows:
        assert row.bins is not None and row.opt is not None
        assert row.ratio == row.bins / row.opt
    csv_text = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_text[0] == ",".join(CSV_COLUMNS)
    assert len(csv_text) == 3
    assert (tmp_path / "results" / "bipartite-00000.json").exists()
    assert (tmp_path / "summary.csv").exists()
    detail = json.loads((tmp_path / "results" / "bipartite-00000.json").read_text())
    assert detail["results"][0]["feasible"]


def test_run_suite_lemma2_column(tmp_path):
    config = _suite_config(
        instances=[],
        algorithms=["ffd", "asymptotic_bp"],
        sweep={"classes": ["edgeless"], "count": 6, "n_min": 4, "n_max": 14},
    )
    report = run_suite(config, tmp_path)
    assert len(report.rows) == 12
    assert all(row.lemma2_ok is True for row in report.rows)


def test_ffd_bounds_check_rejects_too_many_bins():
    # Ten items of size 1/20: the bounds allow at most one bin.
    inst = ConflictInstance({i: "1/20" for i in range(10)})
    assert _ffd_bounds_ok(inst, packing_classic.ffd(inst.items, inst.sizes))
    assert not _ffd_bounds_ok(inst, Packing(tuple(frozenset({v}) for v in inst.items), "singletons"))


def test_ffd_bounds_check_on_an_empty_instance():
    # No item: the empty packing and one empty bin pass, two bins do not.
    inst = ConflictInstance({})
    assert _ffd_bounds_ok(inst, Packing(()))
    assert _ffd_bounds_ok(inst, Packing((frozenset(),)))
    assert not _ffd_bounds_ok(inst, Packing((frozenset(), frozenset())))


@pytest.mark.parametrize("flag, lemma12_ok", [("lemma12:ok", True), ("lemma12:fail", False)])
def test_run_suite_flags_an_infeasible_packing(tmp_path, monkeypatch, flag, lemma12_ok):
    # The solver is looked up in bpc at call time. One bin holding every
    # item of the bipartite instance holds a conflict and is overfull.
    from cbp import bpc

    monkeypatch.setattr(bpc, "color_sets", lambda instance, info: Packing((frozenset(instance.items),), "one", (flag,)))
    [row] = run_suite(_suite_config(algorithms=["color_sets"]), tmp_path).rows
    assert row.bins == 1
    assert row.fallback_flags == f"{flag};INFEASIBLE"
    assert row.lemma12_ok is lemma12_ok
    detail = json.loads((tmp_path / "results" / "bipartite-00000.json").read_text())
    assert detail["results"][0]["feasible"] is False


def test_run_suite_empty(tmp_path):
    report = run_suite({"instances": [], "algorithms": []}, tmp_path)
    assert report.rows == []
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines == [",".join(CSV_COLUMNS)]


def test_run_suite_skips_unsupported(tmp_path):
    config = _suite_config(algorithms=["split_approx", "multipartite_pack"])
    config["instances"] = [{"class": "bipartite", "n": 6, "density": 0.9, "seed": 1}]
    report = run_suite(config, tmp_path)
    skipped = [r for r in report.rows if r.fallback_flags.startswith("skipped:")]
    assert skipped  # density-0.9 bipartite n=6 is unlikely to be split


def test_run_suite_deterministic_bytes(tmp_path):
    config = _suite_config(sweep={"classes": ["split"], "count": 3, "n_min": 5, "n_max": 9})
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    run_suite(config, a_dir)
    run_suite(config, b_dir)
    assert (a_dir / "report.csv").read_bytes() == (b_dir / "report.csv").read_bytes()
    assert (a_dir / "summary.csv").read_bytes() == (b_dir / "summary.csv").read_bytes()


def test_run_suite_jobs_match_serial(tmp_path):
    config = _suite_config(sweep={"classes": ["bipartite", "cluster"], "count": 2, "n_min": 5, "n_max": 8})
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    run_suite(config, serial, jobs=1)
    run_suite(config, parallel, jobs=2)
    assert (serial / "report.csv").read_bytes() == (parallel / "report.csv").read_bytes()


def test_run_suite_nondeterministic_meta_has_a_timestamp(tmp_path):
    run_suite(_suite_config(), tmp_path / "fixed")
    run_suite(_suite_config(deterministic=False), tmp_path / "timed")
    assert "timestamp" not in json.loads((tmp_path / "fixed" / "meta.json").read_text())
    stamp = json.loads((tmp_path / "timed" / "meta.json").read_text())["timestamp"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d", stamp)


def test_cbp_seed_env_override(tmp_path, monkeypatch):
    config = _suite_config()
    base = run_suite(config, tmp_path / "base")
    monkeypatch.setenv("CBP_SEED", "31337")
    other = run_suite(config, tmp_path / "override")
    monkeypatch.delenv("CBP_SEED")
    assert [r.bins for r in base.rows] != [] and [r.bins for r in other.rows] != []
    base_csv = (tmp_path / "base" / "report.csv").read_text()
    override_csv = (tmp_path / "override" / "report.csv").read_text()
    assert base_csv != override_csv


def test_run_algorithm_unknown_name():
    from cbp.harness import run_algorithm

    inst = generate(GeneratorSpec(klass="edgeless", n=2, seed=1))
    with pytest.raises(ParameterError):
        run_algorithm("bogus", inst, recognize(inst))


def _pinned_instances():
    for klass in GENERATOR_CLASSES:
        if klass == "b3dm-reduction":
            continue
        for n in (0, 5, 40):
            for density in (0.1, 0.5, 1.0):
                for seed in (0, 1):
                    for size_dist in (SizeDist(), SizeDist(kind="uniform")):
                        yield generate(GeneratorSpec(klass=klass, n=n, density=density, size_dist=size_dist, seed=seed))
    for variant in ("BPB", "BPS"):
        for x, t, guess, seed in ((4, 6, 3, 11), (5, 12, 3, 2)):
            spec = GeneratorSpec(
                klass="b3dm-reduction", x_count=x, y_count=x, z_count=x, t_count=t, guess=guess,
                seed=seed, variant=variant,
            )
            yield generate_b3dm(spec)[0]


def test_seeded_instances_are_pinned():
    # The sizes and sorted edges of every seeded instance, hashed; a change
    # to any generator or to how an instance stores its graph shows here.
    digest = hashlib.sha256()
    for inst in _pinned_instances():
        digest.update(repr(([str(inst.sizes[i]) for i in inst.items], sorted(inst.edges))).encode())
    assert digest.hexdigest() == "35a47093e4c42fe28b899c7f4b675597a759a0bd12cedbc347a5bfa3bee31748"


PINNED_SUITE = {
    "seed": 5,
    "instances": [
        {
            "class": "bipartite", "n": 9, "density": 0.4,
            "size_dist": {"kind": "discrete", "values": ["1/3", "0.25", 0.5]},
        },
        {"class": "split", "n": 8, "density": 0.5, "size_dist": {"kind": "uniform", "lo": 0.1, "hi": 0.6}},
        {"class": "edgeless", "n": 7},
        {
            "class": "b3dm-reduction", "x_count": 2, "y_count": 2, "z_count": 2, "t_count": 3, "guess": 1,
            "variant": "BPS",
        },
    ],
    "sweep": {"classes": ["cluster", "chordal", "complete-multipartite"], "count": 2, "n_min": 4, "n_max": 9},
    "algorithms": [
        "ffd", "asymptotic_bp", "color_sets", "max_solve", "matching_pack",
        "approx_bpc", "split_approx", "abs_bpb", "multipartite_pack",
    ],
    "oracle": True,
    "oracle_limit": 10,
}


def test_run_suite_output_is_pinned(tmp_path, monkeypatch):
    # Every file a deterministic run writes (report.csv, summary.csv,
    # results/*.json, meta.json), hashed with its path; a change to spec
    # reading, seeding, any algorithm or the report format shows here.
    monkeypatch.delenv("CBP_SEED", raising=False)
    run_suite(PINNED_SUITE, tmp_path)
    digest = hashlib.sha256()
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == "3c2abea23076b9f25e6e7c8108ae6ae5ca84ad606c22c7c2d1b4a0af00902bc1"
