import hashlib
import json
from fractions import Fraction

import pytest

from cbp import bis, harness
from cbp.cli import main
from cbp.harness import GeneratorSpec, generate, write_instance, write_packing

from conftest import make_packing


@pytest.fixture()
def bipartite_file(tmp_path):
    inst = generate(GeneratorSpec(klass="bipartite", n=8, density=0.4, seed=12))
    path = tmp_path / "inst.json"
    write_instance(inst, path)
    return inst, path


def test_solve_ok(bipartite_file, capsys):
    _, path = bipartite_file
    code = main(["solve", "--algo", "approx_bpc", "--in", str(path), "--oracle"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["feasible"]
    assert payload["bin_count"] >= payload["opt"] >= 1
    assert payload["ratio"] >= 1.0


def test_solve_eps_and_outfile(bipartite_file, tmp_path, capsys):
    _, path = bipartite_file
    out = tmp_path / "packing.json"
    code = main(["solve", "--algo", "approx_bpc", "--in", str(path), "--eps", "1/5", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["bins"]


def test_solve_eps_rejected_for_wrong_algo(bipartite_file, capsys):
    _, path = bipartite_file
    assert main(["solve", "--algo", "color_sets", "--in", str(path), "--eps", "1/5"]) == 2
    assert "parameter error: --eps is not accepted by color_sets" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["max_solve", "approx_bpc", "split_approx"])
def test_solve_eps_reaches_the_solver(bipartite_file, monkeypatch, capsys, algo):
    # The solver is looked up in bpc at call time, so a rebound one is called.
    from cbp import bpc

    _, path = bipartite_file
    seen = []

    def recording(instance, info, eps):
        seen.append(eps)
        return make_packing([{i} for i in instance.items])

    monkeypatch.setattr(bpc, algo, recording)
    assert main(["solve", "--algo", algo, "--in", str(path), "--eps", "1/7"]) == 0
    assert seen == [Fraction(1, 7)]
    assert json.loads(capsys.readouterr().out)["feasible"]


def test_solve_missing_file():
    assert main(["solve", "--algo", "color_sets", "--in", "nope.json"]) == 2


def test_solve_capability_error(tmp_path):
    from cbp import ConflictInstance

    inst = ConflictInstance({0: "0.1", 1: "0.1", 2: "0.1"}, edges=[(0, 1), (1, 2), (0, 2)])
    path = tmp_path / "k3.json"
    write_instance(inst, path)
    assert main(["solve", "--algo", "abs_bpb", "--in", str(path)]) == 3


def test_verify_exit_codes(bipartite_file, tmp_path, capsys):
    inst, path = bipartite_file
    good = tmp_path / "good.json"
    write_packing(make_packing([{i} for i in inst.items]), good)
    assert main(["verify", "--in", str(path), "--packing", str(good)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    write_packing(make_packing([set(inst.items)]), bad)
    assert main(["verify", "--in", str(path), "--packing", str(bad)]) == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is False

    partial = tmp_path / "partial.json"
    write_packing(make_packing([{0}]), partial)
    assert main(["verify", "--in", str(path), "--packing", str(partial)]) == 4
    assert main(["verify", "--in", str(path), "--packing", str(partial), "--no-cover"]) == 0


def test_generate_and_bench(tmp_path, monkeypatch, capsys):
    # Each b3dm-reduction instance is built once, its planted packing kept.
    from cbp import harness

    b3dm_specs = []
    build_b3dm = harness.generate_b3dm

    def counting(spec):
        b3dm_specs.append(spec)
        return build_b3dm(spec)

    monkeypatch.setattr(harness, "generate_b3dm", counting)
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        json.dumps(
            [
                {"class": "split", "n": 7, "density": 0.5, "seed": 1},
                {
                    "class": "b3dm-reduction",
                    "x_count": 3,
                    "y_count": 3,
                    "z_count": 3,
                    "t_count": 4,
                    "guess": 2,
                    "seed": 5,
                },
            ]
        )
    )
    out_dir = tmp_path / "instances"
    assert main(["generate", "--spec", str(spec_file), "--out", str(out_dir)]) == 0
    assert len(b3dm_specs) == 1
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()[:16] for f in out_dir.iterdir()}
    assert digests == {
        "split-00000.json": "4a29a141bbdbb1a0",
        "b3dm-reduction-00001.json": "c3bd0780c85597c5",
        "b3dm-reduction-00001.planted.json": "811411cca2aadae5",
    }

    suite = tmp_path / "suite.json"
    suite.write_text(
        json.dumps(
            {
                "seed": 3,
                "instances": [{"class": "split", "n": 7, "density": 0.5, "seed": 2}],
                "algorithms": ["color_sets", "split_approx"],
                "oracle": True,
                "deterministic": True,
            }
        )
    )
    bench_dir = tmp_path / "bench"
    assert main(["bench", "--suite", str(suite), "--out", str(bench_dir)]) == 0
    lines = (bench_dir / "report.csv").read_text().splitlines()
    assert len(lines) == 3


def test_bad_algorithm_name_exits_2(bipartite_file):
    _, path = bipartite_file
    with pytest.raises(SystemExit) as err:
        main(["solve", "--algo", "nonsense", "--in", str(path)])
    assert err.value.code == 2


def test_solve_duplicate_item_ids_exits_2(tmp_path, capsys):
    path = tmp_path / "dup.json"
    items = [{"id": 0, "size": "1/2"}, {"id": 0, "size": "1/2"}, {"id": 1, "size": "1/3"}]
    path.write_text(json.dumps({"items": items, "edges": []}))
    assert main(["solve", "--algo", "ffd", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "duplicate item ids: [0]" in captured.err


def test_solve_solver_error_exits_3(tmp_path, monkeypatch, capsys):
    from cbp import ConflictInstance, bpc
    from cbp.errors import SolverError

    calls = []

    def broken_lp(*args, **kwargs):
        calls.append(1)
        raise SolverError("simplex iteration cap 0 exceeded")

    monkeypatch.setattr(bpc, "solve_max_lp", broken_lp)
    # {0, 1, 2} completely joined to {3, 4}, and twelve isolated tiny items
    # that take abs_bpb above its exact limit of 16: the optimum
    # {0, 1}, {2, ...}, {3, 4, ...} lies above the bound ceil(s) = 2, and
    # no packing has at most 2 bins, so coloring and the 3-bin search leave
    # abs_bpb to the assignment runs, and the big-item packing {0, 1},
    # {3, 4} sends the tiny items to the LP.
    sizes = {0: "1/2", 1: "1/2", 2: "1/20000", 3: "2/5", 4: "2/5"} | {i: "1/20000" for i in range(5, 17)}
    path = tmp_path / "halves.json"
    write_instance(ConflictInstance(sizes, edges=[(u, v) for u in (0, 1, 2) for v in (3, 4)]), path)
    assert main(["solve", "--algo", "abs_bpb", "--in", str(path)]) == 3
    assert "solver error: simplex iteration cap 0 exceeded" in capsys.readouterr().err
    assert calls


def test_solve_top_level_list_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([{"id": 0, "size": "1/2"}]))
    assert main(["solve", "--algo", "ffd", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "instance must be a JSON object, got list" in captured.err


@pytest.mark.parametrize("bad_id", [[0], {"k": 0}])
def test_solve_non_scalar_item_id_exits_2(tmp_path, capsys, bad_id):
    path = tmp_path / "bad_id.json"
    items = [{"id": bad_id, "size": "1/2"}, {"id": 1, "size": "1/3"}]
    path.write_text(json.dumps({"items": items, "edges": []}))
    assert main(["solve", "--algo", "ffd", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"item ids must be numbers or strings, got {bad_id!r}" in captured.err


@pytest.mark.parametrize("bad_id", [True, None])
def test_solve_boolean_or_null_item_id_exits_2(tmp_path, capsys, bad_id):
    # true next to 1 is not a duplicate id: it is no id at all.
    path = tmp_path / "bad_id.json"
    items = [{"id": bad_id, "size": "1/2"}, {"id": 1, "size": "1/3"}]
    path.write_text(json.dumps({"items": items, "edges": []}))
    assert main(["solve", "--algo", "ffd", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"parameter error: item ids must be numbers or strings, got {bad_id!r}" in captured.err


@pytest.mark.parametrize("key", ["id", "size"])
def test_solve_item_without_id_or_size_exits_2(tmp_path, capsys, key):
    path = tmp_path / "missing.json"
    items = [{"id": 0, "size": "1/2"}, {"id": 1, "size": "1/3"}]
    del items[1][key]
    path.write_text(json.dumps({"items": items, "edges": []}))
    assert main(["solve", "--algo", "ffd", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"parameter error: item 1 has no {key!r}" in captured.err


@pytest.mark.parametrize(
    "instance, message",
    [
        # A misspelt "edges" would leave the conflict unread: 0 and 1 in one bin.
        (
            {"items": [{"id": 0, "size": "1/2"}, {"id": 1, "size": "1/3"}], "Edges": [[0, 1]]},
            "unknown instance field 'Edges'; known fields: items, edges, class_hint",
        ),
        (
            {"items": [{"id": 0, "size": "1/2"}, {"id": 1, "size": "1/3", "weight": 2}]},
            "unknown item 1 field 'weight'; known fields: id, size",
        ),
    ],
)
def test_solve_unknown_instance_key_exits_2(tmp_path, capsys, instance, message):
    path = tmp_path / "unknown_key.json"
    path.write_text(json.dumps(instance))
    assert main(["solve", "--algo", "color_sets", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"parameter error: {message}" in captured.err


@pytest.mark.parametrize("size", ["NaN", "Infinity", "-Infinity"])
def test_solve_non_finite_size_exits_2(tmp_path, capsys, size):
    # Python's json module reads these literals as floats.
    path = tmp_path / "non_finite.json"
    path.write_text('{"items": [{"id": 0, "size": %s}, {"id": 1, "size": "1/3"}], "edges": []}' % size)
    assert main(["solve", "--algo", "ffd", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"parameter error: not a size: {float(size)!r}" in captured.err


# An endpoint is an item id: a JSON true is not item 1, nor false item 0.
@pytest.mark.parametrize("edges", [5, [3], [[[0], [1]]], [[True, 0]], [[0, False]]])
def test_solve_malformed_edges_exit_2(tmp_path, capsys, edges):
    path = tmp_path / "bad_edges.json"
    items = [{"id": 0, "size": "1/2"}, {"id": 1, "size": "1/3"}]
    path.write_text(json.dumps({"items": items, "edges": edges}))
    assert main(["solve", "--algo", "ffd", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parameter error: edges must be a list of [u, v] pairs of item ids" in captured.err


@pytest.mark.parametrize(
    "payload, message",
    [
        ([[0]], "packing must be a JSON object, got list"),
        ({"bins": 5}, "bins must be a list of lists of item ids"),
        ({"bins": [[[0]]]}, "bins must be a list of lists of item ids"),
        ({"bins": [[0]], "flags": 5}, "flags must be a list"),
        # Only JSON integers are item ids: true is not item 1.
        ({"bins": [[0], [True]]}, "bins must be a list of lists of item ids"),
        ({"bins": [[0, "a"]]}, "bins must be a list of lists of item ids"),
        ({"bins": [[0, None]]}, "bins must be a list of lists of item ids"),
        # A bin is a set: an item listed twice is not read as once.
        ({"bins": [[0, 0], [1]]}, "bin 0 lists item 0 twice"),
    ],
)
def test_verify_malformed_packing_exits_2(bipartite_file, tmp_path, capsys, payload, message):
    _, inst_path = bipartite_file
    path = tmp_path / "bad_packing.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", "--in", str(inst_path), "--packing", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"parameter error: {message}" in captured.err


def test_generate_non_object_spec_exits_2(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps([1, 2]))
    assert main(["generate", "--spec", str(path), "--out", str(tmp_path / "gen")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parameter error: generator spec must be a JSON object, got int" in captured.err


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"class": "split", "n": [3]}, "spec field 'n' must be an integer, got list"),
        ({"class": "split", "n": 3, "size_dist": 5}, "spec field 'size_dist' must be a JSON object, got int"),
    ],
)
def test_generate_spec_field_of_wrong_type_exits_2(tmp_path, capsys, spec, message):
    _assert_bad_spec(tmp_path, capsys, spec, message)


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"class": "split", "n": 6, "densty": 0.9}, "unknown spec field 'densty'"),
        (
            {"class": "edgeless", "n": 4, "size_dist": {"kind": "uniform", "low": 0.1}},
            "unknown spec field 'low'",
        ),
    ],
)
def test_generate_unknown_spec_field_exits_2(tmp_path, capsys, spec, message):
    _assert_bad_spec(tmp_path, capsys, spec, message)


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"class": "split", "n": 6, "density": 7}, "spec field 'density' must be in [0, 1], got 7.0"),
        ({"class": "split", "n": 6, "density": -0.5}, "spec field 'density' must be in [0, 1], got -0.5"),
        (
            {"class": "edgeless", "n": 4, "size_dist": {"kind": "uniform", "lo": 5, "hi": 9}},
            "spec field 'lo' must be in [0, 1], got 5.0",
        ),
        (
            {"class": "edgeless", "n": 4, "size_dist": {"kind": "uniform", "lo": 0.5, "hi": 9}},
            "spec field 'hi' must be in [0, 1], got 9.0",
        ),
        (
            {"class": "edgeless", "n": 4, "size_dist": {"kind": "uniform", "lo": 0.9, "hi": 0.1}},
            "spec field 'lo' must not exceed 'hi', got lo 0.9 > hi 0.1",
        ),
        ({"class": "edgeless", "n": 10**30}, f"spec field 'n' must be at most 16384, got {10**30}"),
        ({"class": "split", "n": 16385}, "spec field 'n' must be at most 16384, got 16385"),
        ({"class": "b3dm-reduction", "x_count": 10**30}, f"spec field 'x_count' must be at most 16384, got {10**30}"),
        (
            {"class": "b3dm-reduction", "z_count": 1, "t_count": 10**30},
            f"spec field 't_count' must be at most 16384, got {10**30}",
        ),
    ],
)
def test_generate_spec_field_out_of_range_exits_2(tmp_path, capsys, monkeypatch, spec, message):
    # Values are checked when the spec is read: nothing is generated.
    def never(spec):
        raise AssertionError("generated an instance from a spec out of range")

    monkeypatch.setattr(harness, "generate", never)
    monkeypatch.setattr(harness, "generate_b3dm", never)
    _assert_bad_spec(tmp_path, capsys, spec, message)


@pytest.mark.parametrize(
    "spec, message",
    [
        # n = 0 draws no size, so only a check on reading can catch these.
        ({"class": "split", "n": 0, "size_dist": {"kind": "nope"}}, "unknown size distribution 'nope'"),
        ({"class": "split", "n": 0, "size_dist": {"kind": "discrete"}}, "discrete size distribution needs values"),
        (
            {"class": "split", "n": 4, "size_dist": {"kind": "discrete", "values": ["1/2", "abc"]}},
            "spec field 'values' must hold sizes in [0, 1], got 'abc'",
        ),
        (
            {"class": "split", "n": 4, "size_dist": {"kind": "discrete", "values": [2]}},
            "spec field 'values' must hold sizes in [0, 1], got 2",
        ),
        (
            {"class": "split", "n": 4, "size_dist": {"kind": "discrete", "values": [True]}},
            "spec field 'values' must hold sizes in [0, 1], got True",
        ),
    ],
)
def test_generate_bad_size_dist_exits_2(tmp_path, capsys, spec, message):
    _assert_bad_spec(tmp_path, capsys, spec, message)


def _assert_bad_spec(tmp_path, capsys, spec, message):
    # The spec fails alone under generate and as a suite's one instance
    # under bench, with the same one-line message and no output directory.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"instances": [spec]}))
    for argv in (["generate", "--spec", str(path)], ["bench", "--suite", str(suite)]):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"parameter error: {message}" in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()


def test_generate_reads_every_spec_before_output(tmp_path, capsys):
    # A bad second spec leaves no file of the first behind.
    path = tmp_path / "specs.json"
    path.write_text(json.dumps([{"class": "split", "n": 5}, {"class": "nope", "n": 5}]))
    out = tmp_path / "gen"
    assert main(["generate", "--spec", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parameter error: unknown generator class 'nope'" in captured.err
    assert not out.exists()


# A valid spec, then a b3dm spec whose triples cannot meet degree_cap 0:
# the error shows only once that instance is built.
DEGREE_CAP_SPECS = [
    {"class": "split", "n": 5},
    {"class": "b3dm-reduction", "x_count": 2, "y_count": 2, "z_count": 2, "t_count": 3, "guess": 1, "degree_cap": 0},
]


def _assert_degree_cap_leaves_no_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parameter error: cannot satisfy the per-element degree cap" in captured.err
    assert not out.exists()


def test_generate_builds_every_instance_before_output(tmp_path, capsys):
    # No file of the split instance is left behind.
    path = tmp_path / "specs.json"
    path.write_text(json.dumps(DEGREE_CAP_SPECS))
    _assert_degree_cap_leaves_no_output(tmp_path, capsys, ["generate", "--spec", str(path)])


def test_bench_evaluates_every_instance_before_output(tmp_path, capsys):
    # No empty results directory is left behind.
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"instances": DEGREE_CAP_SPECS}))
    _assert_degree_cap_leaves_no_output(tmp_path, capsys, ["bench", "--suite", str(suite)])


@pytest.mark.parametrize("algo", ["max_solve", "approx_bpc", "split_approx"])
@pytest.mark.parametrize(
    "eps, message",
    [
        ("0", "eps must be in (0, 1), got 0"),
        ("2", "eps must be in (0, 1), got 2"),
        ("1/0", "eps must be a number in (0, 1), got '1/0'"),
    ],
)
def test_solve_bad_eps_exits_2(tmp_path, capsys, algo, eps, message):
    # Two items: no bin is ever solved, so only an up-front check can
    # reject eps; neither a third, large item nor dropping the edge (one
    # bin holds both) may change that.
    items = [{"id": 0, "size": "1/2"}, {"id": 1, "size": "1/3"}]
    large = [{"id": 2, "size": "3/5"}]
    for extra, edges in (([], [[0, 1]]), (large, [[0, 1]]), ([], [])):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"items": items + extra, "edges": edges}))
        assert main(["solve", "--algo", algo, "--in", str(path), f"--eps={eps}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"parameter error: {message}" in captured.err


@pytest.mark.parametrize(
    "eps, cells",
    [("1e-12", 9945958148394), ("1e-30", 9945958148394877607451261487240)],
)
def test_split_approx_eps_over_the_knapsack_cap_exits_2(tmp_path, capsys, eps, cells):
    # Nine-digit sizes send split_approx's knapsacks to the profit-scaling
    # DP, whose table grows as n^2 / eps. Without the cap, 1e-12 ran out of
    # memory and 1e-30 overflowed the list size, each with a traceback.
    sizes = ["0.123456789", "0.234567891", "0.345678912", "0.456789123", "0.111111113", "0.222222227"]
    path = tmp_path / "split.json"
    path.write_text(json.dumps({"items": [{"id": i, "size": s} for i, s in enumerate(sizes)], "edges": [[0, 1]]}))
    assert main(["solve", "--algo", "split_approx", "--in", str(path), "--eps", eps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"parameter error: eps = {Fraction(eps)} needs {cells} knapsack table cells, "
        f"over the cap {bis.SCALED_DP_CELL_LIMIT}\n"
    )


@pytest.mark.parametrize("algo", ["max_solve", "approx_bpc"])
def test_solve_eps_over_the_enumeration_cap_exits_2(tmp_path, capsys, algo):
    # A 4-cycle has no split certificate, so its growth would run the
    # enumeration scheme, whose cap 6 is below ceil(1/eps) = 7.
    items = [{"id": i, "size": "1/2"} for i in range(4)]
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({"items": items, "edges": [[i, (i + 1) % 4] for i in range(4)]}))
    assert main(["solve", "--algo", algo, "--in", str(path), "--eps", "1/7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parameter error: enumeration bound ceil(1/eps) = 7 exceeds cap 6" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--algo", "color_sets", "--in", "{dir}"],
        ["verify", "--in", "{dir}", "--packing", "{packing}"],
        ["verify", "--in", "{instance}", "--packing", "{dir}"],
        ["generate", "--spec", "{spec}", "--out", "{instance}"],
    ],
)
def test_unusable_path_exits_2(bipartite_file, tmp_path, capsys, argv):
    # A directory where a file is read, or an existing file where the
    # output directory is made.
    inst, inst_path = bipartite_file
    packing = tmp_path / "packing.json"
    write_packing(make_packing([[v] for v in inst.items]), packing)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"class": "edgeless", "n": 2}))
    paths = {"dir": tmp_path, "instance": inst_path, "packing": packing, "spec": spec}
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parameter error: ")


@pytest.mark.parametrize(
    "suite, message",
    [
        ([{"class": "split", "n": 5}], "suite must be a JSON object, got list"),
        ({"instances": 5}, "spec field 'instances' must be a list"),
        ({"instances": [5]}, "generator spec must be a JSON object"),
        ({"sweep": [1]}, "spec field 'sweep' must be a JSON object"),
        (
            {"instances": [{"class": "split", "n": 5}], "algorithms": "color_sets"},
            "spec field 'algorithms' must be a list",
        ),
        ({"seed": "3", "sweep": {"count": 1}}, "spec field 'seed' must be an integer, got str"),
        (
            {"instances": [{"class": "split", "n": 5}], "oracle": True, "oracle_limit": [3]},
            "spec field 'oracle_limit' must be an integer, got list",
        ),
        ({"sweep": {"count": [1]}}, "spec field 'count' must be an integer, got list"),
        ({"sweep": {"count": 1, "n_min": "4"}}, "spec field 'n_min' must be an integer, got str"),
        ({"sweep": {"count": 1, "n_max": 9.5}}, "spec field 'n_max' must be an integer, got float"),
        ({"sweep": {"classes": "split"}}, "spec field 'classes' must be a list"),
        (
            {"instances": [{"class": "split", "n": 5}], "oracle": "false"},
            "spec field 'oracle' must be a boolean, got str",
        ),
        (
            {"instances": [{"class": "split", "n": 5}], "deterministic": 0},
            "spec field 'deterministic' must be a boolean, got int",
        ),
        (
            {"sweep": {"count": 1, "n_min": 10, "n_max": 4}},
            "sweep field 'n_max' must be at least n_min = 10, got 4",
        ),
        ({"algorithms": ["nope"]}, "unknown algorithm 'nope'; choose from"),
        (
            {"instances": [{"class": "split", "n": 5}], "algorithms": ["color_sets", "nope"]},
            "unknown algorithm 'nope'; choose from",
        ),
        # Each instance spec and sweep class is read before any output.
        ({"instances": [{"class": "nope", "n": 5}]}, "unknown generator class 'nope'"),
        (
            {"instances": [{"class": "split", "n": 5}, {"class": "split", "n": 5, "density": "x"}]},
            "spec field 'density' must be a number, got str",
        ),
        ({"sweep": {"classes": ["split", "nope"]}}, "unknown generator class 'nope'"),
        (
            {"instances": [{"class": "split", "n": 5, "size_dist": {"kind": "discrete"}}]},
            "discrete size distribution needs values",
        ),
        (
            {"sweep": {"count": 0, "size_dist": {"kind": "uniform", "lo": 2}}},
            "spec field 'lo' must be in [0, 1], got 2.0",
        ),
        (
            {"instances": [
                {"class": "b3dm-reduction", "x_count": 2, "y_count": 2, "z_count": 2, "t_count": 1, "guess": 2}
            ]},
            "guess 2 exceeds triple count 1",
        ),
        # Every suite and sweep key names a field, and every member of a
        # list field has its type.
        (
            {"algoritms": ["split_approx"], "orcale": True, "sweep": {"clases": ["split"], "n-max": 3}},
            "unknown spec field 'algoritms'; known fields: instances, sweep, seed, algorithms",
        ),
        ({"orcale": True}, "unknown spec field 'orcale'"),
        ({"sweep": {"n-max": 3}}, "unknown spec field 'n-max'; known fields: classes, count"),
        ({"sweep": {"classes": ["nope"], "count": 0}}, "unknown generator class 'nope'"),
        ({"algorithms": ["ffd", 3]}, "each member of spec field 'algorithms' must be a string, got int"),
        ({"sweep": {"classes": [["split"]]}}, "each member of spec field 'classes' must be a string, got list"),
        # Counts and limits are never negative.
        ({"sweep": {"count": -3}}, "sweep field 'count' must be at least 0, got -3"),
        ({"sweep": {"count": 0, "n_min": -5, "n_max": -2}}, "sweep field 'n_min' must be at least 0, got -5"),
        (
            {"instances": [{"class": "split", "n": 5}], "oracle": True, "oracle_limit": -1},
            "suite field 'oracle_limit' must be at least 0, got -1",
        ),
        # A sweep's counts are capped before any instance is drawn.
        ({"sweep": {"count": 10**30}}, f"sweep field 'count' must be at most 16384, got {10**30}"),
        ({"sweep": {"n_max": 10**30}}, f"sweep field 'n_max' must be at most 16384, got {10**30}"),
    ],
)
def test_bench_malformed_suite_exits_2(tmp_path, capsys, suite, message):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    out = tmp_path / "bench"
    assert main(["bench", "--suite", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"parameter error: {message}" in captured.err
    assert not out.exists()


def test_bench_jobs_below_one_exits_2(tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"instances": [{"class": "split", "n": 5}]}))
    out = tmp_path / "bench"
    assert main(["bench", "--suite", str(path), "--out", str(out), "--jobs", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parameter error: jobs must be at least 1, got 0" in captured.err
    assert not out.exists()


def test_solve_negative_oracle_limit_exits_2(bipartite_file, tmp_path, capsys):
    _, inst_path = bipartite_file
    out = tmp_path / "packing.json"
    argv = ["solve", "--algo", "approx_bpc", "--in", str(inst_path), "--oracle", "--oracle-limit", "-1"]
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parameter error: --oracle-limit must be at least 0, got -1" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--algo", "ffd", "--in", "{deep}"],
        ["verify", "--in", "{deep}", "--packing", "{deep}"],
        ["verify", "--in", "{instance}", "--packing", "{deep}"],
        ["generate", "--spec", "{deep}", "--out", "{out}"],
        ["bench", "--suite", "{deep}", "--out", "{out}"],
    ],
)
def test_deeply_nested_json_exits_2(bipartite_file, tmp_path, capsys, argv):
    # Too deep for the parser's recursion: a parameter error naming the file.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    paths = {"deep": deep, "instance": bipartite_file[1], "out": tmp_path / "out"}
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parameter error: {deep}: JSON nested too deeply to read\n"
    assert not (tmp_path / "out").exists()
