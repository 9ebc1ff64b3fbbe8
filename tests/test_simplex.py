"""The fraction-free simplex against the rational reference it replaced.

``conftest.ref_solve_max_lp`` is the earlier Fraction tableau with the same
Bland pivots; every comparison here requires an identical ``LpResult`` (x,
objective, duals, basis, iterations) or an identical ``SolverError``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cbp import bpc, maxsize, recognize
from cbp.errors import SolverError
from cbp.harness import GeneratorSpec, SizeDist, generate
from cbp.maxsize import max_size
from cbp.model import classify_items
from cbp.rng import SplitMix64
from cbp.simplex import solve_max_lp

from conftest import ref_solve_max_lp
from test_acceptance import _maxsize_case

F = Fraction


def test_simple_box():
    res = solve_max_lp([F(1), F(1)], [[F(1), F(0)], [F(0), F(1)]], [F(1), F(2)])
    assert res.x == (F(1), F(2))
    assert res.objective == F(3)
    assert res.duals == (F(1), F(1))


def test_shared_resource():
    # max 3x + 2y, x + y <= 4, x <= 3, y <= 3
    res = solve_max_lp(
        [F(3), F(2)],
        [[F(1), F(1)], [F(1), F(0)], [F(0), F(1)]],
        [F(4), F(3), F(3)],
    )
    assert res.objective == F(11)
    assert res.x == (F(3), F(1))
    # dual feasibility and complementary slackness imply y = (2, 1, 0)
    assert res.duals == (F(2), F(1), F(0))


def test_fractional_vertex():
    # max x1 + x2 with 2x1 + x2 <= 2, x1 + 2x2 <= 2 -> vertex (2/3, 2/3)
    res = solve_max_lp([F(1), F(1)], [[F(2), F(1)], [F(1), F(2)]], [F(2), F(2)])
    assert res.x == (F(2, 3), F(2, 3))
    assert res.objective == F(4, 3)


def test_unbounded_detected():
    with pytest.raises(SolverError):
        solve_max_lp([F(1)], [[F(-1)]], [F(1)])


def test_negative_rhs_rejected():
    with pytest.raises(SolverError):
        solve_max_lp([F(1)], [[F(1)]], [F(-1)])


def test_degenerate_terminates():
    # Classic cycling-prone data; Bland's rule must still terminate.
    res = solve_max_lp(
        [F(10), F(-57), F(-9), F(-24)],
        [
            [F(1, 2), F(-11, 2), F(-5, 2), F(9)],
            [F(1, 2), F(-3, 2), F(-1, 2), F(1)],
            [F(1), F(0), F(0), F(0)],
        ],
        [F(0), F(0), F(1)],
    )
    assert res.objective == F(1)
    assert res.x[0] == F(1)


def test_basic_solution_structure():
    res = solve_max_lp([F(1), F(1)], [[F(1), F(1)]], [F(1)])
    # one row -> exactly one basic variable
    assert len(res.basis) == 1
    positive = [v for v in res.x if v > 0]
    assert len(positive) <= 1


@pytest.mark.parametrize(
    "objective, rows, rhs, message",
    [
        # A long row would lose its extra entry to the slack column.
        ([1], [[1, 5]], [2], "row 0 has 2 entries for 1 columns"),
        ([1, 1], [[1, 1], [1]], [1, 1], "row 1 has 1 entries for 2 columns"),
        ([1], [[1]], [1, 0], "rhs has 2 entries for 1 rows"),
        ([1], [[1], [1]], [1], "rhs has 1 entries for 2 rows"),
    ],
)
def test_malformed_shapes_rejected(objective, rows, rhs, message):
    with pytest.raises(SolverError, match=message):
        solve_max_lp(objective, rows, rhs)


def outcome(solve, objective, rows, rhs):
    try:
        result = solve(objective, rows, rhs)
    except SolverError as exc:
        return "SolverError", str(exc)
    assert all(type(v) is Fraction for v in (*result.x, result.objective, *result.duals))
    return result


def assert_same_as_reference(objective, rows, rhs):
    expected = outcome(ref_solve_max_lp, objective, rows, rhs)
    assert outcome(solve_max_lp, objective, rows, rhs) == expected
    return expected


ENTRY = st.one_of(
    st.just(0),
    st.integers(-4, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
RHS = st.one_of(st.just(0), st.integers(0, 6), st.fractions(min_value=0, max_value=5, max_denominator=12))


@pytest.mark.parametrize(
    "objective, rows, rhs",
    [
        ([F(1), 3], [[0, 0], [F(-1, 2), 1]], [F(2), 0]),  # zero row, degenerate, unbounded
        ([1, F(1, 3)], [[0, 0], [0, 0]], [0, F(5)]),  # zero rows only: unbounded
        ([F(-1), 0], [[F(1, 2), 1]], [F(3, 4)]),  # optimal at the start
        ([], [[], []], [1, 0]),  # no columns
    ],
)
def test_edge_cases_match_rational_reference(objective, rows, rhs):
    assert_same_as_reference(objective, rows, rhs)


@settings(max_examples=200)
@given(n=st.integers(0, 7), m=st.integers(0, 7), data=st.data())
def test_matches_rational_reference(n, m, data):
    objective = data.draw(st.lists(ENTRY, min_size=n, max_size=n))
    rows = []
    for _ in range(m):
        zero_row = data.draw(st.integers(0, 7)) == 0
        rows.append([0] * n if zero_row else data.draw(st.lists(ENTRY, min_size=n, max_size=n)))
    rhs = data.draw(st.lists(RHS, min_size=m, max_size=m))
    assert_same_as_reference(objective, rows, rhs)


def record_lps(monkeypatch, module):
    """Every (objective, rows, rhs) ``module`` passes to solve_max_lp."""
    calls = []

    def recording(objective, rows, rhs):
        calls.append(([*objective], [[*row] for row in rows], [*rhs]))
        return solve_max_lp(objective, rows, rhs)

    monkeypatch.setattr(module, "solve_max_lp", recording)
    return calls


def test_assignment_lps_of_abs_bpb_match_reference(monkeypatch):
    # abs_bpb stops at the bin lower bound, which its exact search meets
    # on these instances, so the assignment runs it would make come from
    # calling assign on both sides directly.
    calls = record_lps(monkeypatch, bpc)
    sizes = SizeDist(kind="discrete", values=("1/20000", "1/10000") * 2 + ("2/5", "9/20", "1/2"))
    rng = SplitMix64(20261018)
    for k in range(6):
        density = 0.2 + 0.2 * rng.unit()
        spec = GeneratorSpec(klass="bipartite", n=12 + 2 * (k % 3), density=density, size_dist=sizes, seed=rng.next_u64())
        inst = generate(spec)
        info = recognize(inst)
        tiny = classify_items(inst, eps=bpc.AssignConfig().eps).tiny
        for side in info.bipartition:
            bpc.assign(inst, sorted(side & tiny), info)
    pivots = 0
    for objective, rows, rhs in calls:
        pivots += assert_same_as_reference(objective, rows, rhs).iterations
    assert len(calls) >= 50 and pivots >= 100


def test_config_lps_of_max_size_match_reference(monkeypatch):
    calls = record_lps(monkeypatch, maxsize)
    for k in range(100):
        inst, start = _maxsize_case(20260806 + k)
        max_size(inst, start, recognize(inst), strategy="config-lp")
    nonzero_duals = 0
    for objective, rows, rhs in calls:
        # Column generation prices with these duals: they must be exact.
        nonzero_duals += sum(1 for y in assert_same_as_reference(objective, rows, rhs).duals if y)
    assert len(calls) >= 100 and nonzero_duals >= 100
