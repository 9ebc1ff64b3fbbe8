"""Every number a caller passes is read by ``model.as_size``.

Sizes, weights, budgets and error parameters accept the same spellings
(a Fraction, an int, a float meaning its shortest decimal, a "p/q" or
decimal string) and reject the same values with ``ParameterError``.
"""

import io
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from cbp import (
    BisProblem,
    ConflictInstance,
    ParameterError,
    approx_bpc,
    bis_fptas_split,
    bis_ptas,
    classify_items,
    knapsack_fptas,
    max_size,
    max_solve,
    recognize,
    split_approx,
)
from cbp.cli import main
from cbp.harness import write_instance
from cbp.packing_classic import asymptotic_bp, ffd

from conftest import make_packing, seeded_instance

QUARTER = (Fraction(1, 4), 0.25, "1/4", "0.25")
TWENTIETH = (Fraction(1, 20), 0.05, "1/20", "0.05")
BAD = (True, None, math.nan, math.inf, "abc", [1])

# Vertex 0 is free; 1 and 2 conflict. With weights 1/4, 1/2, 1/3 and
# budget 3/4 the best set is {0, 1}; the graph is split and bipartite.
PATH = ConflictInstance({0: "1/4", 1: "1/2", 2: "1/3"}, edges=[(1, 2)])
SPLIT = seeded_instance("split", 10, 4242)


def _problem(weights, budget):
    return BisProblem(PATH.items, PATH.adjacency, weights, budget, recognize(PATH))


def _cli_eps(eps):
    # ``cbp solve --eps``: the packing JSON, or the ParameterError that the
    # command's single stderr line reports with exit code 2.
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "split.json"
        write_instance(SPLIT, path)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["solve", "--algo", "split_approx", "--in", str(path), f"--eps={eps}"])
    if code == 2:
        [line] = err.getvalue().splitlines()
        assert out.getvalue() == ""
        assert line == f"parameter error: eps must be a number in (0, 1), got {str(eps)!r}"
        raise ParameterError(line)
    assert code == 0 and err.getvalue() == ""
    return out.getvalue()


# Each entry reads one number ``x`` and returns what the call gives.
ENTRIES = {
    "ConflictInstance sizes": lambda x: ConflictInstance({0: x, 1: "1/2"}).sizes,
    "ffd": lambda x: ffd([0, 1, 2], {0: x, 1: "3/4", 2: "1/2"}),
    "asymptotic_bp": lambda x: asymptotic_bp([0, 1, 2], {0: x, 1: "3/4", 2: "1/2"}),
    "knapsack_fptas sizes": lambda x: knapsack_fptas([0, 1, 2], {0: x, 1: "1/2", 2: "1/3"}, "3/4", "1/10"),
    "knapsack_fptas budget": lambda x: knapsack_fptas([0, 1, 2], {0: "1/8", 1: "1/10", 2: "1/5"}, x, "1/10"),
    "knapsack_fptas eps": lambda x: knapsack_fptas([0, 1, 2], {0: "0.123456789", 1: "0.5", 2: "0.3"}, "4/5", x),
    "bis_ptas weights": lambda x: bis_ptas(_problem({0: x, 1: "1/2", 2: "1/3"}, "3/4"), "1/4"),
    "bis_ptas budget": lambda x: bis_ptas(_problem({0: "1/8", 1: "1/10", 2: "1/5"}, x), "1/4"),
    "bis_ptas eps": lambda x: bis_ptas(_problem(PATH.sizes, "3/4"), x),
    "bis_fptas_split weights": lambda x: bis_fptas_split(_problem({0: x, 1: "1/2", 2: "1/3"}, "3/4"), "1/4"),
    "bis_fptas_split budget": lambda x: bis_fptas_split(_problem({0: "1/8", 1: "1/10", 2: "1/5"}, x), "1/4"),
    "bis_fptas_split eps": lambda x: bis_fptas_split(_problem(PATH.sizes, "3/4"), x),
    "max_size eps": lambda x: max_size(SPLIT, make_packing([]), recognize(SPLIT), eps=x),
    "max_solve eps": lambda x: max_solve(SPLIT, eps=x),
    "approx_bpc eps": lambda x: approx_bpc(SPLIT, eps=x),
    "split_approx eps": lambda x: split_approx(SPLIT, eps=x),
    "classify_items eps": lambda x: classify_items(SPLIT, x),
    "cbp solve --eps": _cli_eps,
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_number_is_read_like_a_size(entry):
    read = ENTRIES[entry]
    # classify_items takes eps in (0, 0.1), and reads None as no eps.
    spellings, bad = (TWENTIETH, BAD[:1] + BAD[2:]) if entry.startswith("classify") else (QUARTER, BAD)
    want = read(spellings[0])
    for value in spellings[1:]:
        assert read(value) == want, value
    for value in bad:
        with pytest.raises(ParameterError):
            read(value)


def test_float_knapsack_sizes_mean_their_decimals():
    # 0.1 + 0.2 fits 0.3 as decimals, though not as binary doubles.
    assert knapsack_fptas([0, 1], {0: 0.1, 1: 0.2}, 0.3, Fraction(1, 10)) == {0, 1}
