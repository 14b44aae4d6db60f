"""The forward-checking joint search of find_isometries against the
eq1-first loop it replaced (helpers.reference_joint_tuples: filter_eq2 and
helpers.reference_assemble for every eq1 row).

isometry._gram_search, run as find_isometries runs it (under
diag(N, G_K) with the problem's pair_targets, narrowing through
filter_eq2 when the eq1 column is first), yields the tuples of the first
half of its first column's shell and of its zero middle row; the tuples
of the other half are those negated.  No tuple holds a zero row unless
det B' != det B, which find_isometries relies on when it mirrors every
tuple it finds.  For every first column, with the other columns in size
order and in index order, the search must give the reference's set of
joint tuples, each once; in index order with the eq1 column first it
must also give them in the reference's order.  Cases: the example
problems, the benchmark generator's Wilson pullbacks, roadmap pullbacks
and Kneser 2-neighbours (perfbench/gen.py, imported read-only, first
problems of its reference seed), seeded rand_pullback_problem draws with
n = 1...5, and two targets whose eq1 shell is {0} (a middle row), one of
them with an empty eq3 shell.

Selection rule: Random(1801) draws two problems for each n = 1...5 and
no draw is dropped.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from helpers import WILSON, rand_pullback_problem, reference_joint_tuples, twisted_problem
from superlat import isometry
from superlat.forms import GramForm
from superlat.isometry import (
    IsometryProblem,
    _gram_search,
    _size_order,
    filter_eq2,
    find_isometries,
    solve_eq1,
    solve_eq3_per_z0,
)
from superlat.linalg import Mat, Vec
from superlat.problem_io import load_problem

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402


def _problem(gram, target, w) -> IsometryProblem:
    return IsometryProblem(GramForm(Mat(gram)), GramForm(Mat(target)), Vec(w))


def _cases():
    out = []
    for p in sorted((ROOT / "problems").glob("*.txt")):
        pf = load_problem(str(p))
        if pf.target is not None and pf.w is not None:
            out.append((p.name, lambda pf=pf: IsometryProblem(GramForm(pf.gram), GramForm(pf.target), pf.w)))
    for make in (lambda: gen.wilson(gen.REFERENCE_SEED, 7), lambda: gen.pullback(gen.REFERENCE_SEED, 5),
                 lambda: gen.neighbour(gen.REFERENCE_SEED, 10)):
        for q in make():
            out.append((q.name, lambda q=q: _problem(q.gram, q.target, q.w)))
    rng = random.Random(1801)
    for n in (1, 2, 3, 4, 5):
        for k in range(2):
            gram, target, w, _phi = rand_pullback_problem(rng, sizes=(n,))
            out.append((f"random-n{n}-{k}", lambda g=gram, t=target, w=w: IsometryProblem(GramForm(g), GramForm(t), w)))
    hyperbolic = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    out.append(("isotropic anchor", lambda: _problem(identity, hyperbolic, [1, 0, 0, 0])))
    diag = [[(-1) ** i * int(i == j) for j in range(4)] for i in range(4)]
    out.append(("empty eq3 shell", lambda: _problem(identity, diag, [1, 1, 0, 0])))
    return out


CASES = _cases()


def _shells(problem: IsometryProblem):
    return (solve_eq1(problem), *(solve_eq3_per_z0(problem, z0) for z0 in problem.probes))


def _negated(cols):
    return tuple(tuple(-x for x in row) for row in cols)


def _search(problem: IsometryProblem, shells, order):
    """The joint search of find_isometries in the given column order."""
    narrow = (lambda e1: filter_eq2(problem, e1, shells[1:])) if order[0] == 0 else None
    return _gram_search(problem._l0_gram, problem.pair_targets, shells, order, narrow)


def _all_tuples(problem: IsometryProblem, shells, order) -> list:
    """The search's tuples with those it leaves to the caller: the tuples of
    the rows before the middle, negated in reverse order."""
    blocks = list(_search(problem, shells, order))
    before_middle = [cols for block in blocks[: len(shells[order[0]]) // 2] for cols in block]
    return [cols for block in blocks for cols in block] + [_negated(cols) for cols in reversed(before_middle)]


@pytest.mark.parametrize("name,make", CASES, ids=[name for name, _ in CASES])
def test_every_first_column_and_order_gives_the_reference_tuples(name, make):
    problem = make()
    want = reference_joint_tuples(problem)
    assert len(set(want)) == len(want)
    # find_isometries mirrors every tuple it finds: none holds a zero row
    # when det B' = det B.
    assert problem.det_mismatch or all(any(row) for cols in want for row in cols)
    shells = _shells(problem)
    by_size = _size_order(shells)
    for first in range(len(shells)):
        for rest in (by_size, range(len(shells))):
            order = [first, *(c for c in rest if c != first)]
            got = _all_tuples(problem, shells, order)
            assert sorted(got) == sorted(want), order
            if order == sorted(order):
                assert got == want


def test_size_order_puts_the_fewest_rows_first_and_eq1_on_ties():
    assert _size_order(((1,) * 4, (1,) * 2, (1,) * 4, (1,) * 2)) == [1, 3, 0, 2]
    assert _size_order(((1,) * 2, (1,) * 2)) == [0, 1]


def test_empty_eq3_shell_gives_no_tuples():
    problem = dict(CASES)["empty eq3 shell"]()
    shells = _shells(problem)
    assert shells[0] == ((0, 0, 0, 0),) and shells[3] == ()
    assert list(_search(problem, shells, range(4))) == []
    result = find_isometries(problem)
    assert result.certificate.verdict == "NoIntegralIsometry"
    assert (result.stats.eq1_raw, result.stats.joint_raw, result.candidates) == (1, 0, [])


def _narrowings(monkeypatch, problem):
    """The stats of find_isometries on problem and its calls of
    filter_eq2 and _survivors."""
    shells = _shells(problem)
    assert [len(s) for s in shells] == [3456, 576, 576, 768]
    assert _size_order(shells)[0] == 1
    calls = {"filter_eq2": 0, "_survivors": 0}
    for name in calls:
        real = getattr(isometry, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(isometry, name, counted)
    return find_isometries(problem).stats, calls


def test_wilson_1111_narrows_half_of_the_smallest_shell(monkeypatch):
    # The eq1 shell has 3456 rows and the first probe's eq3 shell 576, so
    # --all places that probe first and narrows through one packed table;
    # the eq1-first loop made 1728 filter_eq2 calls.  The 24 permutations
    # that fix (1,1,1,1) join the probe shell's 288 +-pairs into 18
    # orbits, so 18 rows are narrowed (288 without the orbits,
    # test_plain_path_narrows_every_row_of_the_half).
    problem = IsometryProblem(GramForm(Mat.identity(4)), GramForm(WILSON), Vec([1, 1, 1, 1]))
    stats, calls = _narrowings(monkeypatch, problem)
    assert calls == {"filter_eq2": 0, "_survivors": 18}
    assert (stats.joint_raw, stats.integral) == (1152, 384)


def test_plain_path_narrows_every_row_of_the_half(monkeypatch):
    # In TWIST's coordinates no signed permutation but the identity fixes
    # B and the anchor, so each of the 288 rows is narrowed.
    stats, calls = _narrowings(monkeypatch, twisted_problem(WILSON, (1, 1, 1, 1)))
    assert calls == {"filter_eq2": 0, "_survivors": 288}
    assert (stats.joint_raw, stats.integral) == (1152, 384)
