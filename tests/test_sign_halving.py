"""find_isometries searches one member of each +-pair of eq1 solutions and
derives the other.  Its candidates (num, den, provenance, order), stats and
certificate must equal those of the per-eq1 loop it replaced
(helpers.reference_find_isometries), in both search modes."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from helpers import WILSON, negated_candidate, rand_pullback_problem, reference_find_isometries, reference_joint_tuples
from superlat import isometry
from superlat.forms import GramForm
from superlat.isometry import (
    IsometryProblem,
    _orbit_images,
    find_isometries,
    reconstruct,
    solve_eq1,
    solve_eq3_per_z0,
)
from superlat.linalg import Mat, Vec
from superlat.problem_io import load_problem
from test_integer_candidates import _kneser_neighbour

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _assert_matches_reference(problem: IsometryProblem) -> None:
    for all_solutions in (True, False):
        got = find_isometries(problem, all_solutions=all_solutions)
        want = reference_find_isometries(problem, all_solutions=all_solutions)
        assert got.stats == want.stats
        assert got.certificate == want.certificate
        assert [(c.num, c.den, c.provenance) for c in got.candidates] == [
            (c.num, c.den, c.provenance) for c in want.candidates
        ]


def _negated(row: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in row)


def _assert_mirrored(rows) -> None:
    last = len(rows) - 1
    assert all(rows[last - j] == _negated(rows[j]) for j in range(len(rows)))


@pytest.mark.parametrize(
    "filename",
    sorted(p.name for p in PROBLEMS.glob("*.txt") if load_problem(str(p)).target is not None),
)
def test_example_problems(filename):
    pf = load_problem(str(PROBLEMS / filename))
    _assert_matches_reference(IsometryProblem(GramForm(pf.gram), GramForm(pf.target), pf.w))


def test_wilson_at_anchor_1111():
    problem = IsometryProblem(GramForm(Mat.identity(4)), GramForm(WILSON), Vec([1, 1, 1, 1]))
    _assert_matches_reference(problem)


def test_seeded_random_pullbacks():
    rng = random.Random(41)
    for n in (2, 3, 4, 5):
        gram, target, w, _phi = rand_pullback_problem(rng, sizes=(n,))
        _assert_matches_reference(IsometryProblem(GramForm(gram), GramForm(target), w))


def test_seeded_random_kneser_neighbours():
    rng = random.Random(43)
    for n in (2, 3, 4, 5):
        gram, target = _kneser_neighbour(rng, n)
        k = min(range(n), key=lambda i: (gram.rows[i][i], i))
        _assert_matches_reference(IsometryProblem(GramForm(gram), GramForm(target), Vec.unit(n, k)))


def test_user_probes_with_dual_rejections():
    # (w | z0_1 z0_2) has determinant 6, so P^-1 is not integral (db = 6)
    # and the dual-lattice test of reconstruct rejects 24 of 96 tuples.
    problem = IsometryProblem(
        GramForm(Mat([[6, -1, 2], [-1, 2, 2], [2, 2, 4]])),
        GramForm(Mat([[6, -1, -5], [-1, 6, 4], [-5, 4, 6]])),
        Vec([0, 1, 0]),
        probes=[Vec([1, 2, -2]), Vec([2, 0, 2])],
    )
    assert problem._recon_tables.db == 6
    stats = find_isometries(problem).stats
    assert (stats.joint_raw, stats.candidates, stats.integral) == (96, 72, 48)
    _assert_matches_reference(problem)


def test_isotropic_target_anchor_gives_odd_eq1_list():
    # B' = H + H is indefinite with B'(w, w) = 0: eq1 asks for the vectors
    # of norm 0, so its list is [0], its own partner.
    hyperbolic = Mat([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    problem = IsometryProblem(GramForm(Mat.identity(4)), GramForm(hyperbolic), Vec.unit(4, 0))
    e1s = solve_eq1(problem)
    assert len(e1s) == 1 and e1s[0] == _negated(e1s[0])
    result = find_isometries(problem)
    assert (result.stats.eq1_raw, result.stats.eq1_canonical) == (1, 1)
    assert result.certificate.verdict == "NoIntegralIsometry"
    _assert_matches_reference(problem)


def test_solution_lists_are_mirrored():
    problem = IsometryProblem(GramForm(Mat.identity(4)), GramForm(WILSON), Vec([1, 1, 1, 1]))
    _assert_mirrored(solve_eq1(problem))
    for z0 in problem.probes:
        _assert_mirrored(solve_eq3_per_z0(problem, z0))
    result = find_isometries(problem)
    assert set(map(negated_candidate, result.candidates)) == set(result.candidates)


def test_half_of_the_pairs_are_filtered_and_reconstructed(monkeypatch):
    # The 48 signed permutations of I_4 that fix e_1 join the eq1 shell's
    # 24 +-pairs into 3 orbits, and each orbit's other tuples are images
    # of its first: 3 filter_eq2 and 24 reconstruct calls, 24 and 192
    # without the orbits (test_bench_hooks.test_plain_path_counts).
    problem = IsometryProblem(GramForm(Mat.identity(4)), GramForm(WILSON), Vec.unit(4, 0))
    calls = {"filter_eq2": 0, "reconstruct": 0}
    for name in calls:
        real = getattr(isometry, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(isometry, name, counted)
    stats = find_isometries(problem).stats
    assert (stats.eq1_raw, stats.joint_raw) == (48, 384)
    assert calls == {"filter_eq2": 3, "reconstruct": 24}


def _quaternary_pair() -> IsometryProblem:
    pf = load_problem(str(PROBLEMS / "quaternary_pair.txt"))
    return IsometryProblem(GramForm(pf.gram), GramForm(pf.target), pf.w)


@pytest.mark.parametrize(
    "make",
    [lambda: IsometryProblem(GramForm(Mat.identity(4)), GramForm(WILSON), Vec([1, 1, 1, 1])), _quaternary_pair],
    ids=["wilson at (1,1,1,1)", "quaternary_pair"],
)
def test_negation_is_the_reconstructed_negated_tuple(make):
    # -c is _orbit_images under -1 (rows and texts from the problem's
    # memo); it must be what reconstruct builds from the negated tuple,
    # down to the entry texts and the hash, and negate back to c.
    problem = make()
    assert problem.wnorm > 1 and problem._recon_tables.den > 1
    minus = [(tuple(range(problem.dim)), (-1,) * problem.dim, -1)]
    twins = reduced = 0
    for e1, *picks in reference_joint_tuples(problem):
        cand = reconstruct(problem, e1, tuple(picks))
        if cand is None:
            continue
        want = reconstruct(problem, _negated(e1), tuple(map(_negated, picks)))
        (twin,) = _orbit_images(problem, [cand], minus)
        fields = ("num", "den", "_prov", "_dp", "entry_strings")
        assert [getattr(twin, f) for f in fields] == [getattr(want, f) for f in fields]
        assert (twin, hash(twin)) == (want, hash(want))
        (back,) = _orbit_images(problem, [twin], minus)
        assert back == cand and back.entry_strings == cand.entry_strings
        twins += 1
        reduced += 1 < cand.den < problem._recon_tables.den
    assert twins and reduced
