"""solve_eq1 and solve_eq3_per_z0 each enumerate one norm shell of
L0 = Zw + K, whose Gram matrix is diag(N, G_K).  They must return the
rows of the per-s and per-t loops over norm equations in K that they
replaced (kept in helpers.py): the same L0 rows in the same order."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from helpers import (
    WILSON,
    rand_pullback_problem,
    reference_solve_eq1,
    reference_solve_eq3,
)
from superlat import cli, diophantine, isometry
from superlat.cli import main
from superlat.errors import NotPositiveDefinite
from superlat.forms import GramForm
from superlat.isometry import (
    IsometryProblem,
    find_isometries,
    solve_eq1,
    solve_eq3_per_z0,
    verify_certificate,
)
from superlat.linalg import Mat, Vec
from superlat.problem_io import load_problem
from test_integer_candidates import _kneser_neighbour

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _assert_matches_reference(problem: IsometryProblem) -> int:
    """Check every equation against its reference; return the number of
    solutions seen."""
    e1s = solve_eq1(problem)
    assert e1s == reference_solve_eq1(problem)
    total = len(e1s)
    for z0 in problem.probes:
        sols = solve_eq3_per_z0(problem, z0)
        assert sols == reference_solve_eq3(problem, z0)
        total += len(sols)
    return total


@pytest.mark.parametrize(
    "filename",
    sorted(p.name for p in PROBLEMS.glob("*.txt") if load_problem(str(p)).target is not None),
)
def test_example_problems(filename):
    pf = load_problem(str(PROBLEMS / filename))
    _assert_matches_reference(IsometryProblem(GramForm(pf.gram), GramForm(pf.target), pf.w))


def test_wilson_at_anchor_1111():
    problem = IsometryProblem(GramForm(Mat.identity(4)), GramForm(WILSON), Vec([1, 1, 1, 1]))
    assert _assert_matches_reference(problem) == 3456 + 576 + 576 + 768


def test_seeded_random_pullbacks():
    # The per-t reference loops take seconds on an n = 5 shell of a few
    # thousand vectors; this seed's draws (anchor norms 1 and 2) keep them
    # to about 3 s.
    rng = random.Random(33)
    total = 0
    for n in (2, 3, 4, 5, 5):
        gram, target, w, _phi = rand_pullback_problem(rng, sizes=(n,))
        total += _assert_matches_reference(IsometryProblem(GramForm(gram), GramForm(target), w))
    assert total > 0


def test_seeded_random_kneser_neighbours():
    rng = random.Random(37)
    total = 0
    for n in (2, 2, 3, 3, 4, 4, 5, 5):
        gram, target = _kneser_neighbour(rng, n)
        k = min(range(n), key=lambda i: (gram.rows[i][i], i))
        problem = IsometryProblem(GramForm(gram), GramForm(target), Vec.unit(n, k))
        total += _assert_matches_reference(problem)
    assert total > 0


def test_one_enumeration_per_equation(monkeypatch):
    calls = []
    real = isometry.vectors_of_norm
    monkeypatch.setattr(isometry, "vectors_of_norm", lambda *a: calls.append(a) or real(*a))
    problem = IsometryProblem(GramForm(Mat.identity(4)), GramForm(WILSON), Vec([1, 0, 0, 0]))
    solve_eq1(problem)
    assert len(calls) == 1
    for z0 in problem.probes:
        solve_eq3_per_z0(problem, z0)
    assert len(calls) == 1 + len(problem.probes)


@pytest.mark.parametrize("flags", [[], ["--all"]])
def test_a_search_factors_one_form(monkeypatch, capsys, flags):
    # l0_form is the only positivity check: no LDL^T of B is built.
    grams = []
    real = diophantine.PosDefForm.__init__

    def counting(self, gram):
        grams.append(gram)
        real(self, gram)

    monkeypatch.setattr(diophantine.PosDefForm, "__init__", counting)
    assert main(["factorize", str(PROBLEMS / "wilson.txt"), *flags]) == 0
    assert grams == [((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    capsys.readouterr()


@pytest.mark.parametrize("flags", [[], ["--all"]])
def test_factorize_builds_no_mat_after_parsing(monkeypatch, capsys, flags):
    # B and B' are read once by gram_rows; l0_form takes integer rows.
    built = []
    parse = cli.load_problem

    def load_then_watch(path):
        pf = parse(path)

        def watch(new):
            def record(*args, **kwargs):
                built.append(args)
                return new(*args, **kwargs)
            return record

        monkeypatch.setattr(Mat, "__init__", watch(Mat.__init__))
        monkeypatch.setattr(Mat, "_of_rows", classmethod(watch(Mat._of_rows.__func__)))
        return pf

    monkeypatch.setattr(cli, "load_problem", load_then_watch)
    assert main(["factorize", str(PROBLEMS / "wilson.txt"), *flags]) == 0
    monkeypatch.undo()
    assert capsys.readouterr().out.startswith("eq1 solutions: 48 raw")
    assert built == []


def test_negative_target_has_no_solutions():
    # B'(w, w) < 0 and B'(zhat, zhat) < 0: every shell target is negative.
    problem = IsometryProblem(
        GramForm(Mat.identity(2)), GramForm(Mat.diagonal([-1, -1])), Vec([1, 0])
    )
    assert problem.eq1_target < 0
    assert solve_eq1(problem) == () == reference_solve_eq1(problem)
    assert solve_eq3_per_z0(problem, problem.probes[0]) == ()
    result = find_isometries(problem)
    assert result.certificate.verdict == "ObstructionEq1"
    assert verify_certificate(result.certificate, problem)


@pytest.mark.parametrize(
    "source, bprime, w",
    [
        pytest.param("1 0\n0 -1", "1 0\n0 -1", "1 0", id="1 0\n0 -1"),
        # This target also makes the eq1 target negative: definiteness is
        # still checked first.
        pytest.param("1 0\n0 -1", "-1 0\n0 1", "1 0", id="-1 0\n0 1"),
        # Rank 1: diag(N) alone, with no kernel, must catch B = -2.
        pytest.param("-2", "-2", "1", id="rank1"),
        # Not diagonal: N = 2 > 0 but G_K = (-10), so only the LDL^T of
        # diag(N, G_K) sees that B is indefinite.
        pytest.param("2 3\n3 2", "2 3\n3 2", "1 0", id="non-diagonal"),
    ],
)
def test_indefinite_source_is_unsupported(tmp_path, capsys, source, bprime, w):
    # diag(N, G_K) is B in the basis (w, kernel basis), so its LDL^T is
    # the one positivity check of the search.
    n = len(w.split())
    text = f"n {n}\nB\n{source}\nBprime\n{bprime}\nw {w}\n"
    path = tmp_path / "indef.txt"
    path.write_text(text)
    for flags in ([], ["--all"]):
        assert main(["factorize", str(path), *flags]) == 4
        captured = capsys.readouterr()
        assert captured.err == "unsupported: search requires positive definite B\n"
        assert captured.out == ""
    pf = load_problem(str(path))
    problem = IsometryProblem(GramForm(pf.gram), GramForm(pf.target), pf.w)
    with pytest.raises(NotPositiveDefinite, match="^search requires positive definite B$"):
        solve_eq1(problem)
    for z0 in problem.probes:
        with pytest.raises(NotPositiveDefinite, match="^search requires positive definite B$"):
            solve_eq3_per_z0(problem, z0)
