"""Solutions and candidates kept as integers agree with the Fraction objects
they replaced.

For every candidate of the example problems and of 12 seeded random
problems with n = 3, 4, 5 (6 pullbacks and 6 Kneser 2-neighbours;
non-integral candidates included):
the entry texts are str(Fraction(x, den)), .matrix is the rational
reference reconstruction of test_integer_paths, .integral is
matrix.is_integral(), and every eq1 and eq3 solution is an L0 row of ints
(u, kernel coordinates) whose ambient vector u w + k (helpers._ambient)
has the norm of its shell.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from helpers import _ambient, rand_pullback_problem
from superlat import isometry
from superlat.forms import GramForm
from superlat.isometry import (
    CandidateIsometry,
    IsometryProblem,
    find_isometries,
)
from superlat.linalg import Mat, Vec, hermite_row_reduce
from superlat.problem_io import load_problem, scalar_str
from test_integer_paths import _inverses, _reference_reconstruct

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _check_solutions(problem, e1s, per_probe):
    targets = [problem.pair_targets[i][i] for i in range(len(per_probe) + 1)]
    for target, rows in zip(targets, [e1s, *per_probe]):
        for row in rows:
            assert all(type(x) is int for x in row)
            v = Vec(_ambient(problem, row))
            assert problem.source.norm(v) == target


def _reference(problem: IsometryProblem, inverses, cand: CandidateIsometry) -> Mat:
    """The rational reference reconstruction of cand from its provenance
    (s, btilde, atilde, c_i), with t_i = B(atilde, z0_i)."""
    s, btilde, atilde, cs = cand.provenance
    a = Vec(atilde)
    tcs = [(int(problem.source.evaluate(a, z0)), Vec(c)) for z0, c in zip(problem.probes, cs)]
    m, ref_atilde = _reference_reconstruct(problem, inverses, s, Vec(btilde), tcs)
    assert ref_atilde == atilde
    return m


def _check_problem(problem: IsometryProblem, monkeypatch) -> tuple[int, int]:
    """Run the search once, recording its eq1 and eq3 solutions, and check
    them and every candidate against the Fraction objects; return
    (candidates, non-integral candidates)."""
    seen = []
    for name in ("solve_eq1", "solve_eq3_per_z0"):
        real = getattr(isometry, name)
        monkeypatch.setattr(isometry, name, lambda *a, real=real: seen.append(real(*a)) or seen[-1])
    candidates = find_isometries(problem).candidates
    monkeypatch.undo()
    _check_solutions(problem, seen[0], seen[1:])
    inverses = _inverses(problem)
    for cand in candidates:
        m = _reference(problem, inverses, cand)
        den = cand.den
        assert den > 0 and gcd(den, *itertools.chain.from_iterable(cand.num)) == 1
        assert cand.entry_strings == tuple(
            tuple(str(Fraction(x, den)) for x in row) for row in cand.num
        )
        assert cand.entry_strings == tuple(tuple(str(x) for x in row) for row in m.rows)
        assert cand.matrix == m
        assert cand.integral == m.is_integral()
    return len(candidates), sum(not c.integral for c in candidates)


@pytest.mark.parametrize(
    "filename",
    sorted(p.name for p in PROBLEMS.glob("*.txt") if load_problem(str(p)).target is not None),
)
def test_example_problems(filename, monkeypatch):
    pf = load_problem(str(PROBLEMS / filename))
    _check_problem(IsometryProblem(GramForm(pf.gram), GramForm(pf.target), pf.w), monkeypatch)


def test_seeded_random_pullbacks(monkeypatch):
    rng = random.Random(23)
    total = rational = 0
    for n in (3, 3, 4, 4, 5, 5):
        gram, target, w, _phi = rand_pullback_problem(rng, sizes=(n,))
        got = _check_problem(IsometryProblem(GramForm(gram), GramForm(target), w), monkeypatch)
        total, rational = total + got[0], rational + got[1]
    assert total > 0 and rational > 0


def _roadmap_form(rng: random.Random, n: int) -> Mat:
    """A^T A + I with the entries of A drawn from {-1, 0, 1}."""
    a = Mat([[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)])
    return a.transpose() @ a + Mat.identity(n)


def _kneser_neighbour(rng: random.Random, n: int) -> tuple[Mat, Mat]:
    """(B, B') with B' the Gram matrix of the 2-neighbour L_v + Z v/2 of
    L = Z^n under B, where L_v = {x in L : B(x, v) even}, for the first v
    in a seeded order of {-1, 0, 1, 2}^n with B(v, v) = 0 mod 4 and
    Bv != 0 mod 2.  Like rand_pullback_problem, it redraws B until some
    diagonal entry is at most 2, since search cost grows steeply with the
    norm of the anchor."""
    while True:
        gram = _roadmap_form(rng, n)
        if min(gram.rows[i][i] for i in range(n)) > 2:
            continue
        g = [[int(x) for x in row] for row in gram.rows]
        vs = list(itertools.product((-1, 0, 1, 2), repeat=n))
        rng.shuffle(vs)
        for v in vs:
            bv = [sum(a * b for a, b in zip(row, v)) for row in g]
            if sum(a * b for a, b in zip(v, bv)) % 4 == 0 and any(x % 2 for x in bv):
                break
        else:
            continue
        k = next(i for i in range(n) if bv[i] % 2)
        # Generators of 2 L_v (2 e_i + 2 (Bv)_i e_k for i != k, and 4 e_k)
        # and v span twice the neighbour.
        gens = [
            tuple(4 * (j == k) if i == k else 2 * (j == i) + 2 * (bv[i] % 2) * (j == k) for j in range(n))
            for i in range(n)
        ]
        basis = Mat(hermite_row_reduce(gens + [v]))
        return gram, Fraction(1, 4) * (basis @ gram @ basis.transpose())


def test_seeded_random_kneser_neighbours(monkeypatch):
    rng = random.Random(29)
    total = rational = 0
    for n in (3, 3, 4, 4, 5, 5):
        gram, target = _kneser_neighbour(rng, n)
        assert target.is_integral() and target.determinant() == gram.determinant()
        k = min(range(n), key=lambda i: (gram.rows[i][i], i))
        problem = IsometryProblem(GramForm(gram), GramForm(target), Vec.unit(n, k))
        got = _check_problem(problem, monkeypatch)
        total, rational = total + got[0], rational + got[1]
    assert total > 0 and rational > 0


def test_candidate_from_matrix():
    # Integer rows over a denominator are kept in lowest terms; atilde is
    # held as numerators over dp.
    m = Mat([[Fraction(1, 2), Fraction(-3, 4)], [0, 2]])
    prov = (1, 2, 0, 1, 0, 0, 1)
    cand = CandidateIsometry([[4, -6], [0, 16]], 8, prov, 2)
    assert (cand.num, cand.den, cand.integral) == (((2, -3), (0, 8)), 4, False)
    assert cand.matrix == m
    assert cand.entry_strings == (("1/2", "-3/4"), ("0", "2"))
    assert cand == CandidateIsometry(((2, -3), (0, 8)), 4, prov, 2)
    assert cand.provenance == (1, (2, 0), (Fraction(1, 2), 0), ((0, 1),))
    for copied in (pickle.loads(pickle.dumps(cand)), copy.deepcopy(cand)):
        assert copied == cand and copied.entry_strings == cand.entry_strings
        assert copied.provenance == cand.provenance
    assert CandidateIsometry([[2, 0], [0, 2]], 2).integral
    assert CandidateIsometry([[2, -3], [0, 8]], 4).provenance == ()


@pytest.mark.parametrize(
    "x", [0, -7, 2**70, True, False, Fraction(-3, 6), Fraction(5), 0.5, -2.0, "3/6", " 4 "]
)
def test_scalar_str_prints_what_fraction_prints(x):
    assert scalar_str(x) == str(Fraction(x))
