"""The integral isometries from B to B' form a torsor under O(B).

When some integral M0 with M0^T B M0 = B' exists, every integral isometry
is U M0 for exactly one U in O(B) = {U : U^T B U = B}, so `--all` must
report exactly |O(B)| integral candidates: 384 for Wilson's matrix, whose
B is I_4.  O(B) is counted by the brute-force oracle on (B, B).

Selection rule: a problem is checked iff the oracle finds an integral
isometry from B to B'.  That rule reads the oracle only, never the
pipeline, so a problem on which the pipeline is wrong is still checked.
The problems are every file in problems/ with a target, Wilson's matrix at
the anchor (1,1,1,1), and seeded n <= 4 pullbacks and Kneser 2-neighbours.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from helpers import WILSON, rand_pullback_problem
from superlat.forms import GramForm
from superlat.isometry import IsometryProblem, brute_force_isometries, find_isometries
from superlat.linalg import Mat, Vec
from superlat.problem_io import load_problem
from test_integer_candidates import _kneser_neighbour

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _file_problems():
    out = []
    for path in sorted(PROBLEMS.glob("*.txt")):
        pf = load_problem(str(path))
        if pf.target is not None:
            out.append((path.name, pf.gram, pf.target, pf.w))
    out.append(("wilson.txt at (1,1,1,1)", Mat.identity(4), WILSON, Vec([1, 1, 1, 1])))
    return out


def _pullbacks():
    rng = random.Random(61)
    out = []
    for k, n in enumerate((2, 2, 3, 3, 3, 4, 4, 4)):
        gram, target, w, _phi = rand_pullback_problem(rng, sizes=(n,))
        out.append((f"pullback {k} (n={n})", gram, target, w))
    return out


def _neighbours():
    rng = random.Random(67)
    out = []
    for k, n in enumerate((2, 2, 3, 3, 3, 3, 4, 4, 4, 4)):
        gram, target = _kneser_neighbour(rng, n)
        w = Vec.unit(n, min(range(n), key=lambda i: (gram.rows[i][i], i)))
        out.append((f"neighbour {k} (n={n})", gram, target, w))
    return out


CASES = _file_problems() + _pullbacks() + _neighbours()


def _selected():
    return [
        (name, gram, target, w)
        for name, gram, target, w in CASES
        if brute_force_isometries(GramForm(gram), GramForm(target))
    ]


SELECTED = _selected()


def test_selection_covers_every_source():
    names = [name for name, *_ in SELECTED]
    assert "wilson.txt" in names and "wilson.txt at (1,1,1,1)" in names
    assert sum(name.startswith("pullback") for name in names) == len(_pullbacks())
    assert any(name.startswith("neighbour") for name in names)


@pytest.mark.parametrize("case", SELECTED, ids=[name for name, *_ in SELECTED])
def test_integral_count_is_the_order_of_the_automorphism_group(case):
    _name, gram, target, w = case
    source = GramForm(gram)
    automorphisms = brute_force_isometries(source, source)
    result = find_isometries(IsometryProblem(source, GramForm(target), w))
    integral = [c for c in result.candidates if c.integral]
    assert result.certificate.verdict == "IsometricWitness"
    assert result.stats.integral == len(integral) == len(automorphisms)
    assert len(automorphisms) == len(brute_force_isometries(source, GramForm(target)))
    assert len({c.num for c in integral}) == len(integral)


def test_wilson_count_is_384():
    pf = load_problem(str(PROBLEMS / "wilson.txt"))
    assert len(brute_force_isometries(GramForm(pf.gram), GramForm(pf.gram))) == 384
