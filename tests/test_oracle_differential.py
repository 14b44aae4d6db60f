"""The pipeline against the brute-force oracle on seeded random problems.

For each problem the integral candidates of find_isometries(--all) must be
exactly the matrices brute_force_isometries finds, and the verdict must be
IsometricWitness iff that set is not empty.

Selection rule: the first 16 Kneser 2-neighbours (B, B') that
test_integer_candidates._kneser_neighbour draws from Random(71), five
with n = 3, six with n = 4 and five with n = 5, each anchored at the
first basis vector of smallest B-norm.  The generator redraws B only on
its own criteria (some diagonal entry at most 2, a vector v that defines
a neighbour), which read neither the pipeline nor the oracle, and no
drawn problem is dropped.  A neighbour may or may not be isometric to B,
so the draw holds negative verdicts as well as positive ones; the test
requires both.
"""

from __future__ import annotations

import random

from superlat.forms import GramForm
from superlat.isometry import IsometryProblem, brute_force_isometries, find_isometries
from superlat.linalg import Vec
from test_integer_candidates import _kneser_neighbour


def test_kneser_neighbours_match_the_oracle():
    rng = random.Random(71)
    verdicts = []
    for n in (3,) * 5 + (4,) * 6 + (5,) * 5:
        gram, target = _kneser_neighbour(rng, n)
        w = Vec.unit(n, min(range(n), key=lambda i: (gram.rows[i][i], i)))
        result = find_isometries(IsometryProblem(GramForm(gram), GramForm(target), w))
        found = {c.matrix for c in result.candidates if c.integral}
        oracle = set(brute_force_isometries(GramForm(gram), GramForm(target)))
        assert found == oracle
        verdict = result.certificate.verdict
        assert verdict == ("IsometricWitness" if oracle else "NoIntegralIsometry")
        verdicts.append(verdict)
    assert {"IsometricWitness", "NoIntegralIsometry"} <= set(verdicts)
