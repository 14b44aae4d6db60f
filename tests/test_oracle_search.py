"""The forward-checking brute-force oracle against the column search it
replaced (helpers.reference_brute_force_isometries).

brute_force_isometries must return the reference's list, matrix for
matrix and in the same order, with Fraction entries, at bound None and
bound 1, on the example problems, I_4 against itself, seeded
rand_pullback_problem draws with n = 1...4, the benchmark generator's
pullbacks and Kneser 2-neighbours (perfbench/gen.py, imported read-only)
with n = 3, 4 and 5, a degenerate target whose first column shell is {0}
(the odd middle entry of the +-halving) and targets with an empty shell.
On the cases with n <= 3 the Cartesian search
(helpers.cartesian_brute_force_isometries) must find the same set.  Both
references share no code with src/, while brute_force_isometries runs
the engine of find_isometries (isometry._gram_search) in another column
order and sorts its result back.

At n = 6, on the first five generator pullbacks, the oracle must return
the reference's list where the reference finishes in tier-1 time; on
the others each matrix must pull B' back, and the list must be sorted,
closed under negation and as long as the column-order oracle's.

Selection rule: Random(1501) draws three problems for each n = 1...4 and
no draw is dropped; the generator sets are the first problems of its
reference seed, as the benchmark draws them.  Of the n = 6 pullbacks, #2
and #4 are not compared with the reference because it takes about 200 s
and 5-6 s on them (against about 0.8 s, 0.1 s and 1.5 s on #0, #1 and
#3); the column-order oracle found 2 matrices on each.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import cartesian_brute_force_isometries, rand_pullback_problem, reference_brute_force_isometries
from superlat import isometry
from superlat.errors import NonIntegralForm
from superlat.forms import GramForm
from superlat.isometry import brute_force_isometries
from superlat.linalg import Mat
from superlat.problem_io import load_problem

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402


def _cases():
    out = []
    for path in sorted((ROOT / "problems").glob("*.txt")):
        pf = load_problem(str(path))
        if pf.target is not None:
            out.append((path.name, pf.gram, pf.target))
    out.append(("I4 against itself", Mat.identity(4), Mat.identity(4)))
    rng = random.Random(1501)
    for n in (1, 2, 3, 4):
        for k in range(3):
            gram, target, _, _ = rand_pullback_problem(rng, sizes=(n,))
            out.append((f"rand_pullback n={n} #{k}", gram, target))
    generated = (
        gen.pullback(gen.REFERENCE_SEED, 5)
        + gen.neighbour(gen.REFERENCE_SEED, 10)
        + gen.neighbour(gen.REFERENCE_SEED, 5, 3)
        + gen.pullback(gen.REFERENCE_SEED, 5, 5)
        + gen.neighbour(gen.REFERENCE_SEED, 5, 5)
    )
    for p in generated:
        out.append((f"gen {p.name} n={len(p.gram)}", Mat(p.gram), Mat(p.target)))
    # The first shell {0}: its only entry is the middle one.
    out.append(("first shell {0}", Mat.identity(2), Mat([[0, 0], [0, 1]])))
    out.append(("second shell {0}", Mat.identity(3), Mat([[1, 0, 0], [0, 0, 0], [0, 0, 2]])))
    # 3 is no sum of two squares.
    out.append(("first shell empty", Mat.identity(2), Mat([[3, 1], [1, 3]])))
    out.append(("last shell empty", Mat.identity(2), Mat([[1, 0], [0, 3]])))
    return out


CASES = _cases()


@pytest.mark.parametrize("bound", [None, 1])
@pytest.mark.parametrize("name,gram,target", CASES, ids=[c[0] for c in CASES])
def test_same_list_as_the_reference_search(name, gram, target, bound):
    source, tgt = GramForm(gram), GramForm(target, allow_degenerate=True)
    found = brute_force_isometries(source, tgt, bound=bound)
    assert found == reference_brute_force_isometries(source, tgt, bound=bound)
    assert all(type(x) is Fraction for m in found for row in m.rows for x in row)
    assert all(type(row) is tuple and len(row) == gram.nrows for m in found for row in m.rows)
    if gram.nrows <= 3:
        assert set(cartesian_brute_force_isometries(source, tgt, bound=bound)) == set(found)


N6 = gen.pullback(gen.REFERENCE_SEED, 5, 6)


def _n6_forms(k: int) -> tuple[GramForm, GramForm]:
    return GramForm(Mat(N6[k].gram)), GramForm(Mat(N6[k].target))


@pytest.mark.parametrize("k", [0, 1, 3])
def test_n6_pullbacks_give_the_reference_list(k):
    source, target = _n6_forms(k)
    assert brute_force_isometries(source, target) == reference_brute_force_isometries(source, target)


@pytest.mark.parametrize("k", [2, 4])
def test_n6_pullbacks_beyond_the_reference_are_sorted_true_and_closed_under_negation(k):
    source, target = _n6_forms(k)
    found = brute_force_isometries(source, target)
    assert len(found) == 2
    assert all(m.transpose() @ source.gram @ m == target.gram for m in found)
    columns = [m.transpose().rows for m in found]
    assert columns == sorted(columns)
    assert {-m for m in found} == set(found)


def test_the_draw_holds_every_kind_of_case():
    counts = {name: len(brute_force_isometries(GramForm(g), GramForm(t, allow_degenerate=True))) for name, g, t in CASES}
    assert counts["first shell {0}"] == 4 and counts["second shell {0}"] == 24
    assert counts["first shell empty"] == counts["last shell empty"] == 0
    assert counts["I4 against itself"] == counts["wilson.txt"] == 384
    # A pullback along a unimodular map has at least that map.
    assert all(c for name, c in counts.items() if name.startswith("rand_pullback"))
    # Both verdicts among the generator's problems.
    gen_counts = [c for name, c in counts.items() if name.startswith("gen ")]
    assert 0 in gen_counts and any(gen_counts)


def test_shell_that_is_not_sign_complete_raises(monkeypatch):
    real = isometry.vectors_of_norm

    def one_sided(q, c):
        return tuple(v for v in real(q, c) if v >= tuple(0 for _ in v))

    monkeypatch.setattr(isometry, "vectors_of_norm", one_sided)
    with pytest.raises(ValueError, match="sign-complete"):
        brute_force_isometries(GramForm(Mat.identity(2)), GramForm(Mat.identity(2)))


@pytest.mark.parametrize("side", ["source", "target"])
def test_non_integral_form_raises(side):
    half = GramForm(Mat([[1, Fraction(1, 2)], [Fraction(1, 2), 1]]))
    forms = {"source": GramForm(Mat.identity(2)), "target": GramForm(Mat.identity(2)), side: half}
    with pytest.raises(NonIntegralForm):
        brute_force_isometries(forms["source"], forms["target"])


@pytest.mark.parametrize("diagonal", [(-1, -1), (1, -2), (-3, 2)])
def test_negative_target_diagonal_gives_no_isometry(diagonal):
    # A column j with B'_jj < 0 has an empty shell, at any bound.
    target = GramForm(Mat.diagonal(list(diagonal)))
    for bound in (None, 1):
        assert brute_force_isometries(GramForm(Mat.identity(2)), target, bound=bound) == []
