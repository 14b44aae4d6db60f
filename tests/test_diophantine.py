"""Norm-equation enumeration and sums-of-squares predicates."""

import random
import sys
import time
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt, prod
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _sign_canonical,
    form_norm,
    naive_box_norm_solutions,
    rand_pd_gram,
    rand_pullback_problem,
    rand_rational_invertible,
    reference_ldl,
    reference_vectors_of_norm,
    trial_division_two_squares,
)
from superlat import diophantine
from superlat.diophantine import (
    PosDefForm,
    three_squares_representable,
    two_squares_representable,
    vectors_of_norm,
)
from superlat.errors import InvalidForm, NegativeTarget, NotPositiveDefinite
from superlat.forms import GramForm
from superlat.isometry import IsometryProblem, brute_force_isometries, find_isometries, squares_certificate, verify_certificate
from superlat.linalg import Mat, Vec

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402


def test_posdefform_accepts_and_rejects():
    g = Mat.identity(3)
    q = PosDefForm(g)
    assert q.ldl.pivots == (1, 1, 1)
    # The products of the leading pivots are the leading principal minors.
    minors = tuple(Mat([row[:k] for row in g.rows[:k]]).determinant() for k in (1, 2, 3))
    assert tuple(accumulate(q.ldl.pivots, mul)) == minors == (1, 1, 1)
    with pytest.raises(NotPositiveDefinite):
        PosDefForm(Mat([[1, 2], [2, 1]]))
    with pytest.raises(NotPositiveDefinite):
        PosDefForm(Mat([[1, 1], [1, 1]]))  # semidefinite: zero pivot
    with pytest.raises(NotPositiveDefinite):
        PosDefForm(Mat([[-1]]))
    with pytest.raises(InvalidForm):
        PosDefForm(Mat([[1, 2], [0, 1]]))


def _permuted(g: Mat, order) -> Mat:
    """P^T G P for the permutation P of order: entry (a, b) is
    G[order[a]][order[b]]."""
    return Mat([[g.rows[i][j] for j in order] for i in order])


def _level_ldl(q: PosDefForm) -> tuple[tuple[Fraction, ...], tuple[tuple[Fraction, ...], ...]]:
    """q.ldl as Fractions: the pivots d_j = P_j dl^2 / scale and the unit
    lower triangle of P^T G P, with L = l / dl at the level of each
    coordinate that low names."""
    lf, n = q.ldl, q.dim
    level = {i: k for k, i in enumerate(q.order)}
    low = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for j, pairs in enumerate(lf.low):
        for i, l in pairs:
            low[level[i]][j] = Fraction(l, lf.dl)
    return tuple(Fraction(p * lf.dl**2, lf.scale) for p in lf.pivots), tuple(map(tuple, low))


def test_ldl_reconstructs_gram():
    rng = random.Random(31)
    for _ in range(30):
        g = rand_pd_gram(rng, rng.choice([2, 3, 4]))
        q = PosDefForm(g)
        diag, low = _level_ldl(q)
        assert sorted(q.order) == list(range(q.dim))
        assert Mat(low) @ Mat.diagonal(diag) @ Mat(low).transpose() == _permuted(g, q.order)


def _rand_rational_symmetric(rng: random.Random, n: int, kind: int) -> Mat:
    """A random symmetric rational matrix: R^T R for an invertible rational
    R (kind 0, definite), for a singular R (kind 1, semidefinite), or
    with independent entries and mostly positive diagonal (kind 2)."""
    if kind == 2:
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = Fraction(rng.randint(-1, 9), rng.randint(1, 4))
            for j in range(i):
                a[i][j] = a[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        return Mat(a)
    r = rand_rational_invertible(rng, n)
    if kind == 1:
        k = rng.randrange(n)
        r = Mat([row if i != k else tuple(0 for _ in row) for i, row in enumerate(r.rows)])
    return r.transpose() @ r


@pytest.mark.parametrize("n", range(1, 7))
def test_ldl_matches_the_fraction_elimination(n):
    # PosDefForm eliminates in integers (diophantine._ldl), in its level
    # order; the Fraction elimination it replaced must give the same
    # pivots and L in the level order, or the same error, which names
    # the first failing pivot in the given order.
    rng = random.Random(700 + n)
    outcomes = set()
    for k in range(60):
        g = _rand_rational_symmetric(rng, n, k % 3)
        try:
            reference_ldl(g)
        except NotPositiveDefinite as exc:
            with pytest.raises(NotPositiveDefinite) as got:
                PosDefForm(g)
            assert str(got.value) == str(exc)
            outcomes.add("rejected")
        else:
            q = PosDefForm(g)
            assert _level_ldl(q) == reference_ldl(_permuted(g, q.order))
            outcomes.add("definite")
    assert outcomes == {"definite", "rejected"}


def test_evaluate():
    q = PosDefForm(Mat([[2, 1], [1, 2]]))
    for v, norm in (((1, 0), 2), ((1, 1), 6), ((1, -1), 2)):
        assert form_norm(q, v) == norm
        assert v in vectors_of_norm(q, norm)


def test_vectors_of_norm_zero_target():
    s = vectors_of_norm(PosDefForm(Mat.identity(2)), 0)
    assert s == ((0, 0),)
    assert tuple(v for v in s if _sign_canonical(v)) == ((0, 0),)


def test_vectors_of_norm_known_counts():
    # x^2 + y^2 + z^2 = 5 has 24 solutions: permutations/signs of (2, 1, 0).
    s = vectors_of_norm(PosDefForm(Mat.identity(3)), 5)
    assert len(s) == 24
    assert (2, 1, 0) in s and (-2, 0, -1) in s
    # Sum of four squares equal to 4: 8 of type (+-2,0,0,0), 16 of (+-1)^4.
    assert len(vectors_of_norm(PosDefForm(Mat.identity(4)), 4)) == 24


def test_vectors_of_norm_weighted_diag():
    # 6a^2 + 2b^2 + 4c^2 + 2d^2 = 8: 20 raw solutions, 10 up to sign.
    q = PosDefForm(Mat.diagonal([6, 2, 4, 2]))
    s = vectors_of_norm(q, 8)
    assert len(s) == 20
    assert sum(map(_sign_canonical, s)) == 10
    for v in s:
        assert form_norm(q, v) == 8


def test_vectors_of_norm_empty():
    # a^2 + 5b^2 = 2 has no integer solutions.
    assert len(vectors_of_norm(PosDefForm(Mat.diagonal([1, 5])), 2)) == 0


def test_vectors_of_norm_rejects_negative():
    with pytest.raises(NegativeTarget):
        vectors_of_norm(PosDefForm(Mat.identity(2)), -1)


def test_vectors_of_norm_lex_order_and_negation_closure():
    rng = random.Random(57)
    for _ in range(30):
        g = rand_pd_gram(rng, rng.choice([2, 3]))
        c = rng.randrange(0, 30)
        s = vectors_of_norm(PosDefForm(g), c)
        assert list(s) == sorted(s)
        have = set(s)
        assert all(tuple(-x for x in v) in have for v in s)
        canon = [v for v in s if _sign_canonical(v)]
        if c > 0:
            assert len(canon) * 2 == len(s)
            assert all(next(x for x in v if x) > 0 for v in canon if any(v))


def test_vectors_of_norm_matches_naive_box():
    rng = random.Random(73)
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        g = rand_pd_gram(rng, n, bound=2)
        c = rng.randrange(0, 25)
        assert set(vectors_of_norm(PosDefForm(g), c)) == naive_box_norm_solutions(g, c)


def test_vectors_of_norm_rational_gram():
    # Fractions in the Gram matrix are fine; 1/2 x^2 + 1/2 y^2 = 1 needs
    # x^2 + y^2 = 2.
    q = PosDefForm(Mat([[Fraction(1, 2), 0], [0, Fraction(1, 2)]]))
    assert set(vectors_of_norm(q, 1)) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=3))
def test_vectors_of_norm_sound(c, seed):
    g = rand_pd_gram(random.Random(seed), 2, bound=2)
    q = PosDefForm(g)
    for v in vectors_of_norm(q, c):
        assert form_norm(q, v) == c


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=30),
    st.sampled_from([1, 2, 3]),
)
def test_vectors_of_norm_half_search_is_complete_and_mirrored(n, seed, c, den):
    # Only half of each shell is searched and the other half is negated:
    # the result must still be the whole box scan, sorted, with
    # v[L-1-j] = -v[j].
    g = rand_pd_gram(random.Random(seed), n, bound=2)
    g = Mat([[Fraction(x, den) for x in row] for row in g.rows])
    sols = vectors_of_norm(PosDefForm(g), c)
    assert list(sols) == sorted(naive_box_norm_solutions(g, c))
    last = len(sols) - 1
    assert all(sols[last - j] == tuple(-x for x in v) for j, v in enumerate(sols))


# vectors_of_norm orders the levels from the form and solves the two
# innermost as one binary problem: it scans x_1 or, for forms whose level 0
# has no off-diagonal entries (the L0 forms diag(N, G_K)), whichever of x_0
# and x_1 has the shorter range, and reads the other coordinate off a
# lookup or a square test; helpers keeps the level-1 loop in the given
# order, with its square test, as the reference.


def _same_as_reference(q: PosDefForm, c) -> tuple[tuple[int, ...], ...]:
    sols = vectors_of_norm(q, c)
    assert sols == reference_vectors_of_norm(q, c)
    return sols


def test_level1_step_and_lookup_on_l0_forms_of_random_pullbacks():
    rng = random.Random(17)
    for n in (2, 3, 4, 5):
        for _ in range(3):
            gram, target, w, _phi = rand_pullback_problem(rng, sizes=(n,))
            problem = IsometryProblem(GramForm(gram), GramForm(target), w)
            q = problem.l0_form
            assert not q.ldl.low[0]
            targets = [problem.eq1_target] + [
                problem.wnorm * t for t in (rng.randrange(1, 12) for _ in range(3))
            ]
            assert any(_same_as_reference(q, c) for c in targets)


def test_level1_step_on_general_forms():
    # The oracle's forms B: level 0 has off-diagonal entries, and the
    # divisibility and square test stays.
    rng = random.Random(29)
    seen = 0
    for _ in range(30):
        n = rng.choice((2, 3, 4))
        den = rng.choice((1, 1, 2, 3))
        g = rand_pd_gram(rng, n, bound=3)
        q = PosDefForm(Mat([[Fraction(x, den) for x in row] for row in g.rows]))
        seen += bool(q.ldl.low[0])
        for c in range(0, 25):
            _same_as_reference(q, c)
    assert seen >= 20


def test_level1_lookup_edges():
    # c = 0, rank 1 and a non-integral scaled budget.
    for q in (PosDefForm(Mat([[3]])), PosDefForm(Mat([[2, 1], [1, 2]])), PosDefForm(Mat([[3, 0], [0, 5]]))):
        assert _same_as_reference(q, 0) == ((0,) * q.dim,)
    for a in (1, 2, 7):
        for c in range(0, 30):
            _same_as_reference(PosDefForm(Mat([[a]])), c)
    assert _same_as_reference(PosDefForm(Mat([[3]])), 12) == ((-2,), (2,))
    assert _same_as_reference(PosDefForm(Mat([[3, 0], [0, 5]])), Fraction(3, 2)) == ()
    half = PosDefForm(Mat([[Fraction(1, 2), 0], [0, Fraction(1, 2)]]))
    assert _same_as_reference(half, Fraction(1, 2)) == ((-1, 0), (0, -1), (0, 1), (1, 0))


@pytest.mark.parametrize(
    "rows",
    [
        [[3, 0], [0, 5]],
        [[3, 0, 0], [0, 2, 1], [0, 1, 2]],
        [[2, 0, 0, 0], [0, 2, 1, 0], [0, 1, 3, 1], [0, 0, 1, 2]],
    ],
)
def test_largest_u_on_the_lookup_bound_and_the_top_rule(rows):
    # For c = N u^2 the lookup's largest entry is u itself, and (+-u, 0,
    # ...) is reached only through level 1 at v = 0 with every coordinate
    # above it 0, where the half search keeps +root alone.
    q = PosDefForm(Mat(rows))
    lf = q.ldl
    assert not lf.low[0]
    unit = lf.pivots[0] * lf.dl**2
    for u in (1, 2, 3, 5):
        c = rows[0][0] * u * u
        assert isqrt(c * lf.scale // unit) == u
        sols = _same_as_reference(q, c)
        axis = [v for v in sols if not any(v[1:])]
        assert axis == [(-u, *(0,) * (q.dim - 1)), (u, *(0,) * (q.dim - 1))]
        for c2 in (c - 1, c + 1, c + rows[1][1]):
            _same_as_reference(q, c2)



def test_skewed_diagonal_forms_build_no_lookup_beyond_the_search():
    # Level 0 of diag(1, 10^30) has no off-diagonal entries, but a lookup
    # of every x_0 in budget would hold 10^15 + 1 entries while the search
    # makes two level-1 steps; rank 1 is one square test.  These calls
    # finish only if the lookup is bounded by the level-1 scan.
    q = PosDefForm(Mat([[1, 0], [0, 10**30]]))
    assert _same_as_reference(q, 10**30) == ((-(10**15), 0), (0, -1), (0, 1), (10**15, 0))
    assert _same_as_reference(PosDefForm(Mat([[1]])), 10**20) == ((-(10**10),), (10**10,))
    # The same through the search (l0_form = diag(1, 10^16), eq3 target
    # 10^16) and the oracle, both from a user's w block and probe.
    skewed = GramForm(Mat([[1, 0], [0, 10**16]]))
    problem = IsometryProblem(skewed, skewed, Vec([1, 0]), probes=[Vec([0, 1])])
    integral = {c.matrix for c in find_isometries(problem).candidates if c.integral}
    assert integral == set(brute_force_isometries(skewed, skewed))
    assert len(integral) == 4


def _eq_targets(problem: IsometryProblem) -> list[int]:
    # The norms of the eq1 shell and of each probe's eq3 shell in L0.
    return [problem.pair_targets[i][i] for i in range(problem.dim)]


@pytest.mark.parametrize("n, cap", [(4, None), (5, 1200)])
def test_l0_shells_of_generated_problems_match_the_reference(n, cap):
    # The L0 forms of the generator's pullbacks and 2-neighbours, at their
    # eq1 and eq3 targets; at n = 5 only the targets up to cap, as the
    # others hold up to millions of vectors.
    orders = set()
    for p in gen.pullback(gen.REFERENCE_SEED, 5, n) + gen.neighbour(gen.REFERENCE_SEED, 5, n):
        problem = IsometryProblem(GramForm(Mat(p.gram)), GramForm(Mat(p.target)), Vec(p.w))
        targets = _eq_targets(problem)
        assert targets[0] == problem.eq1_target
        for t in targets:
            if cap is None or t <= cap:
                _same_as_reference(problem.l0_form, t)
        orders.add(problem.l0_form.order)
    assert len(orders) > 1


@pytest.mark.parametrize(
    "rows, tested",
    [
        # Level 0 orthogonal, P_1 well below P_0: x_0 is scanned, and Y_1
        # looked up or, past the lookup bound, tested (dl = 1, 2, 3).
        ([[4, 0], [0, 1]], None),
        ([[100, 0], [0, 1]], 1),
        ([[6, 0, 0], [0, 2, 1], [0, 1, 2]], None),
        ([[100, 0, 0], [0, 3, 1], [0, 1, 3]], 1),
        # Level 0 orthogonal, P_1 well above P_0: x_1 is scanned, and u
        # looked up or, past the lookup bound, tested; the smallest kernel
        # diagonal is last, so the levels are permuted.
        ([[1, 0], [0, 9]], None),
        ([[1, 0], [0, 40]], 0),
        ([[1, 0, 0], [0, 12, 2], [0, 2, 9]], None),
        ([[1, 0, 0], [0, 45, 3], [0, 3, 40]], 0),
        # Level 0 with off-diagonal entries: the smallest diagonal moves to
        # level 0, x_1 is scanned and x_0 tested.
        ([[5, 2], [2, 3]], 0),
        ([[6, 1, 2], [1, 5, 1], [2, 1, 3]], 0),
    ],
)
def test_each_level1_branch_matches_the_reference(rows, tested, monkeypatch):
    q = PosDefForm(Mat(rows))
    order, lf = q.order, q.ldl
    if not any(rows[0][1:]):
        assert order[0] == 0 and not lf.low[0]
        assert lf.pivots[1] * 2 < lf.pivots[0] or lf.pivots[1] > 8 * lf.pivots[0]
    else:
        assert rows[order[0]][order[0]] == min(rows[i][i] for i in range(len(rows)))
    # The level whose coordinate a square test reads off, if any.
    seen = []
    real = diophantine._root_test
    monkeypatch.setattr(diophantine, "_root_test", lambda p: seen.append(lf.pivots.index(p)) or real(p))
    _same_as_reference(q, 100)
    assert seen == ([] if tested is None else [tested])
    monkeypatch.undo()
    assert _same_as_reference(q, 0) == ((0,) * len(rows),)
    for c in range(1, 120):
        _same_as_reference(q, c)
    # A non-integral scaled budget, and the same form over 2 and 3.
    assert _same_as_reference(q, Fraction(1, 7)) == ()
    for den in (2, 3):
        scaled = PosDefForm(Mat([[Fraction(x, den) for x in row] for row in rows]))
        assert scaled.order == order
        for c in (0, Fraction(1, den), Fraction(5, den), Fraction(1, 5), 4, 9):
            _same_as_reference(scaled, c)


def test_order_permutes_the_ldl():
    # The smallest kernel diagonal moves to level 1, and the LDL^T is in
    # that level order.
    q = PosDefForm(Mat([[1, 0, 0], [0, 12, 2], [0, 2, 9]]))
    lf = q.ldl
    assert q.order == (0, 2, 1)
    assert lf.pivots == (9, 81, 104) and lf.dl == 9 and lf.scale == 729
    assert lf.low == ((), ((1, 2),), ())


def test_one_elimination_per_form(monkeypatch):
    # A form is factored once, in its level order, when it is built; its
    # shells eliminate nothing again.
    p = gen.pullback(gen.REFERENCE_SEED, 5, 4)[0]
    problem = IsometryProblem(GramForm(Mat(p.gram)), GramForm(Mat(p.target)), Vec(p.w))
    calls = []
    real = diophantine._ldl
    monkeypatch.setattr(diophantine, "_ldl", lambda c, rows: calls.append(len(rows)) or real(c, rows))
    for build, targets in (
        (lambda: PosDefForm(Mat([[1, 0, 0], [0, 12, 2], [0, 2, 9]])), (9, 13)),
        (lambda: problem.l0_form, _eq_targets(problem)[:2]),
    ):
        calls.clear()
        q = build()
        assert all(vectors_of_norm(q, c) for c in targets)
        assert calls == [q.dim]
        assert q.order != tuple(range(q.dim))


def test_shell_of_permuted_form_is_the_permuted_shell():
    # For G' = P^T G P, G'[i][j] = G[p[i]][p[j]], the shell of G' is
    # {(x[p[0]], ..., x[p[n-1]]) : x in the shell of G}, re-sorted.
    rng = random.Random(2026)
    for k in range(40):
        n = rng.choice((2, 3, 4))
        g = rand_pd_gram(rng, n, bound=2)
        if k % 2:
            # Coordinate 0 orthogonal to the rest, as in the L0 forms.
            g = Mat([[rng.randint(1, 6) if i == j == 0 else 0 if 0 in (i, j) else x for j, x in enumerate(row)] for i, row in enumerate(g.rows)])
        p = rng.sample(range(n), n)
        gp = _permuted(g, p)
        for c in range(0, 18):
            shell = vectors_of_norm(PosDefForm(g), c)
            assert vectors_of_norm(PosDefForm(gp), c) == tuple(sorted(tuple(x[i] for i in p) for x in shell))


def test_two_squares_known_values():
    assert two_squares_representable(0)
    assert two_squares_representable(1)
    assert two_squares_representable(2)
    assert not two_squares_representable(3)
    assert two_squares_representable(25)
    assert not two_squares_representable(28)
    assert not two_squares_representable(21)
    assert two_squares_representable(45)
    with pytest.raises(NegativeTarget):
        two_squares_representable(-1)


def test_three_squares_known_values():
    assert three_squares_representable(0)
    assert three_squares_representable(6)
    assert not three_squares_representable(7)
    assert not three_squares_representable(28)
    assert not three_squares_representable(36288)  # 4^3 * 567, 567 = 7 mod 8
    assert not three_squares_representable(145152)  # 4^4 * 567
    assert three_squares_representable(33)
    with pytest.raises(NegativeTarget):
        three_squares_representable(-5)


def _exhaustive_two_squares(n: int) -> bool:
    return any(isqrt(n - a * a) ** 2 == n - a * a for a in range(isqrt(n) + 1))


def _exhaustive_three_squares(n: int) -> bool:
    for a in range(isqrt(n) + 1):
        r = n - a * a
        if _exhaustive_two_squares(r):
            return True
    return False


def test_squares_predicates_match_exhaustive_sample():
    for n in range(600):
        assert two_squares_representable(n) == _exhaustive_two_squares(n)
        assert three_squares_representable(n) == _exhaustive_three_squares(n)


def test_two_squares_matches_trial_division_below_10_12():
    # Random(1901): 300 draws log-uniform in size, then products that put
    # primes = 3 (mod 4) near 10^3...10^6 to odd and even powers, and
    # squares and products of primes above the trial-division limit.
    rng = random.Random(1901)
    draws = [rng.randrange(1, 10 ** rng.randint(1, 12)) for _ in range(300)]
    big3 = [p for p in range(999_983, 990_000, -4) if all(p % d for d in range(3, isqrt(p) + 1, 2))][:3]
    mid = [1009, 1013, 1019, 1021, 9973, 10007]
    draws += [p * q for p in big3 for q in big3] + [p * 7 for p in big3]
    draws += [p * q * r for p in mid for q in mid for r in (1, 2, 3, 9, 11) if p * q * r < 10**12]
    draws += [p**3 for p in mid if p**3 < 10**12] + [p**2 for p in mid]
    assert all(n < 10**12 for n in draws)
    verdicts = [two_squares_representable(n) for n in draws]
    assert verdicts == [trial_division_two_squares(n) for n in draws]
    assert 50 < sum(verdicts) < len(draws) - 50


def test_two_squares_decides_a_24_digit_prime_within_a_second():
    # Both are prime (the strong test to the first 13 prime bases is a
    # proof below 3.3 * 10^24); trial division to their square roots
    # would take hours.
    for p, representable in ((999999999999999999999743, False), (999999999999999999999697, True)):
        start = time.perf_counter()
        assert two_squares_representable(p) is representable
        assert two_squares_representable(p * p) is True
        cert = squares_certificate(p, 2)
        assert cert.verdict == ("Inconclusive" if representable else "ObstructionTwoSquares")
        assert verify_certificate(cert, None)
        assert time.perf_counter() - start < 1.0



def _primes_3_mod_4(lo: int, hi: int, count: int, rng: random.Random) -> list[int]:
    """count distinct primes p = 3 (mod 4) drawn from [lo, hi)."""
    found: set[int] = set()
    while len(found) < count:
        p = rng.randrange(lo, hi) | 3
        if p < hi and all(p % d for d in range(3, isqrt(p) + 1, 2)):
            found.add(p)
    return sorted(found)


def test_two_squares_agrees_with_trial_division_on_a_seeded_sample():
    # Random(2341): draws below 10^6, then products of two primes = 3
    # (mod 4) on both sides of the trial-division limit, which only
    # Pollard-Brent can split, alone and times the square or cube of one
    # of them or a prime = 1 (mod 4), so that the split leaves parts
    # sharing a factor for the coprime base to refine.
    rng = random.Random(2341)
    draws = [rng.randrange(1, 10**6) for _ in range(4000)]
    small, large = _primes_3_mod_4(3, 1000, 4, rng), _primes_3_mod_4(1000, 60000, 8, rng)
    pairs = [(p, q) for p in small + large for q in large if p < q]
    draws += [p * q for p, q in pairs]
    draws += [p * q * k for p, q in rng.sample(pairs, 12) for k in (p, p * p, 1013, 10009)]
    assert sum(n < 10**6 for n in draws) == 4000
    verdicts = [two_squares_representable(n) for n in draws]
    assert verdicts == [trial_division_two_squares(n) for n in draws]
    assert 500 < sum(verdicts) < len(draws) - 500


@pytest.mark.parametrize(
    "n, verdict",
    [
        # The bound of the strong test, 1287836182261 * 2575672364521, both
        # = 1 (mod 4): Hermite-Serret writes it as a sum of two squares.
        (3317044064679887385961981, "Inconclusive"),
        # 2^89 - 1 = 3 (mod 4): no factoring needed.
        (618970019642690137449562111, "ObstructionTwoSquares"),
        (10000000000000000000000013, "Inconclusive"),
    ],
)
def test_two_squares_decides_large_constants_within_a_second(n, verdict):
    start = time.perf_counter()
    cert = squares_certificate(n, 2)
    assert cert.verdict == verdict and verify_certificate(cert, None)
    assert time.perf_counter() - start < 1.0


def test_coprime_base_keeps_the_product():
    rng = random.Random(7)
    for _ in range(200):
        pairs = [(rng.choice((1, 2, 3, 6, 9, 10, 15, 35, 49, 77)) * rng.randint(1, 30), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        base = diophantine._coprime_base(pairs)
        product = 1
        for f, e in base:
            assert f > 1 and e > 0
            product *= f**e
        assert product == prod(f**e for f, e in pairs)
        assert all(gcd(f, g) == 1 for i, (f, _) in enumerate(base) for g, _ in base[i + 1 :])
