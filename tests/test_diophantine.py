"""Norm-equation enumeration and sums-of-squares predicates."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_box_norm_solutions, rand_pd_gram
from superlat.diophantine import (
    NormSolutionSet,
    PosDefForm,
    three_squares_representable,
    two_squares_representable,
    vectors_of_norm,
)
from superlat.errors import InvalidForm, NegativeTarget, NotPositiveDefinite
from superlat.linalg import Mat, Vec


def test_posdefform_accepts_and_rejects():
    q = PosDefForm(Mat.identity(3))
    assert q.pivots == (1, 1, 1)
    assert q.leading_minors() == (1, 1, 1)
    with pytest.raises(NotPositiveDefinite):
        PosDefForm(Mat([[1, 2], [2, 1]]))
    with pytest.raises(NotPositiveDefinite):
        PosDefForm(Mat([[1, 1], [1, 1]]))  # semidefinite: zero pivot
    with pytest.raises(NotPositiveDefinite):
        PosDefForm(Mat([[-1]]))
    with pytest.raises(InvalidForm):
        PosDefForm(Mat([[1, 2], [0, 1]]))


def test_ldl_reconstructs_gram():
    rng = random.Random(31)
    for _ in range(30):
        g = rand_pd_gram(rng, rng.choice([2, 3, 4]))
        q = PosDefForm(g)
        low = Mat(q._lower)
        assert low @ Mat.diagonal(q._diag) @ low.transpose() == g


def test_evaluate():
    q = PosDefForm(Mat([[2, 1], [1, 2]]))
    assert q.evaluate(Vec([1, 0])) == 2
    assert q.evaluate((1, 1)) == 6
    assert q.evaluate((1, -1)) == 2


def test_vectors_of_norm_zero_target():
    s = vectors_of_norm(PosDefForm(Mat.identity(2)), 0)
    assert s.solutions == ((0, 0),)
    assert s.canonical().solutions == ((0, 0),)


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
    assert len(s.canonical()) == 10
    for v in s:
        assert q.evaluate(v) == 8


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
        canon = s.canonical()
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
        assert q.evaluate(v) == c


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
    sols = vectors_of_norm(PosDefForm(g), c).solutions
    assert list(sols) == sorted(naive_box_norm_solutions(g, c))
    last = len(sols) - 1
    assert all(sols[last - j] == tuple(-x for x in v) for j, v in enumerate(sols))


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


def test_norm_solution_set_api():
    s = NormSolutionSet(5, ((1, 2), (-1, -2)), False)
    assert len(s) == 2
    assert (1, 2) in s
    assert s.vectors()[0] == Vec([1, 2])
    c = s.canonical()
    assert c.solutions == ((1, 2),)
    assert c.canonical() is c
