"""Exact linear algebra: matrix ops, determinants, integer kernels."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    WILSON,
    WILSON_FACTOR,
    leibniz_det,
    rand_int_vec,
    rand_invertible,
    rand_rational_vec,
    rand_unimodular,
    rank,
)
from superlat.errors import DimensionMismatch, SingularMatrix, ZeroFunctional
from superlat.linalg import (
    Mat,
    Vec,
    _det,
    _det_adjugate,
    hermite_row_reduce,
    integer_kernel_basis,
    primitive_integer_vector,
)


def test_vec_arithmetic():
    u = Vec([1, 2, 3])
    v = Vec([Fraction(1, 2), 0, -1])
    assert u + v == Vec([Fraction(3, 2), 2, 2])
    assert u - v == Vec([Fraction(1, 2), 2, 4])
    assert -v == Vec([Fraction(-1, 2), 0, 1])
    assert 2 * v == Vec([1, 0, -2])
    assert u.dot(v) == Fraction(1, 2) - 3
    assert Vec.unit(3, 1) == Vec([0, 1, 0])
    assert Vec.zero(2).is_zero()
    with pytest.raises(DimensionMismatch):
        u + Vec([1, 2])


def test_vec_integrality():
    assert Vec([3, -1, 0]).is_integral()
    assert Vec([3, -1, 0]).to_ints() == (3, -1, 0)
    assert not Vec([Fraction(1, 2), 1]).is_integral()
    with pytest.raises(ValueError):
        Vec([Fraction(1, 2), 1]).to_ints()


def test_mat_shape_checks():
    with pytest.raises(DimensionMismatch):
        Mat([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        Mat([[1, 2]]) @ Mat([[1, 2]])
    with pytest.raises(DimensionMismatch):
        Mat([[1, 2]]).determinant()


def test_mat_identity_and_products():
    i3 = Mat.identity(3)
    m = Mat([[1, 2, 0], [0, 1, 4], [5, 6, 0]])
    assert i3 @ m == m
    assert m @ i3 == m
    assert m @ Vec([1, 0, 0]) == Vec([1, 0, 5])
    assert (m @ m).transpose() == m.transpose() @ m.transpose()
    assert Mat(zip(*(m.col(j) for j in range(m.ncols)))) == m
    assert Mat.diagonal([1, 5]) == Mat([[1, 0], [0, 5]])


def test_determinant_known_values():
    assert Mat([[1, 2], [3, 4]]).determinant() == -2
    assert Mat.identity(5).determinant() == 1
    assert Mat([[1, 2], [2, 4]]).determinant() == 0
    assert WILSON.determinant() == 1
    assert WILSON_FACTOR.determinant() == 1


def test_determinant_multiplicative():
    rng = random.Random(101)
    for _ in range(50):
        a = rand_invertible(rng, 3)
        b = rand_invertible(rng, 3)
        assert (a @ b).determinant() == a.determinant() * b.determinant()


def test_inverse_exact():
    assert Mat.identity(3).inverse() == Mat.identity(3)
    rng = random.Random(7)
    for _ in range(100):
        a = rand_invertible(rng, 4)
        assert a @ a.inverse() == Mat.identity(4)
        assert a.inverse() @ a == Mat.identity(4)
    with pytest.raises(SingularMatrix):
        Mat([[1, 2], [2, 4]]).inverse()


def test_determinant_and_inverse_against_leibniz():
    """Seeded rational matrices, n = 1..5, some with a zero leading entry
    (so the elimination swaps rows) and some of negative determinant:
    Mat.determinant is the Leibniz permutation sum, and a @ a.inverse()
    is the identity whenever that sum is nonzero."""
    rng = random.Random(17)
    swapped = negative = 0
    for n in range(1, 6):
        for trial in range(60):
            rows = [
                [Fraction(rng.randint(-4, 4) * rng.randint(0, 1), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            if trial % 3 == 0:
                rows[0][0] = Fraction(0)
            a = Mat(rows)
            det = leibniz_det(rows)
            assert a.determinant() == det
            if det == 0:
                with pytest.raises(SingularMatrix):
                    a.inverse()
                continue
            assert a @ a.inverse() == Mat.identity(n)
            swapped += rows[0][0] == 0
            negative += det < 0
    assert swapped >= 20 and negative >= 20


@st.composite
def integer_matrices(draw):
    """Square integer matrices, n = 1..6: plain random ones, singular ones
    (the last row a combination of the others) and ones with a zero
    leading k x k block, whose elimination must swap rows."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["random", "singular", "zero-lead"]))
    if kind == "singular" and n > 1:
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    elif kind == "zero-lead":
        k = draw(st.integers(1, n))
        for i in range(k):
            rows[i][:k] = [0] * k
    return tuple(map(tuple, rows))


@given(integer_matrices())
def test_det_is_the_determinant_of_the_adjugate_elimination(rows):
    assert _det(rows) == _det_adjugate(rows)[0]


@pytest.mark.parametrize(
    "rows, det",
    [
        (((0, 1), (1, 0)), -1),
        (((0, 0, 1), (0, 1, 0), (1, 0, 0)), -1),
        (((0, 2, 1), (3, 0, 0), (0, 0, 5)), -30),
        (((0, 1), (0, 1)), 0),
        (((7,),), 7),
        ((), 1),
    ],
    ids=["swap", "anti-identity", "zero-leading-entry", "zero-column", "1x1", "empty"],
)
def test_det_swaps_past_zero_leading_minors(rows, det):
    assert _det(rows) == _det_adjugate(rows)[0] == det


def test_solve():
    rng = random.Random(8)
    for _ in range(25):
        a = rand_invertible(rng, 3)
        x = rand_rational_vec(rng, 3)
        assert a.inverse() @ (a @ x) == x


def test_rank():
    assert rank(Mat.identity(4)) == 4
    assert rank(Mat([[1, 2], [2, 4]])) == 1
    assert rank(Mat([[0, 0], [0, 0]])) == 0
    assert rank(Mat([[1, 2, 3], [4, 5, 6]])) == 2


def test_predicates():
    assert WILSON.is_symmetric()
    assert not WILSON_FACTOR.is_symmetric()
    assert WILSON_FACTOR.transpose() @ WILSON_FACTOR == WILSON
    assert not Mat([[Fraction(1, 2), 0], [0, 2]]).is_integral()


def test_primitive_integer_vector():
    assert primitive_integer_vector(Vec([Fraction(1, 2), Fraction(1, 3)])) == (3, 2)
    assert primitive_integer_vector(Vec([2, 4, 6])) == (1, 2, 3)
    assert primitive_integer_vector(Vec([-3, 0])) == (-1, 0)
    with pytest.raises(ZeroFunctional):
        primitive_integer_vector(Vec([0, 0]))


def test_hermite_row_reduce_known():
    assert hermite_row_reduce([[2, 1], [0, 3]]) == [(2, 1), (0, 3)]
    assert hermite_row_reduce([[0, 1, 0], [1, 0, 0]]) == [(1, 0, 0), (0, 1, 0)]
    assert hermite_row_reduce([[2, 0], [3, 0]]) == [(1, 0)]
    assert hermite_row_reduce([[0, 0], [0, 0]]) == []
    # Above-pivot entries land in [0, pivot).
    assert hermite_row_reduce([[1, 7], [0, 3]]) == [(1, 1), (0, 3)]


def test_hermite_canonical_under_row_ops():
    # Two bases of the same row lattice reduce to identical rows.
    rng = random.Random(23)
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        a = rand_invertible(rng, n, bound=4)
        u = rand_unimodular(rng, n)
        left = hermite_row_reduce([[int(x) for x in r] for r in a.rows])
        right = hermite_row_reduce([[int(x) for x in r] for r in (u @ a).rows])
        # Rows of UA are unimodular combinations of rows of A.
        assert left == right


def _in_hnf_lattice(v: Vec, basis: list[Vec]) -> bool:
    rem = list(v.to_ints())
    for row in basis:
        ints = row.to_ints()
        pc = next(i for i, x in enumerate(ints) if x != 0)
        if rem[pc] % ints[pc] != 0:
            return False
        q = rem[pc] // ints[pc]
        rem = [a - q * b for a, b in zip(rem, ints)]
    return all(x == 0 for x in rem)


def test_integer_kernel_basis_known():
    known = [
        ((1, 0, 0), [(0, 1, 0), (0, 0, 1)]),
        ((18, 0, 18), [(1, 0, -1), (0, 1, 0)]),
        ((Fraction(1, 2), Fraction(1, 3)), [(2, -3)]),
        ((5,), []),
        ((0, 6, -4), [(1, 0, 0), (0, 2, 3)]),
    ]
    for entries, rows in known:
        # The rows are int tuples, and a tuple or list functional gives
        # the rows of the equal Vec.
        for f in (Vec(entries), entries, list(entries)):
            got = integer_kernel_basis(f)
            assert got == rows
            assert all(type(x) is int for row in got for x in row)
    for zero in (Vec([0, 0, 0]), (0, 0, 0), (Fraction(0), 0)):
        with pytest.raises(ZeroFunctional):
            integer_kernel_basis(zero)


def test_integer_kernel_basis_spans_exactly():
    # Every box integer solution lies in the lattice spanned by the basis,
    # and every basis vector is an integer solution.
    rng = random.Random(41)
    for _ in range(40):
        n = rng.choice([3, 4, 5])
        f = rand_int_vec(rng, n, bound=4)
        basis = list(map(Vec, integer_kernel_basis(f)))
        assert len(basis) == n - 1
        for b in basis:
            assert b.is_integral()
            assert f.dot(b) == 0
        box = range(-3, 4)
        count = 0
        for v in _box_solutions(f, box):
            assert _in_hnf_lattice(v, basis)
            count += 1
        assert count > 0


def _box_solutions(f: Vec, box):
    import itertools

    n = len(f)
    for tup in itertools.product(box, repeat=n):
        v = Vec(tup)
        if f.dot(v) == 0:
            yield v


@given(
    st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
        min_size=2,
        max_size=5,
    ).filter(lambda xs: any(xs))
)
def test_kernel_basis_annihilates_functional(entries):
    f = Vec(entries)
    rows = integer_kernel_basis(f)
    assert len(rows) == len(entries) - 1
    for row in rows:
        assert all(type(x) is int for x in row)
        assert f.dot(Vec(row)) == 0
    # The basis is already in Hermite form.
    assert hermite_row_reduce(rows) == rows
