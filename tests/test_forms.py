"""Bilinear form machinery: evaluation, complements, adjoints, pullbacks."""

import random
from fractions import Fraction

import pytest

from helpers import (
    WILSON,
    WILSON_FACTOR,
    mat_from_cols,
    rand_anchor,
    rand_invertible,
    rand_matrix,
    rand_pd_gram,
    rand_sym_nondegenerate,
)
from superlat.diophantine import PosDefForm
from superlat.errors import (
    DimensionMismatch,
    InvalidForm,
    NonIntegralForm,
    NotPositiveDefinite,
    ZeroVector,
)
from superlat.forms import (
    GramForm,
    adjoint,
    dual_membership,
    ortho_complement_basis,
    outer,
    polarized_pullback,
    pullback,
    trace_form,
)
from superlat.isometry import IsometryProblem
from superlat.linalg import Mat, Vec


def rank3_family_gram(m: int) -> Mat:
    return Mat([[2 * m * m + 1, -1, 0], [-1, 1, 0], [0, 0, 2 * m * m]])


def test_construction_validation():
    GramForm(Mat.identity(3))
    with pytest.raises(InvalidForm):
        GramForm(Mat([[1, 2], [0, 1]]))
    with pytest.raises(InvalidForm):
        GramForm(Mat([[1, 1], [1, 1]]))
    f = GramForm(Mat([[1, 1], [1, 1]]), allow_degenerate=True)
    assert f.is_degenerate
    assert not GramForm(Mat.identity(2)).is_degenerate


def test_cleared_pair_builds_the_form_of_its_matrix():
    # (4, 4 G) for G = [[1/2, 0], [0, 3/4]]: the same form, checks and
    # values as GramForm(G), with gram and det built when read.
    g = Mat([[Fraction(1, 2), 0], [0, Fraction(3, 4)]])
    f = GramForm((4, ((2, 0), (0, 3))))
    assert "gram" not in vars(f) and "det" not in vars(f)
    assert f == GramForm(g) and f.gram == g and f.cleared == GramForm(g).cleared
    assert (f.dim, f.det, f.is_integral(), f.is_degenerate) == (2, Fraction(3, 8), False, False)
    with pytest.raises(InvalidForm, match="symmetric"):
        GramForm((1, ((1, 2), (0, 1))))
    with pytest.raises(InvalidForm, match="degenerate"):
        GramForm((1, ((1, 1), (1, 1))))
    assert GramForm((1, ((0, 1), (1, 0)))).det == -1


def test_positive_definite_flag():
    assert all(p > 0 for p in PosDefForm(WILSON).ldl.pivots)
    with pytest.raises(NotPositiveDefinite):
        PosDefForm(Mat.diagonal([1, -1]))
    assert PosDefForm(Mat.diagonal([1, 5])).ldl.pivots == (1, 5)
    # The search's own positivity check, on diag(N, G_K) = diag(1, -1).
    indefinite = GramForm(Mat.diagonal([1, -1]))
    with pytest.raises(NotPositiveDefinite):
        IsometryProblem(indefinite, indefinite, Vec([1, 0])).l0_form


def test_evaluate():
    b = GramForm(Mat.diagonal([1, 2, 3]))
    assert b.evaluate(Vec([1, 1, 1]), Vec([1, 1, 1])) == 6
    assert b.norm(Vec([1, 1, 1])) == 6
    b2 = GramForm(Mat.diagonal([1, 5]))
    assert b2.evaluate(Vec([1, 0]), Vec([1, 0])) == 1
    assert b2.evaluate(Vec([0, 0]), Vec([1, 1])) == 0
    with pytest.raises(DimensionMismatch):
        b.evaluate(Vec([1, 0]), Vec([1, 0, 0]))


def test_evaluate_symmetric_random():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        b = GramForm(rand_sym_nondegenerate(rng, n))
        u, v = rand_anchor(rng, b.gram), rand_anchor(rng, b.gram)
        assert b.evaluate(u, v) == b.evaluate(v, u)


def test_ortho_complement_diagonal():
    b = GramForm(Mat.diagonal([1, 2, 3]))
    assert ortho_complement_basis(b, Vec([1, 0, 0])) == [Vec([0, 1, 0]), Vec([0, 0, 1])]
    with pytest.raises(ZeroVector):
        ortho_complement_basis(b, Vec([0, 0, 0]))


def test_ortho_complement_rank3_family():
    # At m=3 and w=(1,1,1) the constraint is 18(v1 + v3) = 0.
    b = GramForm(rank3_family_gram(3))
    basis = ortho_complement_basis(b, Vec([1, 1, 1]))
    assert basis == [Vec([1, 0, -1]), Vec([0, 1, 0])]
    for v in basis:
        assert b.evaluate(Vec([1, 1, 1]), v) == 0


def test_ortho_complement_random_properties():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.choice([2, 3, 4, 5])
        b = GramForm(rand_sym_nondegenerate(rng, n))
        w = rand_anchor(rng, b.gram)
        basis = ortho_complement_basis(b, w)
        assert len(basis) == n - 1
        for v in basis:
            assert b.evaluate(w, v) == 0
        assert mat_from_cols([w] + basis).determinant() != 0


def test_adjoint_euclidean_is_transpose():
    b = GramForm(Mat.identity(3))
    m = Mat([[1, 2, 0], [0, 1, 4], [5, 6, 0]])
    assert adjoint(b, m) == m.transpose()


def test_adjoint_identity_and_involution():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.choice([2, 3, 4])
        b = GramForm(rand_sym_nondegenerate(rng, n))
        phi = rand_matrix(rng, n)
        dag = adjoint(b, phi)
        assert adjoint(b, dag) == phi
        for i in range(n):
            for j in range(n):
                x, y = Vec.unit(n, i), Vec.unit(n, j)
                assert b.evaluate(phi @ x, y) == b.evaluate(x, dag @ y)


def test_adjoint_of_outer_swaps_arguments():
    rng = random.Random(19)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        b = GramForm(rand_sym_nondegenerate(rng, n))
        u, v = rand_anchor(rng, b.gram), rand_anchor(rng, b.gram)
        assert adjoint(b, outer(b, u, v)) == outer(b, v, u)


def test_trace_form_values_and_symmetry():
    assert trace_form(GramForm(Mat.identity(4)), Mat.identity(4), Mat.identity(4)) == 4
    rng = random.Random(29)
    for _ in range(30):
        n = rng.choice([2, 3])
        b = GramForm(rand_sym_nondegenerate(rng, n))
        p1, p2 = rand_matrix(rng, n), rand_matrix(rng, n)
        lhs = trace_form(b, p1, p2)
        assert lhs == trace_form(b, p2, p1)
        assert lhs == (b.inverse_gram @ p1.transpose() @ b.gram @ p2).trace()


def test_trace_form_positive_definite():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.choice([2, 3])
        b = GramForm(rand_pd_gram(rng, n))
        phi = rand_matrix(rng, n)
        if phi == Mat.zero(n):
            continue
        assert trace_form(b, phi, phi) > 0


def test_pullback():
    b = GramForm(Mat.identity(4))
    assert pullback(b, Mat.identity(4)) == b
    assert pullback(b, WILSON_FACTOR).gram == WILSON
    rng = random.Random(43)
    for _ in range(25):
        n = rng.choice([2, 3])
        form = GramForm(rand_sym_nondegenerate(rng, n))
        phi = rand_matrix(rng, n)
        pb = pullback(form, phi)
        assert pb.gram == phi.transpose() @ form.gram @ phi
        assert pb.is_degenerate == (phi.determinant() == 0)
        for i in range(n):
            for j in range(n):
                x, y = Vec.unit(n, i), Vec.unit(n, j)
                assert pb.evaluate(x, y) == form.evaluate(phi @ x, phi @ y)


def test_pullback_functorial():
    rng = random.Random(47)
    for _ in range(25):
        n = rng.choice([2, 3])
        form = GramForm(rand_sym_nondegenerate(rng, n))
        phi, psi = rand_invertible(rng, n), rand_matrix(rng, n)
        assert pullback(form, phi @ psi) == pullback(pullback(form, phi), psi)


def test_polarized_pullback():
    b = GramForm(Mat.diagonal([1, 2, 3]))
    assert polarized_pullback(b, Mat.identity(3), Mat.identity(3)) == b
    rng = random.Random(53)
    for _ in range(25):
        n = rng.choice([2, 3])
        form = GramForm(rand_sym_nondegenerate(rng, n))
        p1, p2 = rand_matrix(rng, n), rand_matrix(rng, n)
        mixed = polarized_pullback(form, p1, p2)
        assert mixed.gram.is_symmetric()
        assert mixed.gram == polarized_pullback(form, p2, p1).gram
        assert polarized_pullback(form, p1, p1) == pullback(form, p1)
        # B_{p1+p2} = B_{p1} + 2 B_{p1,p2} + B_{p2}
        lhs = pullback(form, p1 + p2).gram
        rhs = pullback(form, p1).gram + 2 * mixed.gram + pullback(form, p2).gram
        assert lhs == rhs


def test_outer():
    b = GramForm(Mat.identity(3))
    e11 = Mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert outer(b, Vec.unit(3, 0), Vec.unit(3, 0)) == e11
    rng = random.Random(59)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        form = GramForm(rand_sym_nondegenerate(rng, n))
        u, v = rand_anchor(rng, form.gram), rand_anchor(rng, form.gram)
        m = outer(form, u, v)
        gv = form.gram @ v
        for i in range(n):
            for j in range(n):
                assert m[i, j] == u[i] * gv[j]
        x = rand_anchor(rng, form.gram)
        assert m @ x == form.evaluate(v, x) * u


def test_dual_membership():
    b = GramForm(Mat.diagonal([1, 5]))
    assert dual_membership(b, Vec([3, -2]))
    assert dual_membership(b, Vec([0, Fraction(1, 5)]))
    assert not dual_membership(b, Vec([Fraction(1, 2), 0]))
    with pytest.raises(NonIntegralForm):
        dual_membership(GramForm(Mat.diagonal([Fraction(1, 2), 1])), Vec([1, 0]))
