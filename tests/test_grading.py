"""Anchored grading: membership, bases, weights, decomposition, transport."""

import random
from fractions import Fraction

import pytest

from helpers import (
    rand_anchor,
    rand_invertible,
    rand_matrix,
    rand_rational_form,
    rand_rational_invertible,
    rand_sym_nondegenerate,
    rand_unimodular,
    rank,
    reference_is_even,
    reference_is_odd,
    reference_odd_vectors,
    reference_split,
)
from superlat.errors import IsotropicAnchor, NotEven, SingularMatrix, ZeroVector
from superlat.forms import (
    GramForm,
    adjoint,
    dual_membership,
    outer,
    polarized_pullback,
    trace_form,
)
from superlat.grading import (
    GradedContext,
    conjugate_transport,
    even_basis,
    full_decomposition,
    is_even,
    is_odd,
    odd_basis,
    split,
    weight,
)
from superlat.linalg import Mat, Vec


def make_ctx(rng: random.Random, n: int) -> GradedContext:
    form = GramForm(rand_sym_nondegenerate(rng, n))
    return GradedContext(form, rand_anchor(rng, form.gram))


def rand_perp(rng: random.Random, ctx: GradedContext) -> Vec:
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in ctx.perp_basis]
    v = Vec.zero(ctx.dim)
    for c, z in zip(coeffs, ctx.perp_basis):
        v = v + c * z
    return v


def test_context_validation():
    form = GramForm(Mat.diagonal([1, 2, 3]))
    ctx = GradedContext(form, Vec([1, 0, 0]))
    assert ctx.wnorm == 1
    assert len(ctx.perp_basis) == 2
    with pytest.raises(ZeroVector):
        GradedContext(form, Vec([0, 0, 0]))
    with pytest.raises(IsotropicAnchor):
        GradedContext(GramForm(Mat.diagonal([1, -1])), Vec([1, 1]))


def test_identity_and_outer_membership():
    rng = random.Random(3)
    for _ in range(20):
        ctx = make_ctx(rng, rng.choice([2, 3, 4]))
        n = ctx.dim
        assert is_even(ctx, Mat.identity(n))
        assert weight(ctx, Mat.identity(n)) == 1
        ww = outer(ctx.form, ctx.w, ctx.w)
        assert is_even(ctx, ww)
        assert weight(ctx, ww) == ctx.wnorm
        a, b = rand_perp(rng, ctx), rand_perp(rng, ctx)
        assert is_odd(ctx, outer(ctx.form, ctx.w, a))
        assert is_odd(ctx, outer(ctx.form, b, ctx.w))


# With B = diag(1,2,3) the grading has closed-form matrix patterns for the
# anchors (1,0,0) and (1,1,1).


def _axis_even(a, e, f, h, i):
    return Mat([[a, 0, 0], [0, e, f], [0, h, i]])


def _axis_odd(b, c, d, g):
    return Mat([[0, b, c], [d, 0, 0], [g, 0, 0]])


def _ones_even(a, b, c, d, e):
    return Mat(
        [
            [a, b, c],
            [d, e, a + b + c - d - e],
            [
                Fraction(b + c - 2 * d, 3),
                Fraction(2 * a + b + 2 * c - 2 * e, 3),
                Fraction(a + b + 2 * d + 2 * e, 3),
            ],
        ]
    )


def _ones_odd(f, g, h, i):
    return Mat(
        [
            [f, g, h],
            [i, -2 * f + g + 2 * i, -3 * f + h + 3 * i],
            [
                Fraction(4 * f - g - h - 2 * i, 3),
                Fraction(2 * f + g - 2 * h - 4 * i, 3),
                f - g - 2 * i,
            ],
        ]
    )


def test_diag123_closed_form_families():
    form = GramForm(Mat.diagonal([1, 2, 3]))
    axis = GradedContext(form, Vec([1, 0, 0]))
    ones = GradedContext(form, Vec([1, 1, 1]))
    rng = random.Random(5)
    for _ in range(20):
        p = [rng.randint(-4, 4) for _ in range(5)]
        assert is_even(axis, _axis_even(*p))
        assert is_odd(axis, _axis_odd(*p[:4]))
        assert is_even(ones, _ones_even(*p))
        assert is_odd(ones, _ones_odd(*p[:4]))
    # Families are exclusive once nonzero.
    assert not is_odd(axis, _axis_even(1, 0, 0, 0, 0))
    assert not is_even(axis, _axis_odd(1, 0, 0, 0))


def test_basis_sizes_and_independence():
    rng = random.Random(7)
    for n in range(2, 6):
        ctx = make_ctx(rng, n)
        ev, od = even_basis(ctx), odd_basis(ctx)
        assert len(ev) == n * n - 2 * n + 2
        assert len(od) == 2 * n - 2
        assert all(is_even(ctx, m) for m in ev)
        assert all(is_odd(ctx, m) for m in od)
        flat = Mat([
            [m[i, j] for i in range(n) for j in range(n)] for m in ev + od
        ])
        assert rank(flat) == n * n


def test_dimension_coincidence_with_symmetric_split_only_at_4():
    # (n^2-2n+2, 2n-2) matches (n(n+1)/2, n(n-1)/2) exactly at n = 4.
    for n in range(2, 8):
        even_dim, odd_dim = n * n - 2 * n + 2, 2 * n - 2
        sym, alt = n * (n + 1) // 2, n * (n - 1) // 2
        if n == 4:
            assert (even_dim, odd_dim) == (sym, alt)
        else:
            assert (even_dim, odd_dim) != (sym, alt)


def test_weight_all_ones_matrix():
    n = 4
    ctx = GradedContext(GramForm(Mat.identity(n)), Vec([1] * n))
    allones = Mat([[1] * n for _ in range(n)])
    assert weight(ctx, allones) == n


def test_weight_rejects_non_even():
    ctx = GradedContext(GramForm(Mat.identity(2)), Vec([1, 0]))
    with pytest.raises(NotEven):
        weight(ctx, Mat([[0, 1], [0, 0]]))


def test_weight_scales_anchor_pairings():
    # For even phi: B(w, phi u) = wt B(w, u) and B(u, phi w) = wt B(u, w).
    rng = random.Random(9)
    for _ in range(20):
        ctx = make_ctx(rng, 3)
        ev, _ = split(ctx, rand_matrix(rng, 3))
        wt = weight(ctx, ev)
        for u in [rand_anchor(rng, ctx.form.gram) for _ in range(3)]:
            assert ctx.form.evaluate(ctx.w, ev @ u) == wt * ctx.form.evaluate(ctx.w, u)
            assert ctx.form.evaluate(u, ev @ ctx.w) == wt * ctx.form.evaluate(u, ctx.w)


def test_split_even_and_odd_fixed_points():
    rng = random.Random(11)
    for _ in range(20):
        ctx = make_ctx(rng, rng.choice([2, 3, 4]))
        n = ctx.dim
        ev, od = split(ctx, Mat.identity(n))
        assert (ev, od) == (Mat.identity(n), Mat.zero(n))
        a, b = rand_perp(rng, ctx), rand_perp(rng, ctx)
        phi = outer(ctx.form, ctx.w, a) + outer(ctx.form, b, ctx.w)
        ev, od = split(ctx, phi)
        assert ev == Mat.zero(n)
        assert od == phi
        dec = full_decomposition(ctx, phi)
        assert (dec.a, dec.b) == (a, b)
        assert dec.wt == 0
        assert dec.phi0 == Mat.zero(n)


def test_split_random_properties():
    rng = random.Random(13)
    for _ in range(40):
        ctx = make_ctx(rng, rng.choice([2, 3, 4]))
        phi = rand_matrix(rng, ctx.dim)
        ev, od = split(ctx, phi)
        assert ev + od == phi
        assert is_even(ctx, ev)
        assert is_odd(ctx, od)
        # Idempotence: the even part has no odd component left.
        assert split(ctx, ev)[1] == Mat.zero(ctx.dim)


@pytest.mark.parametrize("definite", [True, False], ids=["definite", "indefinite"])
def test_grading_matches_the_pairing_references(definite):
    # The references in helpers test membership by pairings over the perp
    # basis and take (a, b) as perpendicular components, independently of
    # the projection that split uses.
    rng = random.Random(53 if definite else 59)
    for n in range(2, 6):
        for _ in range(8):
            form = rand_rational_form(rng, n, definite)
            ctx = GradedContext(form, rand_anchor(rng, form.gram))
            mixed = rand_rational_invertible(rng, n)
            ev, od = reference_split(ctx, mixed)
            assert reference_is_even(ctx, ev) and reference_is_odd(ctx, od)
            for phi in (ev, od, mixed):
                assert split(ctx, phi) == reference_split(ctx, phi)
                assert is_even(ctx, phi) == reference_is_even(ctx, phi)
                assert is_odd(ctx, phi) == reference_is_odd(ctx, phi)
                dec = full_decomposition(ctx, phi)
                assert (dec.a, dec.b) == reference_odd_vectors(ctx, phi)
                assert dec.wt == form.evaluate(ctx.w, phi @ ctx.w) / ctx.wnorm
                even = reference_split(ctx, phi)[0]
                assert dec.phi0 == even - (dec.wt / ctx.wnorm) * outer(form, ctx.w, ctx.w)


def test_degenerate_form_grades_each_map_once():
    # B = diag(1, 0), w = e1: split needs only B(w,w) != 0, and its parts
    # are the diagonal and off-diagonal blocks.  a is not unique on a
    # degenerate form, so full_decomposition raises.
    ctx = GradedContext(GramForm(Mat.diagonal([1, 0]), allow_degenerate=True), Vec([1, 0]))
    for rows in ([[0, 0], [0, 1]], [[1, 0], [0, 0]], [[0, 1], [1, 0]], [[0, 0], [1, 0]], [[1, 2], [3, 4]]):
        phi = Mat(rows)
        ev, od = split(ctx, phi)
        assert ev == Mat([[rows[0][0], 0], [0, rows[1][1]]])
        assert od == Mat([[0, rows[0][1]], [rows[1][0], 0]])
        if Mat.zero(2) in (ev, od):
            assert is_even(ctx, phi) != is_odd(ctx, phi)
        else:
            assert not is_even(ctx, phi) and not is_odd(ctx, phi)
    with pytest.raises(SingularMatrix):
        full_decomposition(ctx, Mat.identity(2))


def test_split_semi_magic():
    rng = random.Random(17)
    ctx = GradedContext(GramForm(Mat.identity(4)), Vec([1, 1, 1, 1]))
    for _ in range(10):
        ev, _ = split(ctx, rand_matrix(rng, 4))
        rowsums = {sum(r) for r in ev.rows}
        colsums = {sum(c) for c in ev.transpose().rows}
        assert len(rowsums) == 1 and rowsums == colsums


def test_full_decomposition_identity():
    ctx = GradedContext(GramForm(Mat.diagonal([1, 2, 3])), Vec([1, 1, 1]))
    dec = full_decomposition(ctx, Mat.identity(3))
    assert dec.wt == 1
    assert dec.a == Vec.zero(3) and dec.b == Vec.zero(3)
    assert dec.phi0 == Mat.identity(3) - (1 / ctx.wnorm) * outer(
        ctx.form, ctx.w, ctx.w
    )
    assert dec.reassemble(ctx) == Mat.identity(3)


def test_full_decomposition_invariants_random():
    rng = random.Random(19)
    for _ in range(60):
        ctx = make_ctx(rng, rng.choice([2, 3, 4]))
        phi = rand_matrix(rng, ctx.dim)
        dec = full_decomposition(ctx, phi)
        assert ctx.form.evaluate(ctx.w, dec.a) == 0
        assert ctx.form.evaluate(ctx.w, dec.b) == 0
        assert dec.phi0 @ ctx.w == Vec.zero(ctx.dim)
        assert adjoint(ctx.form, dec.phi0) @ ctx.w == Vec.zero(ctx.dim)
        assert weight(ctx, dec.phi0) == 0
        assert dec.reassemble(ctx) == phi


def test_full_decomposition_integrality_for_unimodular():
    # Integral form, phi in GL(Z^n): N^2 a is in the dual lattice and
    # N^2 b is integral, N = B(w,w).
    rng = random.Random(23)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        form = GramForm(rand_sym_nondegenerate(rng, n))
        ctx = GradedContext(form, rand_anchor(rng, form.gram))
        phi = rand_unimodular(rng, n)
        dec = full_decomposition(ctx, phi)
        nsq = ctx.wnorm * ctx.wnorm
        assert dual_membership(form, nsq * dec.a)
        assert (nsq * dec.b).is_integral()


def test_trace_form_orthogonality():
    rng = random.Random(29)
    for _ in range(15):
        ctx = make_ctx(rng, rng.choice([2, 3]))
        for e in even_basis(ctx):
            for o in odd_basis(ctx):
                assert trace_form(ctx.form, e, o) == 0
        ev, od = split(ctx, rand_matrix(rng, ctx.dim))
        assert trace_form(ctx.form, ev, od) == 0


def _rand_even(rng, ctx):
    phi = Mat.zero(ctx.dim)
    for m in even_basis(ctx):
        phi = phi + Fraction(rng.randint(-2, 2), rng.randint(1, 2)) * m
    return phi


def test_grading_closure_and_weight_multiplicativity():
    rng = random.Random(31)
    for _ in range(15):
        ctx = make_ctx(rng, rng.choice([2, 3]))
        ev, od = even_basis(ctx), odd_basis(ctx)
        for x in ev:
            assert all(is_even(ctx, x @ y) for y in ev)
            assert all(is_odd(ctx, x @ y) and is_odd(ctx, y @ x) for y in od)
        for x in od:
            assert all(is_even(ctx, x @ y) for y in od)
        p1, p2 = _rand_even(rng, ctx), _rand_even(rng, ctx)
        assert weight(ctx, p1 @ p2) == weight(ctx, p1) * weight(ctx, p2)


def test_odd_product_weight():
    rng = random.Random(37)
    for _ in range(25):
        ctx = make_ctx(rng, rng.choice([2, 3, 4]))
        a1, b1 = rand_perp(rng, ctx), rand_perp(rng, ctx)
        a2, b2 = rand_perp(rng, ctx), rand_perp(rng, ctx)
        p3 = outer(ctx.form, ctx.w, a1) + outer(ctx.form, b1, ctx.w)
        p4 = outer(ctx.form, ctx.w, a2) + outer(ctx.form, b2, ctx.w)
        prod = p3 @ p4
        assert is_even(ctx, prod)
        assert weight(ctx, prod) == ctx.form.evaluate(a1, b2) * ctx.wnorm


def test_adjoint_stability():
    rng = random.Random(41)
    for _ in range(25):
        ctx = make_ctx(rng, rng.choice([2, 3, 4]))
        phi = rand_matrix(rng, ctx.dim)
        ev, od = split(ctx, phi)
        assert is_even(ctx, adjoint(ctx.form, ev))
        assert is_odd(ctx, adjoint(ctx.form, od))
        # Adjoint swaps the odd vectors.
        dec = full_decomposition(ctx, phi)
        dag = full_decomposition(ctx, adjoint(ctx.form, phi))
        assert (dag.a, dag.b) == (dec.b, dec.a)


def test_mixed_polarized_terms_vanish():
    # Cross terms of the four-term expansion pair to zero against (w, w)
    # and (w, z) for z perp to w.
    rng = random.Random(43)
    for _ in range(15):
        ctx = make_ctx(rng, 3)
        dec = full_decomposition(ctx, rand_matrix(rng, 3))
        b, w = ctx.form, ctx.w
        t1 = polarized_pullback(b, dec.phi0, outer(b, w, dec.a))
        t2 = polarized_pullback(b, outer(b, w, w), outer(b, dec.b, w))
        for z in ctx.perp_basis:
            for mixed in (t1, t2):
                assert mixed.evaluate(w, w) == 0
                assert mixed.evaluate(w, z) == 0


def test_conjugate_transport():
    rng = random.Random(47)
    ctx0 = GradedContext(GramForm(Mat.diagonal([1, 2, 3])), Vec([1, 1, 1]))
    new_ctx, psi = conjugate_transport(ctx0, Mat.identity(3), _ones_even(1, 2, 0, 1, 1))
    assert new_ctx.form == ctx0.form and new_ctx.w == ctx0.w
    assert psi == _ones_even(1, 2, 0, 1, 1)
    for _ in range(20):
        ctx = make_ctx(rng, rng.choice([2, 3]))
        phi = rand_invertible(rng, ctx.dim)
        for m in even_basis(ctx):
            nctx, moved = conjugate_transport(ctx, phi, m)
            assert is_even(nctx, moved)
        for m in odd_basis(ctx):
            nctx, moved = conjugate_transport(ctx, phi, m)
            assert is_odd(nctx, moved)
