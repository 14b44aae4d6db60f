"""The anchored Z/2-grading of End(V) induced by a form and a vector.

Fixing a nondegenerate symmetric form B and an anchor w with B(w,w) != 0
splits V as Kw + {w}^perp and End(V) into an even part (maps preserving
the split, acting on the line by a scalar weight) and an odd part (maps
exchanging the two summands).  The pieces multiply like a superalgebra:
even*even and odd*odd land in even, mixed products in odd.

Everything here is constructive: membership tests quantify over a fixed
basis of {w}^perp, and the four-term decomposition of an arbitrary map is
read off from its action on w and its adjoint's action on w.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, IsotropicAnchor, NotEven, ZeroVector
from .forms import Endo, GramForm, adjoint, ortho_complement_basis, outer
from .linalg import Vec


class GradedContext:
    """A form B and anchor w with B(w,w) != 0, plus a fixed perp basis.

    Immutable after construction; all grading operations take the context
    as their first argument.
    """

    def __init__(self, form: GramForm, w: Vec):
        if w.is_zero():
            raise ZeroVector("anchor must be nonzero")
        if len(w) != form.dim:
            raise DimensionMismatch("anchor dimension does not match form")
        self.form = form
        self.w = w
        self.wnorm: Fraction = form.norm(w)
        if self.wnorm == 0:
            raise IsotropicAnchor("anchor has B(w,w) = 0")
        self.perp_basis: list[Vec] = ortho_complement_basis(form, w)

    @property
    def dim(self) -> int:
        return self.form.dim


def is_even(ctx: GradedContext, phi: Endo) -> bool:
    """Whether phi maps Kw to Kw and {w}^perp to {w}^perp.

    Tested as B(u, phi w) = B(w, phi u) = 0 for every perp-basis u;
    bilinearity extends the test to all of {w}^perp.
    """
    _check(ctx, phi)
    b, w = ctx.form, ctx.w
    phw = phi @ w
    return all(
        b.evaluate(u, phw) == 0 and b.evaluate(w, phi @ u) == 0
        for u in ctx.perp_basis
    )


def is_odd(ctx: GradedContext, phi: Endo) -> bool:
    """Whether phi exchanges Kw and {w}^perp.

    Tested as B(u, phi v) = 0 on all perp-basis pairs plus B(w, phi w) = 0.
    """
    _check(ctx, phi)
    b, w = ctx.form, ctx.w
    if b.evaluate(w, phi @ w) != 0:
        return False
    images = [phi @ v for v in ctx.perp_basis]
    return all(
        b.evaluate(u, img) == 0 for u in ctx.perp_basis for img in images
    )


def even_basis(ctx: GradedContext) -> list[Endo]:
    """Basis of the even part: outer(w,w) plus outer(z_i,z_j) over perp pairs.

    Size (n-1)^2 + 1 = n^2 - 2n + 2.
    """
    b, w, zs = ctx.form, ctx.w, ctx.perp_basis
    return [outer(b, w, w)] + [outer(b, zi, zj) for zi in zs for zj in zs]


def odd_basis(ctx: GradedContext) -> list[Endo]:
    """Basis of the odd part: outer(w,z_i) and outer(z_i,w); size 2n - 2."""
    b, w, zs = ctx.form, ctx.w, ctx.perp_basis
    return [outer(b, w, z) for z in zs] + [outer(b, z, w) for z in zs]


def weight(ctx: GradedContext, phi: Endo) -> Fraction:
    """The scalar by which an even phi acts on the line Kw: B(w, phi w)/B(w,w).

    Defined only on the even part; non-members are rejected.
    """
    if not is_even(ctx, phi):
        raise NotEven("weight is defined only for even endomorphisms")
    return ctx.form.evaluate(ctx.w, phi @ ctx.w) / ctx.wnorm


def _odd_vectors(ctx: GradedContext, phi: Endo) -> tuple[Vec, Vec]:
    """The unique (a, b) perp to w with odd part outer(w,a) + outer(b,w).

    b is the perp component of phi(w)/B(w,w); a the perp component of
    adjoint(phi)(w)/B(w,w).
    """
    b_form, w, n = ctx.form, ctx.w, ctx.wnorm
    phw = phi @ w
    bvec = (1 / n) * (phw - (b_form.evaluate(w, phw) / n) * w)
    dgw = adjoint(b_form, phi) @ w
    avec = (1 / n) * (dgw - (b_form.evaluate(w, dgw) / n) * w)
    return avec, bvec


def split(ctx: GradedContext, phi: Endo) -> tuple[Endo, Endo]:
    """Decompose phi = even + odd along the grading."""
    _check(ctx, phi)
    avec, bvec = _odd_vectors(ctx, phi)
    odd = outer(ctx.form, ctx.w, avec) + outer(ctx.form, bvec, ctx.w)
    return phi - odd, odd


@dataclass(frozen=True)
class GradedDecomposition:
    """Four-term form of an endomorphism: phi0 + (wt/B(w,w)) outer(w,w)
    + outer(w,a) + outer(b,w), with phi0 even of weight 0 and a, b perp
    to w."""

    phi0: Endo
    wt: Fraction
    a: Vec
    b: Vec

    def reassemble(self, ctx: GradedContext) -> Endo:
        b_form, w = ctx.form, ctx.w
        return (
            self.phi0
            + (self.wt / ctx.wnorm) * outer(b_form, w, w)
            + outer(b_form, w, self.a)
            + outer(b_form, self.b, w)
        )


def full_decomposition(ctx: GradedContext, phi: Endo) -> GradedDecomposition:
    """Split phi into weight-zero even part, weight term and odd vectors."""
    _check(ctx, phi)
    avec, bvec = _odd_vectors(ctx, phi)
    odd = outer(ctx.form, ctx.w, avec) + outer(ctx.form, bvec, ctx.w)
    even = phi - odd
    wt = weight(ctx, even)
    phi0 = even - (wt / ctx.wnorm) * outer(ctx.form, ctx.w, ctx.w)
    return GradedDecomposition(phi0, wt, avec, bvec)


def conjugate_transport(
    ctx: GradedContext, phi: Endo, psi: Endo
) -> tuple[GradedContext, Endo]:
    """Transport psi along conjugation by an invertible phi.

    Returns the context (B_phi, phi^{-1} w) together with phi^{-1} psi phi;
    the grading is preserved: even maps stay even, odd stay odd.
    """
    _check(ctx, phi)
    _check(ctx, psi)
    inv = phi.inverse()
    new_form = GramForm(phi.transpose() @ ctx.form.gram @ phi)
    new_ctx = GradedContext(new_form, inv @ ctx.w)
    return new_ctx, inv @ psi @ phi


def _check(ctx: GradedContext, phi: Endo) -> None:
    if not phi.is_square or phi.nrows != ctx.dim:
        raise DimensionMismatch("endomorphism dimension does not match context")
