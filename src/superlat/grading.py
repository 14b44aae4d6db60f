"""The anchored Z/2-grading of End(V) induced by a form and a vector.

Fixing a symmetric form B and an anchor w with B(w,w) != 0 splits V as
Kw + {w}^perp and End(V) into an even part (maps preserving the split,
acting on the line by a scalar weight) and an odd part (maps exchanging
the two summands).  The pieces multiply like a superalgebra: even*even and
odd*odd land in even, mixed products in odd.

Membership, the split and the four-term decomposition are all read off
the rank-one projection P = outer(w,w)/B(w,w) onto Kw along {w}^perp: the
odd part of phi is P phi + phi P - 2 P phi P.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, IsotropicAnchor, NotEven, ZeroVector
from .forms import Endo, GramForm, adjoint, ortho_complement_basis, outer
from .linalg import Mat, Vec


class GradedContext:
    """A form B, an anchor w with B(w,w) != 0, the projection line onto Kw
    along {w}^perp, and a fixed perp basis.

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
        self.line: Endo = (1 / self.wnorm) * outer(form, w, w)
        self.perp_basis: list[Vec] = ortho_complement_basis(form, w)

    @property
    def dim(self) -> int:
        return self.form.dim


def is_even(ctx: GradedContext, phi: Endo) -> bool:
    """Whether phi maps Kw to Kw and {w}^perp to {w}^perp: its odd part is zero."""
    return split(ctx, phi)[1] == Mat.zero(ctx.dim)


def is_odd(ctx: GradedContext, phi: Endo) -> bool:
    """Whether phi exchanges Kw and {w}^perp: its even part is zero."""
    return split(ctx, phi)[0] == Mat.zero(ctx.dim)


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


def split(ctx: GradedContext, phi: Endo) -> tuple[Endo, Endo]:
    """Decompose phi = even + odd along the grading.

    With P = ctx.line, odd = P phi + phi P - 2 wt P, wt = B(w, phi w)/B(w,w),
    since P phi P = wt P for the rank-one P.  Needs only B(w,w) != 0, so a
    degenerate form splits too.
    """
    _check(ctx, phi)
    p = ctx.line
    wt = ctx.form.evaluate(ctx.w, phi @ ctx.w) / ctx.wnorm
    odd = p @ phi + phi @ p - (2 * wt) * p
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
    """Split phi into weight-zero even part, weight term and odd vectors:
    b = odd(w)/B(w,w), a = adjoint(odd)(w)/B(w,w).  a is unique only for a
    nondegenerate B; on a degenerate one the adjoint raises SingularMatrix."""
    even, odd = split(ctx, phi)
    w, n = ctx.w, ctx.wnorm
    wt = ctx.form.evaluate(w, even @ w) / n
    a = (1 / n) * (adjoint(ctx.form, odd) @ w)
    return GradedDecomposition(even - wt * ctx.line, wt, a, (1 / n) * (odd @ w))


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
