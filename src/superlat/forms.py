"""Symmetric bilinear forms, adjoints, pullbacks and the trace form.

A form is held as its Gram matrix in a fixed basis; endomorphisms are
plain square matrices in that same basis.  Everything is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import (
    DimensionMismatch,
    InvalidForm,
    NonIntegralForm,
    ZeroVector,
)
from .linalg import Mat, Vec, _cleared, _det, integer_kernel_basis

# Endomorphisms carry no extra state beyond their matrix.
Endo = Mat


def gram_rows(gram: Mat | tuple, allow_degenerate: bool = False):
    """((d, d G), det d G) for the Gram matrix G, given as a Mat or as the
    pair (d, d G) that _cleared gives, its rows tuples: d the lcm of the
    denominators of G.  InvalidForm unless G is symmetric and, without
    allow_degenerate, det G != 0.  GramForm and the oracle read B and B'
    so."""
    d, rows = _cleared(gram.rows) if isinstance(gram, Mat) else gram
    if rows != tuple(zip(*rows)):
        raise InvalidForm("Gram matrix must be symmetric")
    det = _det(rows)
    if not det and not allow_degenerate:
        raise InvalidForm("Gram matrix is degenerate")
    return (d, rows), det


class GramForm:
    """Nondegenerate symmetric bilinear form via its Gram matrix, given
    as gram_rows takes it: a Mat or the cleared pair (d, d G).

    Degenerate Gram matrices are rejected unless allow_degenerate is set;
    pullbacks along singular maps use that escape hatch and are flagged
    by is_degenerate.  cleared is the pair (d, d G) of gram_rows.  The
    Mat gram, when not given, and the Fraction det are built when first
    read.
    """

    def __init__(self, gram: Mat | tuple, allow_degenerate: bool = False):
        self.cleared, self._det = gram_rows(gram, allow_degenerate)
        self.dim = len(self.cleared[1])
        if isinstance(gram, Mat):
            self.gram = gram

    @cached_property
    def gram(self) -> Mat:
        return Mat._of_cleared(*self.cleared)

    @cached_property
    def det(self) -> Fraction:
        return Fraction(self._det, self.cleared[0] ** self.dim)

    @property
    def is_degenerate(self) -> bool:
        return not self._det

    @cached_property
    def inverse_gram(self) -> Mat:
        return self.gram.inverse()

    def evaluate(self, u: Vec, v: Vec) -> Fraction:
        """B(u, v) = u^T gram v."""
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("vector dimension does not match form")
        return u.dot(self.gram @ v)

    def norm(self, v: Vec) -> Fraction:
        """B(v, v)."""
        return self.evaluate(v, v)

    def is_integral(self) -> bool:
        return self.cleared[0] == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, GramForm) and self.cleared == other.cleared

    def __repr__(self) -> str:
        return f"GramForm({self.gram!r})"


def ortho_complement_basis(form: GramForm, w: Vec) -> list[Vec]:
    """Basis of {v : B(w, v) = 0}, as n-1 integer vectors.

    The returned vectors span the orthogonal complement over Q and, when
    the Gram matrix is integral, also generate the full sublattice
    Z^n ∩ {w}^perp (they come from the integer kernel of the functional
    v -> B(w, v) in Hermite-reduced form).
    """
    if w.is_zero():
        raise ZeroVector("orthogonal complement of the zero vector")
    if len(w) != form.dim:
        raise DimensionMismatch("vector dimension does not match form")
    return list(map(Vec, integer_kernel_basis(form.gram @ w)))


def adjoint(form: GramForm, phi: Endo) -> Endo:
    """Adjoint of phi: B(phi x, y) = B(x, adjoint(phi) y); matrix G^-1 M^T G."""
    _check_endo(form, phi)
    return form.inverse_gram @ phi.transpose() @ form.gram


def trace_form(form: GramForm, phi1: Endo, phi2: Endo) -> Fraction:
    """Trace form on endomorphisms: Tr(adjoint(phi1) phi2)."""
    _check_endo(form, phi1)
    _check_endo(form, phi2)
    return (adjoint(form, phi1) @ phi2).trace()


def pullback(form: GramForm, phi: Endo) -> GramForm:
    """The form B_phi(x, y) = B(phi x, phi y); Gram matrix M^T G M.

    Degenerate when phi is singular; the result is flagged, not rejected.
    """
    _check_endo(form, phi)
    return GramForm(phi.transpose() @ form.gram @ phi, allow_degenerate=True)


def polarized_pullback(form: GramForm, phi1: Endo, phi2: Endo) -> GramForm:
    """Symmetrized mixed pullback: (B(phi1 x, phi2 y) + B(phi1 y, phi2 x)) / 2."""
    _check_endo(form, phi1)
    _check_endo(form, phi2)
    m = phi1.transpose() @ form.gram @ phi2
    half = Fraction(1, 2)
    return GramForm(half * (m + m.transpose()), allow_degenerate=True)


def outer(form: GramForm, u: Vec, v: Vec) -> Endo:
    """Rank-one endomorphism x -> B(v, x) u; matrix u v^T G."""
    if len(u) != form.dim or len(v) != form.dim:
        raise DimensionMismatch("vector dimension does not match form")
    gv = form.gram @ v
    return Mat(tuple(ui * gvj for gvj in gv.entries) for ui in u.entries)


def dual_membership(form: GramForm, v: Vec) -> bool:
    """Whether v lies in the dual lattice {x : B(u, x) in Z for all u in Z^n}.

    Requires an integral Gram matrix; membership then reduces to G v
    having integer entries.
    """
    if not form.is_integral():
        raise NonIntegralForm("dual lattice needs an integral Gram matrix")
    if len(v) != form.dim:
        raise DimensionMismatch("vector dimension does not match form")
    return (form.gram @ v).is_integral()


def _check_endo(form: GramForm, phi: Endo) -> None:
    if not phi.is_square or phi.nrows != form.dim:
        raise DimensionMismatch("endomorphism dimension does not match form")
