"""Integral isometry search between lattices presented by Gram matrices.

Deciding whether B' = M^T B M for some M in GL_n(Z) is reduced, through the
anchored grading of End(Q^n), to three families of integer equations in the
scaled decomposition data of a hypothetical isometry: with N = B(w,w),
s = B(w, phi w), btilde in the sublattice K = Z^n cap {w}^perp, t_i integers
and c_i in K (one pair per probe vector), any isometry must satisfy

    eq1:  N^2 B'(w,w)        = N s^2 + B(btilde, btilde)
    eq2:  N^2 B'(w, zhat_i)  = N s t_i + B(btilde, c_i)
    eq3:  N^2 B'(zhat_i, zhat_i) = B(c_i, c_i) + N t_i^2

where zhat_i = N z0_i - B(z0_i, w) w is the (scaled) component of the i-th
probe orthogonal to w.  For positive definite B each equation is a norm
equation in K with finitely many solutions; surviving tuples are filtered
by eq2 and by the polarized version of eq3 across probe pairs, then turned
back into explicit candidate matrices and verified exactly.

The module also houses the infinite-family obstructions (two- and
three-squares) and an independent brute-force oracle used to validate the
pipeline at desk scale.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from .diophantine import (
    PosDefForm,
    three_squares_representable,
    two_squares_representable,
    vectors_of_norm,
)
from .errors import (
    BadFamilyParams,
    DegenerateProbe,
    DimensionMismatch,
    InvalidProblem,
    IsotropicAnchor,
    NonIntegralForm,
    NotPositiveDefinite,
    ZeroVector,
)
# dual_membership is not called here (reconstruct tests dual membership
# in integers); it is imported so that perfbench/spans.py can wrap
# isometry.dual_membership.
from .forms import GramForm, dual_membership  # noqa: F401
from .linalg import Mat, Vec, integer_kernel_basis

_ReconTables = namedtuple("_ReconTables", "w betas adj_cols db den dp pair")

VERDICTS = (
    "IsometricWitness",
    "NoIntegralIsometry",
    "ObstructionEq1",
    "ObstructionTwoSquares",
    "ObstructionThreeSquares",
    "ObstructionDeterminant",
    "Inconclusive",
)


class IsometryProblem:
    """Search data: integral forms B (source) and B' (target), an integer
    anchor w with B(w,w) != 0, and n-1 integer probe vectors completing w
    to a basis of Q^n.

    The default probes are the standard basis vectors with the coordinate
    of largest |w_i| dropped (first such index on ties), which always
    yields a basis.  The constructor precomputes the kernel sublattice
    K = Z^n cap {w}^perp, its Gram matrix, and the integer constants of
    the three equations.
    """

    def __init__(
        self,
        source: GramForm,
        target: GramForm,
        w: Vec,
        probes: list[Vec] | None = None,
    ):
        if source.dim != target.dim:
            raise DimensionMismatch("source and target dimensions differ")
        if not source.is_integral() or not target.is_integral():
            raise NonIntegralForm("both Gram matrices must be integral")
        if len(w) != source.dim:
            raise DimensionMismatch("anchor dimension does not match forms")
        if w.is_zero():
            raise ZeroVector("anchor must be nonzero")
        if not w.is_integral():
            raise InvalidProblem("anchor must be an integer vector")
        self.source = source
        self.target = target
        self.w = w
        self.det_mismatch = source.det != target.det
        n = source.dim
        wnorm = source.norm(w)
        if wnorm == 0:
            raise IsotropicAnchor("anchor has B(w,w) = 0")
        self.wnorm = int(wnorm)

        if probes is None:
            drop = max(range(n), key=lambda i: (abs(w[i]), -i))
            probes = [Vec.unit(n, i) for i in range(n) if i != drop]
        if len(probes) != n - 1:
            raise InvalidProblem(f"need {n - 1} probes, got {len(probes)}")
        for z0 in probes:
            if not z0.is_integral():
                raise InvalidProblem("probes must be integer vectors")
        self.probes = list(probes)
        if Mat.from_cols([w] + self.probes).determinant() == 0:
            raise DegenerateProbe("anchor and probes do not form a basis")

        self.kernel_basis = integer_kernel_basis(source.gram @ w)
        self.kernel_gram = Mat(
            tuple(source.evaluate(ki, kj) for kj in self.kernel_basis)
            for ki in self.kernel_basis
        )
        self._kpdf: PosDefForm | None = None

        # Integer caches for the filtering hot loops.
        nint = self.wnorm
        self._k_rows = tuple(k.to_ints() for k in self.kernel_basis)
        self._gk_rows = tuple(
            tuple(int(x) for x in r) for r in self.kernel_gram.rows
        )
        self.zhat = [nint * z0 - source.evaluate(z0, w) * w for z0 in self.probes]
        for zh in self.zhat:
            if zh.is_zero():
                raise DegenerateProbe("probe lies on the anchor line")
        self.eq1_target = nint * nint * int(target.norm(w))
        self.eq2_targets = tuple(
            nint * nint * int(target.evaluate(w, zh)) for zh in self.zhat
        )
        self.eq3_targets = tuple(
            tuple(nint * nint * int(target.evaluate(zi, zj)) for zj in self.zhat)
            for zi in self.zhat
        )
        self._recon: _ReconTables | None = None
        self._grams: tuple | None = None

    @property
    def dim(self) -> int:
        return self.source.dim

    def kernel_posdef(self) -> PosDefForm:
        """Positive definite form on K; requires a definite source form."""
        if self._kpdf is None:
            if not self.source.is_positive_definite:
                raise NotPositiveDefinite("search requires positive definite B")
            self._kpdf = PosDefForm(self.kernel_gram)
        return self._kpdf

    def _recon_tables(self) -> _ReconTables:
        """Integer tables for reconstruct, built on first use.

        With P = (w | z0_1 ...), db the lcm of the denominators of P^-1
        and adj = db P^-1 (kept by columns), a candidate is M = C adj / den
        for den = N^2 db, where C has the integer columns N (s w + btilde)
        and c_i + t_i w + B(z0_i, w)(s w + btilde).  atilde solves
        P^T B atilde = (0, t), so it lies in the dual lattice iff
        B atilde = P^-T (0, t) is integral, i.e. iff db divides
        adj^T (0, t); then atilde = pair (0, t) / dp.
        """
        if self._recon is None:
            w, basis = self.w, Mat.from_cols([self.w] + self.probes)
            db, adj = _cleared(basis.inverse())
            dp, pair = _cleared((basis.transpose() @ self.source.gram).inverse())
            betas = tuple(int(self.source.evaluate(z0, w)) for z0 in self.probes)
            self._recon = _ReconTables(
                w.to_ints(), betas, tuple(zip(*adj)), db, self.wnorm**2 * db, dp, pair
            )
        return self._recon

    def is_isometry(self, m: Mat) -> bool:
        """Exact test of M^T B M = B', run in integers on the numerator of
        M over the lcm of its denominators."""
        if m.nrows != self.dim or m.ncols != self.dim:
            return False
        den, num = _cleared(m)
        return self.pulls_back(num, den)

    def pulls_back(self, num, den: int) -> bool:
        """Whether num^T B num = den^2 B' for integer n x n rows num, i.e.
        whether M = num / den solves M^T B M = B'."""
        if self._grams is None:
            self._grams = (_cleared(self.source.gram)[1], _cleared(self.target.gram)[1])
        gram, target = self._grams
        cols = list(zip(*num))
        gcols = [tuple(_dot(grow, col) for grow in gram) for col in cols]
        d2 = den * den
        for i, (ci, trow) in enumerate(zip(cols, target)):
            for j in range(i, len(cols)):
                if _dot(ci, gcols[j]) != d2 * trow[j]:
                    return False
        return True

    def from_kernel_coords(self, coords: tuple[int, ...]) -> Vec:
        """Map K-coordinates back to an ambient integer vector."""
        return Vec([_dot(coords, col) for col in zip(*self._k_rows)])


def _cleared(m: Mat) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, d * m) with d the lcm of the denominators of m."""
    d = lcm(*(x.denominator for row in m.rows for x in row))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in m.rows)


@dataclass(frozen=True)
class Eq1Solution:
    """One solution of eq1: the anchor pairing s and the vector btilde
    (given both ambiently and in kernel coordinates)."""

    s: int
    btilde: Vec
    coords: tuple[int, ...]


@dataclass(frozen=True)
class Eq3Solution:
    """One per-probe solution of eq3: the dual pairing t and the kernel
    vector c, with cached Gram products for the filtering loops."""

    t: int
    c: Vec
    coords: tuple[int, ...]
    cnorm: int
    gcoords: tuple[int, ...]


@dataclass(frozen=True)
class CandidateIsometry:
    """A matrix passing the exact verification M^T B M = B', together
    with the solution tuple it was reconstructed from."""

    matrix: Mat
    integral: bool
    provenance: tuple


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable verdict; detail carries the evaluated constants
    needed to re-check it without re-running the full search."""

    verdict: str
    witness: CandidateIsometry | None = None
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SearchStats:
    """Per-stage counts; raw counts are sign-complete, canonical counts
    keep one of each tuple pair related by global negation."""

    eq1_raw: int = 0
    eq1_canonical: int = 0
    eq3_per_probe: tuple[int, ...] = ()
    joint_raw: int = 0
    joint_canonical: int = 0
    candidates: int = 0
    integral: int = 0


@dataclass(frozen=True)
class SearchResult:
    candidates: list[CandidateIsometry]
    certificate: Certificate
    stats: SearchStats


def _dot(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    return sum(map(mul, x, y))


def _canonical_sign(seq) -> bool:
    for x in seq:
        if x:
            return x > 0
    return True


def solve_eq1(problem: IsometryProblem) -> list[Eq1Solution]:
    """All integer pairs (s, btilde) with
    N^2 B'(w,w) = N s^2 + B(btilde, btilde), sign-complete, ordered by s
    then lexicographically by kernel coordinates."""
    qk = problem.kernel_posdef()
    n_int = problem.wnorm
    e1 = problem.eq1_target
    if e1 < 0:
        return []
    smax = isqrt(e1 // n_int)
    out: list[Eq1Solution] = []
    for s in range(-smax, smax + 1):
        target = e1 - n_int * s * s
        for coords in vectors_of_norm(qk, target):
            out.append(Eq1Solution(s, problem.from_kernel_coords(coords), coords))
    return out


def solve_eq3_per_z0(problem: IsometryProblem, z0: Vec) -> list[Eq3Solution]:
    """All integer pairs (t, c) with
    N^2 B'(zhat, zhat) = B(c, c) + N t^2 for the probe z0, ordered by t
    then lexicographically by kernel coordinates."""
    if not z0.is_integral():
        raise InvalidProblem("probe must be an integer vector")
    qk = problem.kernel_posdef()
    n_int = problem.wnorm
    zhat = n_int * z0 - problem.source.evaluate(z0, problem.w) * problem.w
    if zhat.is_zero():
        raise DegenerateProbe("probe lies on the anchor line")
    bpzz = int(problem.target.norm(zhat))
    r = n_int * n_int * bpzz
    if r < 0:
        return []
    gk = problem._gk_rows
    tmax = isqrt(r // n_int)
    out: list[Eq3Solution] = []
    for t in range(-tmax, tmax + 1):
        target = r - n_int * t * t
        for coords in vectors_of_norm(qk, target):
            gcoords = tuple(_dot(row, coords) for row in gk)
            out.append(
                Eq3Solution(
                    t, problem.from_kernel_coords(coords), coords, target, gcoords
                )
            )
    return out


def filter_eq2(
    problem: IsometryProblem,
    e1: Eq1Solution,
    per_probe: list[list[Eq3Solution]],
    cs_prune: bool = False,
) -> list[list[Eq3Solution]]:
    """Keep per-probe candidates compatible with eq2 for the given eq1
    solution: N^2 B'(w, zhat_i) = N s t + B(btilde, c).

    cs_prune is accepted for compatibility and has no effect: a
    Cauchy-Schwarz pre-test keeps the same set and measured slower than
    the exact pairing alone.
    """
    ns, xb = problem.wnorm * e1.s, e1.coords
    # _dot inlined: this is the innermost loop of the search.
    return [
        [c for c in cands if sum(map(mul, xb, c.gcoords)) + ns * c.t == e2]
        for e2, cands in zip(problem.eq2_targets, per_probe)
    ]


def _assemble(
    problem: IsometryProblem, filtered: list[list[Eq3Solution]]
):
    """Yield per-probe combinations consistent across probe pairs:
    B(c_i, c_j) + N t_i t_j = N^2 B'(zhat_i, zhat_j)."""
    n_int = problem.wnorm
    e3 = problem.eq3_targets
    k = len(filtered)
    chosen: list[Eq3Solution | None] = [None] * k

    def rec(i: int):
        if i == k:
            yield tuple(chosen)
            return
        for cand in filtered[i]:
            ok = True
            for j in range(i):
                prev = chosen[j]
                if _dot(cand.coords, prev.gcoords) + n_int * cand.t * prev.t != e3[i][j]:
                    ok = False
                    break
            if ok:
                chosen[i] = cand
                yield from rec(i + 1)
        chosen[i] = None

    yield from rec(0)


def reconstruct(
    problem: IsometryProblem,
    e1: Eq1Solution,
    picks: tuple[Eq3Solution, ...],
) -> CandidateIsometry | None:
    """Rebuild the candidate matrix from a surviving tuple, or None.

    atilde is solved exactly from B(atilde, w) = 0 and
    B(atilde, z0_i) = t_i, and must lie in the dual lattice; the matrix
    is assembled columnwise from phi(w) = (s w + btilde)/N and
    phi(z_i) = (c_i + t_i w)/N^2, then verified exactly against the
    target form before emission.  All of this runs in integers over one
    common denominator (see IsometryProblem._recon_tables); Fractions are
    built only for a candidate that passes.
    """
    tab = problem._recon_tables()
    ts = [0] + [cand.t for cand in picks]
    db = tab.db
    for col in tab.adj_cols:
        if _dot(col, ts) % db:
            return None
    s, w = e1.s, tab.w
    # btilde and c_i are integer vectors, so their numerators are them.
    sb = [s * x + b.numerator for x, b in zip(w, e1.btilde.entries)]
    ccols = [[problem.wnorm * x for x in sb]]
    for beta, cand in zip(tab.betas, picks):
        t = cand.t
        ccols.append(
            [c.numerator + t * x + beta * y for c, x, y in zip(cand.c.entries, w, sb)]
        )
    den = tab.den
    num = [[_dot(row, col) for col in tab.adj_cols] for row in zip(*ccols)]
    if not problem.pulls_back(num, den):
        return None
    matrix = Mat([Fraction(x, den) for x in row] for row in num)
    atilde = tuple(Fraction(_dot(row, ts), tab.dp) for row in tab.pair)
    provenance = (
        e1.s,
        e1.btilde.to_ints(),
        atilde,
        tuple(cand.c.to_ints() for cand in picks),
    )
    integral = all(x % den == 0 for row in num for x in row)
    return CandidateIsometry(matrix, integral, provenance)


def _joint_signature(e1: Eq1Solution, picks: tuple[Eq3Solution, ...]):
    sig: list[int] = [e1.s, *e1.coords]
    for cand in picks:
        sig.append(cand.t)
        sig.extend(cand.coords)
    return sig


def find_isometries(
    problem: IsometryProblem,
    all_solutions: bool = True,
    integral_only: bool = False,
    cs_prune: bool = False,
    threads: int = 1,
) -> SearchResult:
    """Run the full pipeline and certify the outcome.

    Composes solve_eq1, solve_eq3_per_z0 (once per probe), filter_eq2,
    cross-probe assembly and reconstruct.  The certificate is
    ObstructionDeterminant on determinant mismatch, ObstructionEq1 when
    eq1 has no solutions, IsometricWitness when an integral candidate
    exists, NoIntegralIsometry otherwise.  With all_solutions=False the
    scan stops at the first integral witness (stats are then partial).
    cs_prune and threads are accepted for compatibility and have no
    effect: the search runs on one thread (a thread pool over the eq1
    branches is bound by the interpreter lock and measured no faster),
    and filter_eq2 has no pre-test.
    """
    if problem.det_mismatch:
        cert = Certificate(
            "ObstructionDeterminant",
            detail={
                "det_source": str(problem.source.det),
                "det_target": str(problem.target.det),
            },
        )
        return SearchResult([], cert, SearchStats())
    e1s = solve_eq1(problem)
    eq1_canonical = sum(_canonical_sign((e.s, *e.coords)) for e in e1s)
    if not e1s:
        cert = Certificate(
            "ObstructionEq1",
            detail={
                "norm": problem.wnorm,
                "target": problem.eq1_target,
                "kernel_gram": [
                    [int(x) for x in row] for row in problem.kernel_gram.rows
                ],
            },
        )
        return SearchResult([], cert, SearchStats())
    per_probe = [solve_eq3_per_z0(problem, z0) for z0 in problem.probes]
    eq3_counts = tuple(len(c) for c in per_probe)

    candidates: list[CandidateIsometry] = []
    joint_raw = joint_canonical = 0
    for e1 in e1s:
        has_integral = False
        for picks in _assemble(problem, filter_eq2(problem, e1, per_probe)):
            joint_raw += 1
            if _canonical_sign(_joint_signature(e1, picks)):
                joint_canonical += 1
            cand = reconstruct(problem, e1, picks)
            if cand is not None:
                candidates.append(cand)
                has_integral = has_integral or cand.integral
        if has_integral and not all_solutions:
            break
    if all_solutions:
        candidates.sort(key=lambda c: c.provenance)
    integral = [c for c in candidates if c.integral]

    if integral:
        witness = integral[0]
        cert = Certificate(
            "IsometricWitness",
            witness=witness,
            detail={"integral_count": len(integral)},
        )
        if not all_solutions:
            candidates = [witness]
    else:
        cert = Certificate(
            "NoIntegralIsometry",
            detail={
                "candidates": [_matrix_strings(c.matrix) for c in candidates],
                "joint_survivors": joint_raw,
            },
        )
    stats = SearchStats(
        eq1_raw=len(e1s),
        eq1_canonical=eq1_canonical,
        eq3_per_probe=eq3_counts,
        joint_raw=joint_raw,
        joint_canonical=joint_canonical,
        candidates=len(candidates),
        integral=len(integral),
    )
    if integral_only:
        candidates = [c for c in candidates if c.integral]
    return SearchResult(candidates, cert, stats)


def _matrix_strings(m: Mat) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.rows]


def family_obstruction(kind: str, **params) -> Certificate:
    """One-sided non-isometry test for the two parametric families.

    two_squares_rank2: B = diag(m^2, n^2) against B' = [[alpha, beta],
    [beta, gamma]] with alpha*gamma - beta^2 = (m n)^2; the anchor (1,0)
    forces alpha*m^4 to be a sum of two squares.

    three_squares_rank3: B = [[2m^2+1,-1,0],[-1,1,0],[0,0,2m^2]] against
    B' = [[alpha,beta,0],[beta,gamma,0],[0,0,1]] with
    alpha*gamma - beta^2 = 4m^4 (default (alpha,beta,gamma) =
    (4m^3, 0, m), the diagonal member); the anchor (1,1,1) forces
    16 m^4 (alpha + 2 beta + gamma + 1) to be a sum of three squares.

    Returns ObstructionTwoSquares/ObstructionThreeSquares when the
    representation is impossible, Inconclusive otherwise (the test is
    necessary, not sufficient).
    """
    if kind == "two_squares_rank2":
        m, n = params["m"], params["n"]
        alpha, beta, gamma = params["alpha"], params["beta"], params["gamma"]
        if m == 0 or n == 0:
            raise BadFamilyParams("m and n must be nonzero")
        if alpha * gamma - beta * beta != (m * n) ** 2:
            raise BadFamilyParams("need alpha*gamma - beta^2 = (m*n)^2")
        constant = alpha * m**4
        representable = constant >= 0 and two_squares_representable(constant)
        verdict = "Inconclusive" if representable else "ObstructionTwoSquares"
        detail = {
            "kind": kind,
            "m": m,
            "n": n,
            "alpha": alpha,
            "beta": beta,
            "gamma": gamma,
            "constant": constant,
            "squares": 2,
        }
        return Certificate(verdict, detail=detail)
    if kind == "three_squares_rank3":
        m = params["m"]
        if m == 0:
            raise BadFamilyParams("m must be nonzero")
        alpha = params.get("alpha")
        if alpha is None:
            alpha, beta, gamma = 4 * m**3, 0, m
        else:
            beta, gamma = params["beta"], params["gamma"]
        if alpha * gamma - beta * beta != 4 * m**4:
            raise BadFamilyParams("need alpha*gamma - beta^2 = 4*m^4")
        reduced = alpha + 2 * beta + gamma + 1
        constant = 16 * m**4 * reduced
        representable = constant >= 0 and three_squares_representable(constant)
        verdict = "Inconclusive" if representable else "ObstructionThreeSquares"
        detail = {
            "kind": kind,
            "m": m,
            "alpha": alpha,
            "beta": beta,
            "gamma": gamma,
            "constant": constant,
            "reduced": reduced,
            "squares": 3,
        }
        return Certificate(verdict, detail=detail)
    raise BadFamilyParams(f"unknown family kind {kind!r}")


def squares_certificate(constant: int, squares: int) -> Certificate:
    """Direct sum-of-squares test on a single constant.

    Obstruction verdict when the constant is not a sum of `squares`
    integer squares, Inconclusive when it is.
    """
    if squares == 2:
        representable = constant >= 0 and two_squares_representable(constant)
        verdict = "Inconclusive" if representable else "ObstructionTwoSquares"
    elif squares == 3:
        representable = constant >= 0 and three_squares_representable(constant)
        verdict = "Inconclusive" if representable else "ObstructionThreeSquares"
    else:
        raise BadFamilyParams("squares must be 2 or 3")
    return Certificate(verdict, detail={"constant": constant, "squares": squares})


def rank2_family_forms(
    m: int, n: int, alpha: int, beta: int, gamma: int
) -> tuple[GramForm, GramForm, Vec]:
    """The rank-2 family's forms and anchor (see family_obstruction)."""
    if m == 0 or n == 0:
        raise BadFamilyParams("m and n must be nonzero")
    if alpha * gamma - beta * beta != (m * n) ** 2:
        raise BadFamilyParams("need alpha*gamma - beta^2 = (m*n)^2")
    source = GramForm(Mat.diagonal([m * m, n * n]))
    target = GramForm(Mat([[alpha, beta], [beta, gamma]]))
    return source, target, Vec([1, 0])


def rank3_family_forms(
    m: int,
    alpha: int | None = None,
    beta: int | None = None,
    gamma: int | None = None,
) -> tuple[GramForm, GramForm, Vec]:
    """The rank-3 family's forms and anchor (see family_obstruction)."""
    if m == 0:
        raise BadFamilyParams("m must be nonzero")
    if alpha is None:
        alpha, beta, gamma = 4 * m**3, 0, m
    if alpha * gamma - beta * beta != 4 * m**4:
        raise BadFamilyParams("need alpha*gamma - beta^2 = 4*m^4")
    mm = 2 * m * m
    source = GramForm(Mat([[mm + 1, -1, 0], [-1, 1, 0], [0, 0, mm]]))
    target = GramForm(Mat([[alpha, beta, 0], [beta, gamma, 0], [0, 0, 1]]))
    return source, target, Vec([1, 1, 1])


def brute_force_isometries(
    source: GramForm,
    target: GramForm,
    column_mode: bool = True,
    bound: int | None = None,
) -> list[Mat]:
    """Complete list of integral M with M^T B M = B', by direct search.

    column_mode builds M column by column, requiring each new column to
    have the right norm and the right pairings with the columns already
    placed; the alternative takes the plain cartesian product of the
    per-column norm solution sets and checks the product at the end.
    bound, when given, additionally restricts every matrix entry to
    |m_ij| <= bound (norm enumeration already bounds entries, so the
    unrestricted list is complete regardless).  Desk-scale oracle only.
    """
    if source.dim != target.dim:
        raise DimensionMismatch("source and target dimensions differ")
    q = PosDefForm(source.gram)
    n = source.dim
    b_rows = tuple(tuple(int(x) for x in row) for row in source.gram.rows)
    bp = tuple(tuple(int(x) for x in row) for row in target.gram.rows)
    col_sets = [list(vectors_of_norm(q, bp[j][j])) for j in range(n)]
    if bound is not None:
        col_sets = [
            [v for v in cs if max(abs(x) for x in v) <= bound] for cs in col_sets
        ]

    def paired(v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(_dot(row, v) for row in b_rows)

    out: list[Mat] = []
    if not column_mode:
        import itertools

        for cols in itertools.product(*col_sets):
            gcols = [paired(v) for v in cols]
            if all(
                _dot(cols[i], gcols[j]) == bp[i][j]
                for i in range(n)
                for j in range(i + 1, n)
            ):
                out.append(Mat.from_cols([Vec(c) for c in cols]))
        return out

    chosen: list[tuple[int, ...]] = []
    gchosen: list[tuple[int, ...]] = []

    def rec(j: int):
        if j == n:
            out.append(Mat.from_cols([Vec(c) for c in chosen]))
            return
        for v in col_sets[j]:
            if all(_dot(v, gchosen[i]) == bp[i][j] for i in range(j)):
                chosen.append(v)
                gchosen.append(paired(v))
                rec(j + 1)
                chosen.pop()
                gchosen.pop()

    rec(0)
    return out


def verify_certificate(cert: Certificate, problem: IsometryProblem | None) -> bool:
    """Re-check a certificate against its problem without re-searching.

    Witnesses are re-multiplied; ObstructionEq1 re-runs only the eq1
    enumeration; squares obstructions re-evaluate the representability
    predicate on the stated constant; NoIntegralIsometry re-verifies the
    recorded candidates and that none is integral.
    """
    verdict = cert.verdict
    if verdict == "IsometricWitness":
        if problem is None or cert.witness is None:
            return False
        m = cert.witness.matrix
        return problem.is_isometry(m) and m.is_unimodular()
    if verdict == "NoIntegralIsometry":
        if problem is None:
            return False
        for rows in cert.detail.get("candidates", []):
            m = Mat([[Fraction(x) for x in row] for row in rows])
            if m.is_integral() or not problem.is_isometry(m):
                return False
        return True
    if verdict == "ObstructionEq1":
        if problem is None:
            return False
        return problem.det_mismatch is False and not solve_eq1(problem)
    if verdict == "ObstructionDeterminant":
        if problem is None:
            return False
        return problem.source.det != problem.target.det
    if verdict in ("ObstructionTwoSquares", "ObstructionThreeSquares", "Inconclusive"):
        constant = cert.detail.get("constant")
        squares = cert.detail.get("squares")
        if constant is None or squares not in (2, 3):
            return False
        pred = (
            two_squares_representable if squares == 2 else three_squares_representable
        )
        representable = constant >= 0 and pred(constant)
        if verdict == "Inconclusive":
            return representable
        return not representable
    return False
