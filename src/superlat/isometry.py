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
probe orthogonal to w.  Since w is orthogonal to K, N u^2 + B(k, k) is the
norm of u w + k in L0 = Zw + K, whose Gram matrix is diag(N, G_K): eq1 and
eq3 each ask for one norm shell of L0, and for positive definite B each
shell is finite.  A solution is its L0 row: (s, x) for s w + btilde and
(t_i, y_i) for t_i w + c_i, with x and y_i coordinates in a basis of K.
These rows, as vectors_of_norm returns them, are the only format from
enumeration to reconstruction.  Eq2 and the polarized eq3 across probe
pairs are L0 pairings of rows under diag(N, G_K), each with a fixed
target: one joint search (_gram_search) places a row of each shell with
forward checking, every placed row narrowing the open shells (the first
one on a packed table of all their rows at once), and reconstruct maps
each joint tuple to ambient vectors through E = (w | kernel basis),
builds the candidate matrix and verifies it exactly.  A signed
permutation U with U^T B U = B and U w = w maps joint tuples to joint
tuples and a candidate M to U M, so a search for all solutions places
one first row per orbit of these U and builds the candidates of the
orbit's other members by permuting and negating rows.

The module also houses the infinite-family obstructions (two- and
three-squares) and a brute-force oracle used to validate the pipeline at
desk scale.  The oracle skips the decomposition: it runs the same
_gram_search on the columns of M under B, with B' as the targets, so the
tests check it against searches that share no code with this package
(tests/helpers.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import accumulate, chain, repeat
from math import gcd, lcm
from operator import is_, mul, neg
from struct import Struct

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
    SuperlatError,
    ZeroVector,
)
# dual_membership is not called here (reconstruct tests dual membership
# in integers); it is imported so that perfbench/spans.py can wrap
# isometry.dual_membership.
from .forms import GramForm, dual_membership  # noqa: F401
from .linalg import Mat, Vec, _cleared_inverse, _cleared_pairs, _det, integer_kernel_basis, parse_entry


def _int_tuple(v, message: str) -> tuple[int, ...]:
    """The entries of v, a Vec or a sequence of ints, as a tuple of ints;
    InvalidProblem(message) when one of them is not an integer."""
    if isinstance(v, Vec):
        if not v.is_integral():
            raise InvalidProblem(message)
        return v.to_ints()
    ints = tuple(v)
    if not all(type(x) is int for x in ints):
        raise InvalidProblem(message)
    return ints


def _integer_grams(source, target):
    """The integer rows of B and B', given as (d, d G) pairs, once both share a dimension and are integral."""
    (d, b), (dp, bp) = source, target
    if len(b) != len(bp):
        raise DimensionMismatch("source and target dimensions differ")
    if d != 1 or dp != 1:
        raise NonIntegralForm("both Gram matrices must be integral")
    return b, bp


class IsometryProblem:
    """Search data: integral forms B (source) and B' (target), an integer
    anchor w with B(w,w) != 0, and n-1 integer probe vectors completing w
    to a basis of Q^n.  w and each probe are given as a Vec or as a tuple
    of ints; .w and .probes are their Vec views, built when first read.

    The default probes are the standard basis vectors with the coordinate
    of largest |w_i| dropped (first such index on ties), which always
    yields a basis.  The constructor validates the problem on B, B', w
    and the probes read as integer rows once (P = (w | z0_1 ...) through
    its determinant alone), and derives from them B w and N = B(w,w).
    The kernel sublattice K = Z^n cap {w}^perp with its integer Gram rows
    kernel_gram (no rows when n = 1) and the integer constants of the
    three equations, as one matrix pair_targets, are built when first
    read: verifying a witness needs none of them.
    """

    def __init__(self, source: GramForm, target: GramForm, w: Vec | tuple[int, ...], probes: list | None = None):
        self._gram, self._tgram = _integer_grams(source.cleared, target.cleared)
        self.dim = n = source.dim
        if len(w) != n:
            raise DimensionMismatch("anchor dimension does not match forms")
        if not any(w):
            raise ZeroVector("anchor must be nonzero")
        self._w = _int_tuple(w, "anchor must be an integer vector")
        self.source = source
        self.target = target
        self._pullback = _Pullback(self._gram, self._tgram)
        self._bw = tuple([_dot(row, self._w) for row in self._gram])
        self.wnorm = _dot(self._w, self._bw)
        if self.wnorm == 0:
            raise IsotropicAnchor("anchor has B(w,w) = 0")

        if probes is None:
            drop = max(range(n), key=lambda i: (abs(self._w[i]), -i))
            probes = [tuple(int(i == j) for j in range(n)) for i in range(n) if i != drop]
        if len(probes) != n - 1:
            raise InvalidProblem(f"need {n - 1} probes, got {len(probes)}")
        ints = []
        for z0 in probes:
            if len(z0) != n:
                raise DimensionMismatch("probe dimension does not match forms")
            ints.append(_int_tuple(z0, "probes must be integer vectors"))
        self._probes = tuple(ints)
        if not _det(tuple(zip(self._w, *self._probes))):
            raise DegenerateProbe("anchor and probes do not form a basis")
        self._eq2_table: _Eq2Table | None = None

    @cached_property
    def w(self) -> Vec:
        return Vec(self._w)

    @cached_property
    def probes(self) -> list[Vec]:
        return list(map(Vec, self._probes))

    @property
    def det_mismatch(self) -> bool:
        """det B != det B', on the integer determinants of gram_rows."""
        return self.source._det != self.target._det

    @cached_property
    def _l0_basis(self) -> tuple[tuple[int, ...], ...]:
        """The rows of E = (w | kernel basis), which maps the L0 row
        (u, kernel coordinates) to u w + k (K's basis from integer_kernel_basis)."""
        return tuple(zip(self._w, *integer_kernel_basis(self._bw)))

    @cached_property
    def kernel_gram(self) -> tuple[tuple[int, ...], ...]:
        return _gram_matrix(self._gram, list(zip(*self._l0_basis))[1:])

    @cached_property
    def _l0_gram(self) -> tuple[tuple[int, ...], ...]:
        """diag(N, G_K), the Gram rows of L0 = Zw + K in the coordinates
        (u, kernel coordinates) of u w + k."""
        zeros = (0,) * len(self.kernel_gram)
        return ((self.wnorm, *zeros), *((0, *row) for row in self.kernel_gram))

    @cached_property
    def pair_targets(self) -> tuple[tuple[int, ...], ...]:
        """N^2 times the Gram matrix of B' in the basis (w, zhat_1, ...):
        the pairing targets of the joint search, with the eq1 target and
        the eq3 targets on the diagonal and the eq2 targets in row 0."""
        basis = (self._w, *map(self._zhat, self._probes))
        return _gram_matrix(self._tgram, basis, self.wnorm * self.wnorm)

    @cached_property
    def eq1_target(self) -> int:
        return self.pair_targets[0][0]

    @cached_property
    def eq2_targets(self) -> tuple[int, ...]:
        return self.pair_targets[0][1:]

    @cached_property
    def l0_form(self) -> PosDefForm:
        """The form diag(N, G_K) of L0 = Zw + K in the coordinates
        (u, kernel coordinates) of u w + k.  It is also the positivity
        check of B: w and the kernel basis form a basis of Q^n, so
        diag(N, G_K) is B written in that basis, and its LDL^T fails
        exactly when B is not positive definite."""
        try:
            return PosDefForm(self._l0_gram)
        except NotPositiveDefinite:
            raise NotPositiveDefinite("search requires positive definite B") from None

    @cached_property
    def _recon_tables(self) -> _ReconTables:
        """The integer map of reconstruct, built on first use (see
        _ReconTables)."""
        return _ReconTables(self)

    def pulls_back(self, num, den: int, factors=()) -> bool:
        """Whether num^T B num = den^2 B' for integer rows num, i.e.
        whether num is n x n and M = num / den solves M^T B M = B'; with
        factors, row a of num is taken as factors[a] num[a]."""
        return self._pullback(num, den, factors)

    def _zhat(self, z0: tuple[int, ...]) -> tuple[int, ...]:
        """N z0 - B(z0, w) w for an integer probe z0 of length n, the
        scaled component of z0 orthogonal to w."""
        beta = _dot(z0, self._bw)
        zh = tuple([self.wnorm * z - beta * x for z, x in zip(z0, self._w)])
        if not any(zh):
            raise DegenerateProbe("probe lies on the anchor line")
        return zh


def _slot_width(bound: int) -> int:
    """The smallest multiple W of 8 with bound < 2^(W-1)."""
    return 8 * (bound.bit_length() // 8 + 1)


class _Pullback:
    """The test num^T B num = den^2 B' for integer rows num and square
    integer matrices B, B' given by rows, as one comparison of packed
    integers with one signed W-bit slot per entry (i, j), slot ni + j.

    Each distinct row r is packed once, as P(r) = sum_j r_j 2^(jW) and
    R(r) = sum_i r_i 2^(niW); then sum_a R(num_a) sum_b B_ab P(num_b)
    holds entry (i, j) of num^T B num in slot ni + j, and it must equal
    den^2 B' packed the same way (kept per den).  Row a may also enter
    num as f_a num_a, for given factors f: then the packs are scaled,
    f_a R(num_a) and f_b P(num_b).  W puts max|f_a num_a|^2 sum|B_ab|
    and den^2 max|B'_ij|, which bound every slot, below 2^(W-1), so equal
    integers mean equal matrices.  W only grows: a new row or den that
    needs more widens it, which drops every pack and target, so a list of
    matrices reserves W for all of its rows and dens first."""

    __slots__ = ("gram", "target", "weight", "tmax", "width", "pows", "tpack", "packs", "targets")

    def __init__(self, gram, target):
        self.gram, self.target = gram, target
        self.weight = sum(map(abs, chain.from_iterable(gram)))
        self.tmax = max(map(abs, chain.from_iterable(target)))
        self.width, self.packs, self.targets = 0, {}, {}

    def __call__(self, num, den: int, factors=()) -> bool:
        n = len(self.gram)
        if len(num) != n:
            return False
        try:
            packed, target = [*map(self.packs.__getitem__, num)], self.targets[den]
        except (KeyError, TypeError):
            # A row or den not packed yet, or a row given as a list.
            if [*map(len, num)] != [n] * n:
                return False
            num = [*map(tuple, num)]
            self.reserve(num, max(factors, default=1), (den,))
            packed, target = [*map(self.packs.__getitem__, num)], self.targets[den]
        ps, rs = zip(*packed)
        if factors:
            ps, rs = [*map(mul, factors, ps)], map(mul, factors, rs)
        return sum(map(mul, rs, [sum(map(mul, brow, ps)) for brow in self.gram])) == target

    def reserve(self, rows, scale: int, dens) -> None:
        """Pack each of rows (integer tuples of length n) and den^2 B' for
        each den of dens, after widening W if it is too narrow for row
        entries scaled by up to scale and for the largest den."""
        n = len(self.gram)
        big = scale * max(map(abs, chain.from_iterable(rows)), default=0)
        top = max(dens, default=1)
        width = _slot_width(max(big * big * self.weight, top * top * self.tmax))
        if width > self.width:
            self.width, self.packs, self.targets = width, {}, {}
            self.pows = [1 << (k * width) for k in range(n * n)]
            self.tpack = sum(map(mul, chain.from_iterable(self.target), self.pows))
        packs, targets, cols, slots = self.packs, self.targets, self.pows[:n], self.pows[::n]
        for row in rows:
            if row not in packs:
                packs[row] = sum(map(mul, row, cols)), sum(map(mul, row, slots))
        for den in dens:
            if den not in targets:
                targets[den] = den * den * self.tpack


class _SlotMap:
    """The integer linear map z -> (sum_c z_c columns[c][k])_k, evaluated
    for all of its outputs k at once on big integers with one signed
    W-bit slot per output.

    packed[c] is sum_k columns[c][k] 2^(kW), and off holds 2^(W-1) in
    every slot, so total(z) = off + sum_c z_c packed[c] holds output k
    plus 2^(W-1) in slot k, in [0, 2^W), as long as every
    |output k| < 2^(W-1): no slot borrows from or carries into the next.
    Output k is at most sum_c |z_c| colmax[c] in absolute value, colmax[c]
    the largest |coefficient| of z_c, so total first repacks the columns
    when that bound reaches 2^(W-1), at the smallest multiple of 8 above
    it; the width only grows.  The first total call packs the columns,
    through _columns, which a subclass may compute from a structure of
    its own.
    """

    __slots__ = ("columns", "colmax", "nslots", "width", "off", "packed")

    def __init__(self, columns):
        self.columns = columns
        self.colmax = [max(map(abs, col), default=0) for col in columns]
        self.nslots = len(columns[0])
        self.width = 0

    def _pack(self, width: int) -> None:
        """(Re)pack the columns in slots of at least width bits that also
        hold every coefficient."""
        width = max(width, _slot_width(max(self.colmax)))
        self.off = int.from_bytes((bytes(width // 8 - 1) + b"\x80") * self.nslots, "little")
        self.packed = self._columns(width)
        self.width = width

    def _columns(self, width: int) -> list[int]:
        """packed at width W.  Each distinct coefficient v is encoded
        once, as the bytes of v + 2^(W-1) in [0, 2^W); off taken from a
        column's bytes leaves sum_k col[k] 2^(kW)."""
        nbytes, half = width // 8, 1 << (width - 1)
        code = {v: (v + half).to_bytes(nbytes, "little") for v in set(chain.from_iterable(self.columns))}
        return [int.from_bytes(b"".join(map(code.__getitem__, col)), "little") - self.off for col in self.columns]

    def total(self, z) -> int:
        """off + sum_c z_c packed[c], with slots wide enough for z."""
        bound = _dot(map(abs, z), self.colmax)
        if bound.bit_length() >= self.width:
            self._pack(_slot_width(bound))
        return sum(map(mul, z, self.packed), self.off)


class _KroneckerMap(_SlotMap):
    """The _SlotMap of _ReconTables, packed from its factors: E by its
    columns ecols, A by its rows arows and the t-slots by tcols.

    Its column c = jn + m has E[r][m] A[j][k] in slot rn + k, so its num
    part is PE[m] PA[j], one big-integer product, for
    PE[m] = sum_r E[r][m] 2^(rnW) (column m of E at a stride of n slots)
    and PA[j] = sum_k A[j][k] 2^(kW) (row j of A at a stride of 1).  To
    it is added column m of E in the kernel slots n^2 + jn ... of row j
    when m > 0, and tcols[j] in the t-slots 2n^2 ... when m = 0.  So
    colmax[c] = max(max|E col m| max|A row j|, max|E col m| or, for
    m = 0, max|tcols[j]|)."""

    __slots__ = ("ecols", "arows", "tcols")

    def __init__(self, ecols, arows, tcols, floor: int):
        self.ecols, self.arows, self.tcols = ecols, arows, tcols
        n = len(ecols)
        emax = [max(map(abs, e)) for e in ecols]
        self.colmax = [
            max(em * max(map(abs, arow)), em if m else max(map(abs, tcol), default=0))
            for arow, tcol in zip(arows, tcols)
            for m, em in enumerate(emax)
        ]
        self.nslots = 2 * n * n + len(tcols[0])
        self.width = 0
        self._pack(floor)

    def _columns(self, width: int) -> list[int]:
        n, n2 = len(self.ecols), len(self.ecols) ** 2
        pows = [1 << (k * width) for k in range(self.nslots)]
        pe = [_dot(e, pows[:n2:n]) for e in self.ecols]
        pk = [_dot(e, pows[:n]) for e in self.ecols]
        packed = []
        for j, (arow, tcol) in enumerate(zip(self.arows, self.tcols)):
            pa, kslot = _dot(arow, pows[:n]), pows[n2 + j * n]
            packed.append(pe[0] * pa + _dot(tcol, pows[2 * n2 :]))
            packed += [pe[m] * pa + pk[m] * kslot for m in range(1, n)]
        return packed


class _ReconTables:
    """The integer map of reconstruct: z -> its outputs for the joint
    tuple z = e1 || pick_1 || ... (n^2 integers).

    With P = (w | z0_1 ...), db the lcm of the denominators of P^-1 and
    adj = db P^-1, a candidate is
    M = num / den for den = N^2 db and num = E Z A: E = (w | kernel
    basis), Z has the columns e1, pick_1, ..., and A has the rows
    N adj_0 + sum_i beta_i adj_i, adj_1, ... for beta_i = B(z0_i, w)
    (the columns of E Z A / N^2 are phi(w) and phi(z0_i) in the basis P).
    atilde solves P^T B atilde = (0, t), so it lies in the dual lattice
    iff B atilde = P^-T (0, t) is integral, i.e. iff db divides
    adj^T (0, t); then atilde = pair (0, t) / dp, where dp and
    pair = dp (P^T B)^-1 come from the adjugate of P^T B.

    All of these are linear in z, so one _SlotMap holds them, with the
    outputs as slots: num row by row (n^2 slots), the kernel parts
    E (0, x) of the n rows (btilde, then each c_i), atilde dp, and
    adj^T (0, t) when db != 1.  The coefficient of z_c = row j, L0
    coordinate m, is E[r][m] A[j][k] in num slot (r, k), E[r][m] (m > 0)
    in the kernel slot r of row j, and for m = 0 < j pair[r][j] and
    adj[j][r] in the last slots; _KroneckerMap packs these columns from
    E, A and the t-slot columns without writing them out.  The map is
    packed at build time with a 64-bit floor, so that the slots of almost
    every tuple decode with one struct call.  The candidates it builds
    share one _row_memo.
    """

    __slots__ = ("n", "db", "dp", "pair", "den", "map", "unpack", "memo")

    def __init__(self, problem: IsometryProblem):
        self.n = problem.dim
        nint, gram = problem.wnorm, problem._gram
        self.db, adj = _cleared_inverse(tuple(zip(problem._w, *problem._probes)))
        self.dp, self.pair = _cleared_inverse([[_dot(v, row) for row in gram] for v in (problem._w, *problem._probes)])
        self.den = nint * nint * self.db
        betas = [_dot(z0, problem._bw) for z0 in problem._probes]
        arows = (
            tuple(nint * a + _dot(betas, col[1:]) for a, col in zip(adj[0], zip(*adj))),
            *adj[1:],
        )
        # The t-slots pair (0, t), then adj^T (0, t) when db != 1: tcols[j]
        # holds the coefficients of t_j = z_(jn) for j > 0, and tcols[0],
        # zero, those of s = z_0 and of every kernel coordinate.
        tmat = (*self.pair, *zip(*adj)) if self.db != 1 else self.pair
        tcols = [(0,) * len(tmat), *list(zip(*tmat))[1:]]
        self.map = _KroneckerMap(tuple(zip(*problem._l0_basis)), arows, tcols, 64)
        self.unpack = Struct(f"<{self.map.nslots}q").unpack
        self.memo = _row_memo()

    def outputs(self, z: tuple[int, ...]) -> tuple[int, ...]:
        """The slots of the map at z, exactly: XOR with the offset leaves
        the two's complement of each slot's value."""
        slots = self.map
        total = slots.total(z) ^ slots.off
        nbytes = slots.width // 8
        raw = total.to_bytes(slots.nslots * nbytes, "little")
        if nbytes == 8:
            return self.unpack(raw)
        return tuple(
            int.from_bytes(raw[i : i + nbytes], "little", signed=True) for i in range(0, len(raw), nbytes)
        )


def _row_reader() -> _Memo:
    """A memo from the entry texts of a row, as a tuple of what
    parse_entry reads, to (d, d row), d the lcm of the entry
    denominators.  Candidates repeat a few distinct entries and rows many
    times, so each distinct entry is parsed once and each distinct row
    text read once."""
    parse = cache(parse_entry)

    def read(texts):
        d, (row,) = _cleared_pairs([list(map(parse, texts))])
        return d, row

    return _Memo(read)


def _matrix_rows(matrices, read: _Memo):
    """For each matrix given as rows (lists or tuples, else TypeError),
    the list of read[texts] (a _row_reader) for its rows."""
    for rows in matrices:
        if not all(map(isinstance, rows, repeat((list, tuple)))):
            raise TypeError("a matrix row must be an array")
        yield [*map(read.__getitem__, map(tuple, rows))]


def _integer_matrices(matrices):
    """For each matrix M that _matrix_rows reads, (den, num) with den the
    lcm of its entry denominators and num the tuple of integer rows of
    den M, so M is integral iff den == 1."""
    for parts in _matrix_rows(matrices, _row_reader()):
        den = lcm(*(d for d, _ in parts))
        yield den, tuple([row if d == den else tuple(x * (den // d) for x in row) for d, row in parts])


def isometry_denominators(problem: IsometryProblem, matrices) -> list:
    """For each matrix M that _matrix_rows reads, its denominator den
    when its rows form an n x n matrix with M^T B M = B' (checked in
    integers on den M), None otherwise.

    The whole list is read first, so that one slot width serves it
    (_Pullback.reserve) and each distinct row is packed once, as read:
    row a, read as (d_a, d_a M_a), enters den M with the factor
    den // d_a, and with none when every d_a is den."""
    n, read = problem.dim, _row_reader()
    listed, scale = [], 1
    for parts in _matrix_rows(matrices, read):
        ds, num = zip(*parts) if parts else ((), ())
        den, factors = lcm(*ds), ()
        if ds.count(den) != len(ds):
            factors = [den // d for d in ds]
            scale = max(scale, *factors)
        listed.append((num, den, factors))
    rows = [row for _, row in read.values() if len(row) == n]
    problem._pullback.reserve(rows, scale, {den for _, den, _ in listed})
    return [den if problem.pulls_back(num, den, factors) else None for num, den, factors in listed]


def _neg(v) -> tuple:
    return tuple([-x for x in v])


def _row_texts(row: tuple[int, ...], den: int) -> tuple[str, ...]:
    """The texts str(Fraction(x, den)) of the entries of an integer row
    over den > 0."""
    return tuple(str(x // g) if (g := gcd(x, den)) == den else f"{x // g}/{den // g}" for x in row)


class _Memo(dict):
    """A dict that builds a missing value as make(key), once."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _row_memo() -> tuple[_Memo, _Memo]:
    """The row memos that candidates share: texts[den][row] is
    _row_texts(row, den) and negs[row] is -row."""
    return _Memo(lambda den: _Memo(partial(_row_texts, den=den))), _Memo(_neg)


@dataclass(frozen=True, init=False)
class CandidateIsometry:
    """A matrix M = num / den passing the exact verification M^T B M = B',
    together with the solution tuple it was reconstructed from.

    CandidateIsometry(num, den, provenance, dp, memo) takes integer rows
    num and den > 0 and keeps them in lowest terms: num holds the integer
    rows of den M, and den is the lcm of the denominators of the entries
    of M, so M is integral iff den == 1.  provenance is () (a witness read
    from a document) or the flat integer tuple (s, btilde, dp atilde, c_1,
    ..., c_(n-1)) of n^2 + n + 1 entries, atilde over dp >= 1; its fields
    have fixed lengths, so it sorts as its nested view .provenance (atilde
    as Fractions) does.  That view and .matrix, the Mat, are built when read.
    .entry_strings, set on construction, holds the rows of M as the texts
    str(Fraction(x, den)), read from memo (a new _row_memo by default):
    the candidates of one problem's reconstruct and their negations share
    one, so each distinct row, its negation and their texts are built once.
    """

    num: tuple[tuple[int, ...], ...]
    den: int
    _prov: tuple
    _dp: int

    def __init__(self, num, den: int, provenance: tuple = (), dp: int = 1, memo=None):
        g = gcd(den, *chain.from_iterable(num)) if den > 1 else 1
        if g == 1:
            num = tuple(map(tuple, num))
        else:
            num, den = tuple(tuple(x // g for x in row) for row in num), den // g
        # _memo and entry_strings are no dataclass fields: equality and
        # hashing ignore them.
        memo = memo or _row_memo()
        strings = tuple(map(memo[0][den].__getitem__, num))
        self.__dict__.update(num=num, den=den, _prov=provenance, _dp=dp, _memo=memo, entry_strings=strings)

    def __reduce__(self):
        # The memo does not pickle; a copy gets its own.
        return CandidateIsometry, (self.num, self.den, self._prov, self._dp)

    @cached_property
    def provenance(self) -> tuple:
        """(s, btilde, atilde, c_i) with atilde as Fractions, or ()."""
        prov, n = self._prov, len(self.num)
        if not prov:
            return ()
        atilde = tuple(Fraction(a, self._dp) for a in prov[n + 1 : 2 * n + 1])
        return prov[0], prov[1 : n + 1], atilde, tuple(prov[i : i + n] for i in range(2 * n + 1, len(prov), n))

    def __neg__(self) -> "CandidateIsometry":
        """-M, with den unchanged (negation keeps lowest terms) and the
        rows and their texts from the shared memo.  For a candidate built
        by reconstruct this is what reconstruct gives for the negated
        tuple: every provenance entry negated.  An empty provenance stays
        empty."""
        num = tuple(map(self._memo[1].__getitem__, self.num))
        return CandidateIsometry(num, self.den, _neg(self._prov), self._dp, self._memo)

    @property
    def integral(self) -> bool:
        return self.den == 1

    @property
    def matrix(self) -> Mat:
        return Mat._of_cleared(self.den, self.num)


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable verdict; detail carries the evaluated constants
    needed to re-check it without re-running the full search, as the JSON
    values a document holds (a candidate list as entry_strings tuples)."""

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


def _gram_matrix(gram, vectors, scale: int = 1) -> tuple[tuple[int, ...], ...]:
    """scale u^T gram v for every two of the integer vectors, under a
    symmetric integer gram, with gram v formed once per vector."""
    images = [[_dot(row, v) for row in gram] for v in vectors]
    return tuple([tuple([scale * _dot(u, image) for image in images]) for u in vectors])


def solve_eq1(problem: IsometryProblem) -> tuple[tuple[int, ...], ...]:
    """All integer pairs (s, btilde) with
    N^2 B'(w,w) = N s^2 + B(btilde, btilde), as the L0 rows (s, x) of the
    vectors s w + btilde of norm N^2 B'(w,w) in L0 = Zw + K, x the kernel
    coordinates of btilde: the shell of vectors_of_norm as it is, sorted
    by s then by x, and sign-complete with row L-1-j = -row j."""
    form = problem.l0_form
    e1 = problem.eq1_target
    return vectors_of_norm(form, e1) if e1 >= 0 else ()


def solve_eq3_per_z0(problem: IsometryProblem, z0: Vec | tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All integer pairs (t, c) with
    N^2 B'(zhat, zhat) = B(c, c) + N t^2 for the probe z0 (a Vec or ints),
    as the L0 rows (t, y) of the vectors t w + c of norm N^2 B'(zhat, zhat),
    y the kernel coordinates of c; sorted and sign-complete like solve_eq1."""
    z0 = _int_tuple(z0, "probe must be an integer vector")
    if len(z0) != problem.dim:
        raise DimensionMismatch("vector dimension does not match form")
    form = problem.l0_form
    zh = problem._zhat(z0)
    r = problem.wnorm**2 * _dot(zh, [_dot(row, zh) for row in problem._tgram])
    return vectors_of_norm(form, r) if r >= 0 else ()


class _Eq2Table:
    """The L0 pairings of a placed row with the rows of other shells, as
    one _SlotMap with inputs (g, 1), one slot per packed row (shell i
    starts at offsets[i]).

    Each shell must be sign-complete, row L-1-j = -row j (ValueError
    otherwise), so only its first ceil(L/2) rows are packed.  Column j
    of the map holds the j-th L0 coordinate of every packed row, and the
    last column holds -targets[i] on the rows of shell i, so slot k of
    the map at (g, 1) is g . row_k - targets[i].  filter_eq2 keeps the
    table of the eq3 shells with the eq2 targets on the problem, and
    rebuilds it for any other shells.
    """

    __slots__ = ("shells", "targets", "offsets", "map")

    def __init__(self, shells, targets):
        self.shells = tuple(shells)
        self.targets = targets
        halves = []
        for shell in self.shells:
            half = shell[: (len(shell) + 1) // 2]
            # Row L-1-j = -row j for each row j of the half.
            if [*chain.from_iterable(reversed(shell[len(shell) - len(half) :]))] != [*map(neg, chain.from_iterable(half))]:
                raise ValueError("a shell is not sign-complete")
            halves.append(half)
        self.offsets = (0, *accumulate(map(len, halves)))
        minus_t = tuple(chain.from_iterable((-t,) * len(half) for t, half in zip(targets, halves)))
        self.map = _SlotMap([*zip(*chain.from_iterable(halves)), minus_t])

    def built_from(self, shells) -> bool:
        return len(shells) == len(self.shells) and all(map(is_, shells, self.shells))


def _slots_holding(raw: bytes, pattern: bytes, lo: int, hi: int) -> list[int]:
    """The indices k - lo, ascending, of the slots lo <= k < hi of raw
    (len(pattern) bytes each) whose bytes are pattern."""
    nbytes = len(pattern)
    start, end = lo * nbytes, hi * nbytes
    out = []
    i = raw.find(pattern, start, end)
    while i >= 0:
        if i % nbytes:
            # A match that straddles two slots.
            i = raw.find(pattern, i + 1, end)
        else:
            out.append((i - start) // nbytes)
            i = raw.find(pattern, i + nbytes, end)
    return out


def _survivors(table: _Eq2Table, g) -> list[list[tuple[int, ...]]]:
    """The rows of each shell of table that pair with a placed row to the
    shell's target, g = diag(N, G_K) row: rows r with g . r = targets[i].

    The map at (g, 1) holds g . row_j - t + 2^(W-1) for each packed row j,
    and two searches for aligned matches in the sum's bytes find a
    shell's survivors: slots holding 2^(W-1) are the rows with
    g . row_j = t, and slots holding 2^(W-1) - 2 t (none when
    2 |t| >= 2^(W-1)) the rows with g . row_j = -t, whose mirror row
    L-1-j survives; the zero middle row of an odd-length shell is left
    to the first search.  The survivors of each shell come in shell
    order, as the row tuples of the shell.
    """
    shells, offsets = table.shells, table.offsets
    total = table.map.total((*g, 1))
    width = table.map.width
    nbytes, half = width // 8, 1 << (width - 1)
    raw = total.to_bytes(table.map.nslots * nbytes, "little")
    centre = half.to_bytes(nbytes, "little")
    out = []
    for shell, t, lo, hi in zip(shells, table.targets, offsets, offsets[1:]):
        kept = list(map(shell.__getitem__, _slots_holding(raw, centre, lo, hi)))
        if 2 * abs(t) < half:
            mirrored = _slots_holding(raw, (half - 2 * t).to_bytes(nbytes, "little"), lo, lo + len(shell) // 2)
            kept += [shell[-1 - j] for j in reversed(mirrored)]
        out.append(kept)
    return out


def filter_eq2(
    problem: IsometryProblem,
    e1: tuple[int, ...],
    per_probe: list[tuple[tuple[int, ...], ...]],
) -> list[list[tuple[int, ...]]]:
    """Keep the eq3 rows of each probe that are compatible with eq2 for
    the eq1 row e1 = (s, x): N^2 B'(w, zhat_i) = N s t + B(btilde, c).

    The right side is the L0 pairing g . (t, y) of the eq3 row (t, y)
    with g = diag(N, G_K) e1 = (N s, G_K x), computed once per call, and
    _survivors finds every probe's rows with that pairing at once on the
    packed _Eq2Table of the eq3 shells with the eq2 targets.  The table
    is built on the first call for a list of sign-complete shells (one
    per probe) and cached on the problem.  The result lists the
    survivors of each probe in eq3 order, as the row tuples of its
    shell.  The joint search of find_isometries narrows through this
    call when the eq1 row is placed first.
    """
    table = problem._eq2_table
    if table is None or not table.built_from(per_probe):
        table = problem._eq2_table = _Eq2Table(per_probe, problem.eq2_targets)
    return _survivors(table, [_dot(row, e1) for row in problem._l0_gram])


def _size_order(shells) -> list[int]:
    """The columns of a _gram_search by shell size, fewest rows first;
    ties keep index order (so the eq1 column of find_isometries wins
    them)."""
    return sorted(range(len(shells)), key=lambda c: len(shells[c]))


def _gram_search(gram, targets, shells, order, narrow=None, rows=None):
    """Yield, for each row r of rows, the list of tuples whose column
    order[0] holds r.  rows are rows of shells[order[0]], by default its
    first half and then its zero middle row (odd length only);
    find_isometries passes one row per orbit of a symmetry group.

    gram holds the integer Gram rows of a form and shells one sorted,
    sign-complete shell of that form per column.  A tuple holds one row
    of each shell, in index order, such that the rows of every two
    columns a != b pair under gram to targets[a][b].  The columns are
    placed in the given order with forward checking: a placed row
    narrows every open column to the rows that pair with it to their
    target, and a column left empty drops the branch.  The first placed
    row narrows all other columns at once: through narrow(r) when given,
    which returns their lists in index order, and otherwise through
    _survivors (looked up on the module at call time) on a packed
    _Eq2Table of the other shells.  Deeper rows narrow the open lists one
    dot product per row, the shortest list first.  Each list keeps shell
    order, so the tuples with r come in the lexicographic order of their
    rows' shell positions, taken in column order.

    The targets are homogeneous of degree 2, so the tuples with -r in
    column order[0] are those with r negated; the caller derives them.
    Nothing is yielded when a shell is empty.
    """
    if not all(shells):
        return
    n, first = len(shells), order[0]
    shell = shells[first]
    half = shell[: (len(shell) + 1) // 2] if rows is None else rows
    if n == 1:
        yield from ([(r,)] for r in half)
        return
    others = [c for c in range(n) if c != first]
    if narrow is None:
        table = _Eq2Table([shells[c] for c in others], [targets[first][c] for c in others])

        def narrow(row):
            return _survivors(table, [_dot(g, row) for g in gram])
    chosen: list = [None] * n

    def rec(d: int, lists: list):
        # lists[c]: the rows of open column c that fit every placed row.
        c = order[d]
        if d == n - 1:
            for v in lists[c]:
                chosen[c] = v
                yield tuple(chosen)
            return
        tc = targets[c]
        checks = sorted(order[d + 1 :], key=lambda k: len(lists[k]))
        for v in lists[c]:
            g = [_dot(row, v) for row in gram]
            narrowed = lists.copy()
            for k in checks:
                t = tc[k]
                if not (kept := [u for u in lists[k] if sum(map(mul, u, g)) == t]):
                    break
                narrowed[k] = kept
            else:
                chosen[c] = v
                yield from rec(d + 1, narrowed)

    for r in half:
        chosen[first] = r
        lists: list = [None] * n
        for c, kept in zip(others, narrow(r)):
            lists[c] = kept
        yield list(rec(1, lists)) if all(lists[c] for c in others) else []


def reconstruct(problem: IsometryProblem, e1: tuple[int, ...], picks: tuple) -> CandidateIsometry | None:
    """Rebuild the candidate matrix from an eq1 row (s, x) and one eq3
    row (t_i, y_i) per probe, or None.

    atilde is solved exactly from B(atilde, w) = 0 and
    B(atilde, z0_i) = t_i, and must lie in the dual lattice; the matrix
    is assembled columnwise from phi(w) = (s w + btilde)/N and
    phi(z_i) = (c_i + t_i w)/N^2, then verified exactly against the
    target form before emission.  Everything before that check is linear
    in the n^2 integers z = e1 || pick_1 || ...: the _SlotMap of
    IsometryProblem._recon_tables, evaluated at z, gives the
    numerator num of M over den = N^2 db, btilde, the c_i, atilde dp and,
    when P^-1 is not integral (db != 1), adj^T (0, t), whose entries must
    all be multiples of db.  (For db = 1, e.g. for the default unit-vector
    probes, every atilde lies in the dual lattice.)  The candidate keeps
    its provenance as CandidateIsometry's flat integer tuple, read off the
    slots field by field (fixed lengths, so it sorts as the nested
    provenance does); Fractions are built only for output.
    """
    tab = problem._recon_tables
    n = tab.n
    n2 = n * n
    out = tab.outputs((*e1, *chain.from_iterable(picks)))
    db = tab.db
    if db != 1 and any(v % db for v in out[2 * n2 + n :]):
        return None
    num = [out[i : i + n] for i in range(0, n2, n)]
    if not problem.pulls_back(num, tab.den):
        return None
    prov = (e1[0], *out[n2 : n2 + n], *out[2 * n2 : 2 * n2 + n], *out[n2 + n : 2 * n2])
    return CandidateIsometry(num, tab.den, prov, tab.dp, tab.memo)


def _signed_automorphisms(problem: IsometryProblem) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The signed permutations U with U^T B U = B and U w = w, each as
    (perm, signs) with (U v)_i = signs[i] v[perm[i]], the identity first.

    Such a U holds B_(perm i)(perm l) = signs[i] signs[l] B_il and
    signs[i] w_(perm i) = w_i, so one backtracking over the coordinates i
    places perm[i] and signs[i] on B's diagonal, on w and on the pairings
    with the coordinates placed before it."""
    b, w, n = problem._gram, problem._w, problem.dim
    perm, signs, found = [0] * n, [0] * n, []

    def place(i: int, free: list[int]) -> None:
        if i == n:
            found.append((tuple(perm), tuple(signs)))
            return
        bi = b[i]
        for j in free:
            bj = b[j]
            if bj[j] != bi[i]:
                continue
            for s in (1, -1):
                if s * w[j] == w[i] and all(bj[perm[m]] == s * signs[m] * bi[m] for m in range(i)):
                    perm[i], signs[i] = j, s
                    place(i + 1, [k for k in free if k != j])

    place(0, list(range(n)))
    return found


def _orbits(problem: IsometryProblem, group, shell) -> tuple[list, list]:
    """(rows, images): one row r of the first half of the sorted,
    sign-complete shell per orbit of <group, -1>, in shell order, and for
    each r the elements U, identity left out, that map it to the other
    members of its group orbit, one U per member and one member per
    +-pair.  The group acts on r through its ambient vector E r."""
    basis = problem._l0_basis
    rows, images, covered = [], [], set()
    for r in shell[: (len(shell) + 1) // 2]:
        a = tuple([_dot(e, r) for e in basis])
        if a in covered:
            continue
        members = {}
        for perm, signs in group:
            v = tuple([s * a[p] for p, s in zip(perm, signs)])
            if v not in members and _neg(v) not in members:
                members[v] = perm, signs
        covered.update(members, map(_neg, members))
        rows.append(r)
        images.append(list(members.values())[1:])
    return rows, images


def _orbit_images(problem: IsometryProblem, found: list, elements) -> list[CandidateIsometry]:
    """The candidates U M for each (perm, signs) U of elements and each
    candidate M of found, U by U, that pass the pullback test.

    U M solves M^T B M = B' with M since U^T B U = B, and it is what
    reconstruct builds from the tuple of M mapped by U: its rows are rows
    of M, permuted and negated (their texts from the problem's memo), and
    its provenance is (s, U btilde, dp atilde, U c_1, ...), since U fixes
    w and so every t_i and atilde."""
    n, out = problem.dim, []
    negs = problem._recon_tables.memo[1]
    for perm, signs in elements:
        # The flat index and sign, in M's provenance, of each entry of U M's.
        src, sgn = [0], [1]
        for at in range(1, n * n + n + 1, n):
            fixed = at == n + 1  # dp atilde
            src += [at + i if fixed else at + p for i, p in enumerate(perm)]
            sgn += [1] * n if fixed else signs
        for cand in found:
            rows = cand.num
            num = tuple([rows[p] if s > 0 else negs[rows[p]] for p, s in zip(perm, signs)])
            if problem.pulls_back(num, cand.den):
                prov = tuple(map(mul, sgn, map(cand._prov.__getitem__, src)))
                out.append(CandidateIsometry(num, cand.den, prov, cand._dp, cand._memo))
    return out


def find_isometries(
    problem: IsometryProblem,
    all_solutions: bool = True,
    integral_only: bool = False,
) -> SearchResult:
    """Run the full pipeline and certify the outcome.

    Composes solve_eq1, solve_eq3_per_z0 (once per probe), the joint
    search over the n shells (eq1, then one eq3 shell per probe) and
    reconstruct, all on L0 rows.  The joint search (_gram_search under
    diag(N, G_K), with the problem's pair_targets) places one row per
    shell with forward checking, every pairing of two rows held to its
    eq2 or cross-probe target; the first placed row narrows all other
    shells at once on a packed table (filter_eq2 when the eq1 row is
    first), and reconstruct evaluates the problem's other slot map,
    built once, per joint tuple.  With all_solutions=True the
    shells are placed by size, fewest rows first (eq1 first on ties): the
    output does not depend on the order, because the candidates are
    sorted.  The first-witness scan places them in index order (eq1,
    probe 1, ...), which meets the tuples in the order of the eq1-first
    scan.

    The equations are homogeneous of degree 2 and the shells are
    sign-complete with entry L-1-j = -entry j, so only the first half of
    the first placed shell and its zero middle row (odd length) are
    searched.  The tuples with -r in the first placed column are those
    with r negated; reconstruct is linear in the tuple and its test
    num^T B num = den^2 B' is even in num, so the search's candidates
    are followed by their negations in reverse order.  No joint tuple
    holds a zero row: the pairing targets form N^2 times the Gram matrix
    of B' in the basis (w, zhat_1, ...), which is nonsingular because
    det B' = det B > 0 here, so the middle row yields nothing and no
    tuple is its own negation.  Integrality is invariant under negation,
    so the first witness always comes from a searched row.

    With all_solutions=True and every shell non-empty, the signed
    permutations U with U^T B U = B and U w = w (_signed_automorphisms)
    map the tuples with a first row r to those with U r.  When there is
    more than the identity, one row r per orbit (_orbits) is searched, and
    the candidates of each other member U r are U M for those M of r
    (_orbit_images), counted in joint_raw once per member: the stats,
    certificate and sorted candidates are those of the plain search.
    The first-witness scan stops early, in scan order, and searches plainly.

    The certificate is ObstructionDeterminant on determinant mismatch,
    ObstructionEq1 when eq1 has no solutions, IsometricWitness when an
    integral candidate exists, NoIntegralIsometry otherwise.  With
    all_solutions=False the scan stops after the first eq1 row that
    yields an integral witness (stats are then partial).
    """
    if problem.det_mismatch:
        return SearchResult([], _determinant_obstruction(problem), SearchStats())
    e1s = solve_eq1(problem)
    if not e1s:
        return SearchResult([], _eq1_obstruction(problem), SearchStats())
    per_probe = [solve_eq3_per_z0(problem, z0) for z0 in problem._probes]
    shells = (e1s, *per_probe)
    order = _size_order(shells) if all_solutions else range(len(shells))
    # filter_eq2 is looked up at call time, so that a wrapper sees it.
    narrow = (lambda e1: filter_eq2(problem, e1, per_probe)) if order[0] == 0 else None
    rows = images = None
    if all_solutions and all(shells):
        group = _signed_automorphisms(problem)
        if len(group) > 1:
            rows, images = _orbits(problem, group, shells[order[0]])

    candidates: list[CandidateIsometry] = []
    # A scan that stops early counts no canonical tuple: it searches only
    # the first half of the sorted eq1 shell, whose rows lead with a
    # negative entry.
    joint_raw = joint_canonical = 0
    for k, tuples in enumerate(_gram_search(problem._l0_gram, problem.pair_targets, shells, order, narrow, rows)):
        start = len(candidates)
        joint_raw += len(tuples)
        for cols in tuples:
            cand = reconstruct(problem, cols[0], cols[1:])
            if cand is not None:
                candidates.append(cand)
        if images:
            candidates += _orbit_images(problem, candidates[start:], images[k])
            joint_raw += len(tuples) * len(images[k])
        if not all_solutions and any(c.integral for c in candidates[start:]):
            break
    else:
        # The tuples not searched are those found, negated; no tuple is
        # its own negation, so one of each pair is canonical.
        joint_raw, joint_canonical = 2 * joint_raw, joint_raw
        candidates += [-c for c in reversed(candidates)]
    if all_solutions:
        # Each atilde is an integer row over the one dp > 0 and every flat
        # field has one length, so this is the order of the nested Fractions.
        candidates.sort(key=lambda cand: cand._prov)
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
                "candidates": [c.entry_strings for c in candidates],
                "joint_survivors": joint_raw,
            },
        )
    stats = SearchStats(
        eq1_raw=len(e1s),
        # One of each +-pair, and 0 (canonical) when it is a solution.
        eq1_canonical=(len(e1s) + 1) // 2,
        eq3_per_probe=tuple(map(len, per_probe)),
        joint_raw=joint_raw,
        joint_canonical=joint_canonical,
        candidates=len(candidates),
        integral=len(integral),
    )
    if integral_only:
        candidates = [c for c in candidates if c.integral]
    return SearchResult(candidates, cert, stats)


def _determinant_obstruction(problem: IsometryProblem) -> Certificate:
    """The ObstructionDeterminant certificate of a problem, with the
    integer determinants of B and B' as texts."""
    detail = {"det_source": str(problem.source._det), "det_target": str(problem.target._det)}
    return Certificate("ObstructionDeterminant", detail=detail)


def _eq1_obstruction(problem: IsometryProblem) -> Certificate:
    """The ObstructionEq1 certificate of a problem: N, the eq1 target
    N^2 B'(w,w) and the Gram rows G_K of K, so that diag(N, G_K) is the
    form with no vector of that norm."""
    kernel = [list(row) for row in problem.kernel_gram]
    detail = {"norm": problem.wnorm, "target": problem.eq1_target, "kernel_gram": kernel}
    return Certificate("ObstructionEq1", detail=detail)


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

    The constant is the eq1 target N^2 B'(w,w) of the family's forms
    (rank2_family_forms, rank3_family_forms, which check the parameters),
    and for rank 3 `reduced` is that constant over N^2.
    """
    if kind == "two_squares_rank2":
        detail = {key: params[key] for key in ("m", "n", "alpha", "beta", "gamma")}
        forms = rank2_family_forms(**detail)
        squares = 2
    elif kind == "three_squares_rank3":
        m, alpha = params["m"], params.get("alpha")
        abg = (None,) * 3 if alpha is None else (alpha, params["beta"], params["gamma"])
        forms = rank3_family_forms(m, *abg)
        target = forms[1].gram
        detail = {"m": m, "alpha": int(target[0, 0]), "beta": int(target[0, 1]), "gamma": int(target[1, 1])}
        squares = 3
    else:
        raise BadFamilyParams(f"unknown family kind {kind!r}")
    problem = IsometryProblem(*forms)
    constant = problem.eq1_target
    detail.update(kind=kind, constant=constant, squares=squares)
    if squares == 3:
        detail["reduced"] = constant // problem.wnorm**2
    return Certificate(squares_verdict(constant, squares), detail=detail)


def squares_verdict(constant: int, squares: int) -> str:
    """Inconclusive when the constant is a sum of `squares` (2 or 3)
    integer squares, ObstructionTwoSquares or ObstructionThreeSquares
    when it is not."""
    if squares == 2:
        pred, obstruction = two_squares_representable, "ObstructionTwoSquares"
    elif squares == 3:
        pred, obstruction = three_squares_representable, "ObstructionThreeSquares"
    else:
        raise BadFamilyParams("squares must be 2 or 3")
    return "Inconclusive" if constant >= 0 and pred(constant) else obstruction


def squares_certificate(constant: int, squares: int) -> Certificate:
    """Direct sum-of-squares test on a single constant.

    Obstruction verdict when the constant is not a sum of `squares`
    integer squares, Inconclusive when it is.  The certificate states a
    fact about its constant only: it ties the constant to no pair of
    forms (family_obstruction does that for the two families).
    """
    verdict = squares_verdict(constant, squares)
    return Certificate(verdict, detail={"constant": constant, "squares": squares})


def obstruction_certificate(params: dict) -> Certificate:
    """The certificate of obstruct's parameters: {"family": "rank2" or
    "rank3", "m", ...} through family_obstruction, {"N", "squares"}
    through squares_certificate.  An unknown family raises KeyError."""
    if "family" in params:
        kind = {"rank2": "two_squares_rank2", "rank3": "three_squares_rank3"}[params["family"]]
        return family_obstruction(kind, **{k: v for k, v in params.items() if k != "family"})
    return squares_certificate(params["N"], params["squares"])


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


def _isometry_blocks(b_rows, bp_rows, bound: int | None = None):
    """(col_sets, order, blocks) of the search of _isometries: the
    column shells, their placing order and the _gram_search generator
    of the integral M whose first placed column is in the first half of
    its shell."""
    q, n = PosDefForm(b_rows), len(b_rows)
    col_sets = [vectors_of_norm(q, t) if t >= 0 else () for t in (bp_rows[j][j] for j in range(n))]
    if bound is not None:
        col_sets = [tuple(v for v in cs if max(map(abs, v)) <= bound) for cs in col_sets]
    if any(cs[::-1] != tuple(map(_neg, cs)) for cs in col_sets):
        raise ValueError("a column shell is not sign-complete")
    order = _size_order(col_sets)
    return col_sets, order, _gram_search(b_rows, bp_rows, col_sets, order)


def _isometries(b_rows, bp_rows, bound: int | None = None) -> list[tuple[tuple[int, ...], ...]]:
    """The sorted column tuples of every integral M with M^T B M = B', for
    the integer Gram rows of B (positive definite: NotPositiveDefinite
    otherwise) and of B'.

    Column j of M lies in the shell {v : B(v,v) = B'_jj}, empty when
    B'_jj < 0, and the columns pair to B'_jk under B: the search is
    _gram_search under B with targets B', the engine of find_isometries,
    placing the smallest shell first.  Shells must be sorted and
    sign-complete, entry L-1-i = -entry i (ValueError otherwise), so only
    the first half of the first placed shell and its middle 0 are
    searched, and the matrices whose first placed column is a nonzero -v
    are those with v, negated column by column through one map v -> -v
    read off the shells.  The column tuples are then sorted, which is the
    lexicographic order of their shell indices, column 0 first, since
    every shell is sorted.  bound keeps only entries |m_ij| <= bound.
    Desk-scale only.
    """
    col_sets, order, blocks = _isometry_blocks(b_rows, bp_rows, bound)
    neg = {v: u for cs in col_sets for v, u in zip(cs, reversed(cs))}
    found = [cols for block in blocks for cols in block]
    found += [tuple(map(neg.__getitem__, cols)) for cols in found if any(cols[order[0]])]
    found.sort()
    return found


def brute_force_isometries(source: GramForm, target: GramForm, bound: int | None = None) -> list[Mat]:
    """Complete list of integral M with M^T B M = B', in the order of
    _isometries, which searches them.  B and B' must share a dimension
    (DimensionMismatch) and be integral (NonIntegralForm), B positive
    definite; bound keeps only entries |m_ij| <= bound."""
    fractions = cache(lambda row: tuple(map(Fraction, row)))
    found = _isometries(*_integer_grams(source.cleared, target.cleared), bound)
    return [Mat._of_rows(tuple(map(fractions, zip(*cols)))) for cols in found]


# Detail fields of a family certificate that family_obstruction derives
# from the others.
_FAMILY_DERIVED = ("kind", "constant", "reduced", "squares")


def verify_certificate(cert: Certificate, problem: IsometryProblem | None) -> bool:
    """Re-check a certificate against its problem without re-searching.

    A squares verdict states a fact about its own detail, so it is
    checked with no problem (None) and fails with one; every other
    verdict needs its problem.  A witness must be integral, pull B' back
    (num^T B num = B', in integers) and be unimodular, |det M| = 1 (from
    _det).  A verdict
    that needs no search holds only when its certificate, rebuilt, equals
    the given one (verdict, witness and detail): ObstructionDeterminant
    needs det B != det B' and is rebuilt by _determinant_obstruction;
    ObstructionEq1 needs det B = det B', re-runs only the eq1 enumeration
    and is rebuilt by _eq1_obstruction; a squares obstruction or
    Inconclusive is rebuilt by family_obstruction, run on the detail's
    integer parameters, when its detail names a family `kind`, and by
    squares_certificate on the stated constant and squares otherwise;
    either way every detail field but the kind must be an int (not bool
    or float).  NoIntegralIsometry re-verifies the recorded candidates
    (in integers, each distinct entry parsed once; one that does not
    parse rejects), that none is integral, and then re-derives the
    verdict from B and B' alone: det B = det B' and the oracle search (_isometry_blocks) finds no
    integral M, stopping at the first block holding one; a SuperlatError
    from it (B not positive definite) rejects.  Only this decides a verdict.
    """
    verdict = cert.verdict
    if (problem is None) == (verdict in ("IsometricWitness", "NoIntegralIsometry", "ObstructionEq1", "ObstructionDeterminant")):
        return False
    if verdict == "IsometricWitness":
        if cert.witness is None:
            return False
        num = cert.witness.num
        return cert.witness.den == 1 and problem.pulls_back(num, 1) and abs(_det(num)) == 1
    if verdict == "NoIntegralIsometry":
        try:
            dens = isometry_denominators(problem, cert.detail.get("candidates", []))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            # A listed entry or row that does not parse.
            return False
        if not (all(den not in (None, 1) for den in dens) and problem.det_mismatch is False):
            return False
        try:
            return not any(_isometry_blocks(problem._gram, problem._tgram)[2])
        except SuperlatError:
            return False
    if verdict == "ObstructionEq1":
        return problem.det_mismatch is False and not solve_eq1(problem) and cert == _eq1_obstruction(problem)
    if verdict == "ObstructionDeterminant":
        return problem.det_mismatch and cert == _determinant_obstruction(problem)
    if verdict in ("ObstructionTwoSquares", "ObstructionThreeSquares", "Inconclusive"):
        # 3.0 == 3 and True == 1, so only the type rejects such a field.
        if not all(type(v) is int for k, v in cert.detail.items() if k != "kind"):
            return False
        try:
            if "kind" in cert.detail:
                params = {k: v for k, v in cert.detail.items() if k not in _FAMILY_DERIVED}
                return cert == family_obstruction(cert.detail["kind"], **params)
            return cert == squares_certificate(cert.detail["constant"], cert.detail["squares"])
        except (BadFamilyParams, KeyError):
            return False
    return False
