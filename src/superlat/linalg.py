"""Exact rational vectors/matrices and integer-lattice primitives.

`Vec` and `Mat` hold `fractions.Fraction` scalars, which keeps every value
in canonical form (positive denominator, gcd(num, den) = 1) for free.
They are the API type: problems, forms and results are given and returned
as `Vec`/`Mat`.  The search does not use them: it works on integer tuples
over cleared denominators (see `isometry`).  Nothing in this module ever rounds, and
every exact determinant and inverse comes from one fraction-free
elimination in integers: `_cleared` clears the denominators of Fraction
rows (`_cleared_pairs` those of rows of (p, q) pairs, as `parse_entry`
reads text), `_det` (Bareiss) gives det A, and `_det_adjugate` gives
det A and adj A, from which `Mat.inverse` and `_cleared_inverse` are
read off.
Likewise `integer_kernel_basis` reads its basis off one integer row
reduction, the Hermite form (`hermite_row_reduce`) of (f | I).  Sizes
are small (n <= 8 in practice), so everything is dense.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, SingularMatrix, ZeroFunctional

Scalar = int | Fraction


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


_ENTRY = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?\Z")
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def parse_fraction(x) -> Fraction:
    """Fraction(x), except that a string whose decimal exponent exceeds
    sys.get_int_max_str_digits() in magnitude raises ValueError: Fraction
    would first build 10**exponent, which takes minutes for an exponent
    of 10^8.  Python applies the same limit to the digits of a plain
    integer token.  parse_entry reads every token through this function
    that is not an ASCII integer or p/q."""
    if isinstance(x, str):
        exponent = _EXPONENT.search(x)
        limit = sys.get_int_max_str_digits()
        if exponent and limit and abs(int(exponent[1])) > limit:
            raise ValueError(f"decimal exponent exceeds {limit} in magnitude")
    return Fraction(x)


def parse_entry(x) -> tuple[int, int]:
    """(p, q), q > 0 and gcd(p, q) = 1, for the value p/q that
    parse_fraction(x) gives, with the same exceptions.  Every entry of a
    problem file, matrix file or document is read through this function.

    An ASCII string [+-]?[0-9]+, or two of them around a / with no sign
    after it, is read with int(), which gives the values Fraction's own
    parser gives and raises the same ValueError past the digit limit, at
    a fraction of its cost and with no Fraction built.  Every other
    input takes parse_fraction."""
    if isinstance(x, str) and (m := _ENTRY.match(x)):
        p, q = m.groups()
        if q is None:
            return int(p), 1
        p, q = int(p), int(q)
        if not q:
            raise ZeroDivisionError(f"Fraction({p}, 0)")
        g = gcd(p, q)
        return p // g, q // g
    f = parse_fraction(x)
    return f.numerator, f.denominator


@dataclass(frozen=True)
class Vec:
    """Immutable vector of exact rationals."""

    entries: tuple[Fraction, ...]

    def __init__(self, entries: Iterable[Scalar]):
        object.__setattr__(self, "entries", tuple(_frac(e) for e in entries))
        if not self.entries:
            raise DimensionMismatch("empty vector")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]

    def __add__(self, other: "Vec") -> "Vec":
        self._check_len(other)
        return Vec(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "Vec") -> "Vec":
        self._check_len(other)
        return Vec(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "Vec":
        return Vec(-a for a in self.entries)

    def __rmul__(self, c: Scalar) -> "Vec":
        c = _frac(c)
        return Vec(c * a for a in self.entries)

    def dot(self, other: "Vec") -> Fraction:
        """Plain coordinate dot product (no form involved)."""
        self._check_len(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.entries)

    def to_ints(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise ValueError("vector has non-integer entries")
        return tuple(int(a) for a in self.entries)

    def _check_len(self, other: "Vec") -> None:
        if len(self) != len(other):
            raise DimensionMismatch(f"vector lengths {len(self)} != {len(other)}")

    @staticmethod
    def zero(n: int) -> "Vec":
        return Vec([0] * n)

    @staticmethod
    def unit(n: int, i: int) -> "Vec":
        return Vec([1 if j == i else 0 for j in range(n)])

    def __repr__(self) -> str:
        return "Vec(" + ", ".join(str(a) for a in self.entries) + ")"


@dataclass(frozen=True)
class Mat:
    """Immutable matrix of exact rationals (rectangular allowed)."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __init__(self, rows: Iterable[Iterable[Scalar]]):
        tup = tuple(tuple(_frac(e) for e in row) for row in rows)
        if not tup or not tup[0]:
            raise DimensionMismatch("empty matrix")
        ncols = len(tup[0])
        if any(len(r) != ncols for r in tup):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "rows", tup)

    @classmethod
    def _of_rows(cls, rows: tuple[tuple[Fraction, ...], ...]) -> "Mat":
        """The Mat of rows as given, unchecked: equally long tuples of Fractions."""
        object.__setattr__(self := object.__new__(cls), "rows", rows)
        return self

    @classmethod
    def _of_cleared(cls, d: int, rows) -> "Mat":
        """The Mat (d A) / d of integer rows d A."""
        return cls._of_rows(tuple(tuple(Fraction(x, d) for x in row) for row in rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.rows[ij[0]][ij[1]]

    def col(self, j: int) -> Vec:
        return Vec(r[j] for r in self.rows)

    def __add__(self, other: "Mat") -> "Mat":
        self._check_shape(other)
        return Mat(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_shape(other)
        return Mat(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )

    def __neg__(self) -> "Mat":
        return Mat(tuple(-a for a in r) for r in self.rows)

    def __rmul__(self, c: Scalar) -> "Mat":
        c = _frac(c)
        return Mat(tuple(c * a for a in r) for r in self.rows)

    def __matmul__(self, other):
        if isinstance(other, Vec):
            if self.ncols != len(other):
                raise DimensionMismatch(f"{self.ncols} cols vs vector length {len(other)}")
            return Vec(
                sum((a * b for a, b in zip(row, other.entries)), Fraction(0))
                for row in self.rows
            )
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise DimensionMismatch(f"{self.ncols} cols vs {other.nrows} rows")
            bt = other.transpose().rows
            return Mat(
                tuple(
                    sum((a * b for a, b in zip(row, colt)), Fraction(0))
                    for colt in bt
                )
                for row in self.rows
            )
        return NotImplemented

    def transpose(self) -> "Mat":
        return Mat(zip(*self.rows))

    def trace(self) -> Fraction:
        self._require_square()
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def determinant(self) -> Fraction:
        """Exact determinant: det(d A) / d^n for d A the integer rows of
        _cleared, with det(d A) from _det."""
        self._require_square()
        d, rows = _cleared(self.rows)
        return Fraction(_det(rows), d**self.nrows)

    def inverse(self) -> "Mat":
        """Exact inverse d adj(d A) / det(d A) for d A the integer rows of
        _cleared (see _det_adjugate); raises SingularMatrix if det = 0."""
        self._require_square()
        d, rows = _cleared(self.rows)
        det, adj = _det_adjugate(rows)
        if not det:
            raise SingularMatrix("matrix is not invertible")
        return Mat._of_rows(tuple(tuple(Fraction(d * x, det) for x in row) for row in adj))

    def is_symmetric(self) -> bool:
        return self.is_square and all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.nrows)
            for j in range(i)
        )

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for r in self.rows for a in r)

    def _check_shape(self, other: "Mat") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("matrix shapes differ")

    def _require_square(self) -> None:
        if not self.is_square:
            raise DimensionMismatch("square matrix required")

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

    @staticmethod
    def zero(n: int, m: int | None = None) -> "Mat":
        return Mat(tuple(0 for _ in range(m or n)) for _ in range(n))

    @staticmethod
    def diagonal(diag: Iterable[Scalar]) -> "Mat":
        d = [_frac(x) for x in diag]
        return Mat(
            tuple(d[i] if i == j else 0 for j in range(len(d))) for i in range(len(d))
        )

    def __repr__(self) -> str:
        return "Mat[" + "; ".join(" ".join(str(a) for a in r) for r in self.rows) + "]"


def _cleared(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, d * rows) with d the lcm of the denominators of the Fraction
    rows."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in rows)


def _cleared_pairs(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, d * rows) for rows of entries p/q given as pairs (p, q) in
    lowest terms, q > 0 (as parse_entry gives them): d the lcm of the q,
    so (d, d * rows) is what _cleared gives for the same values."""
    d = lcm(*(q for row in rows for _, q in row))
    return d, tuple(tuple(p * (d // q) for p, q in row) for row in rows)


def _det(rows) -> int:
    """det A for a square integer matrix A given by rows (1 for n = 0).

    The elimination of _det_adjugate without the identity block, below
    and to the right of each pivot only: every updated entry is a minor
    of PA, so each division is exact, and det PA is the last pivot.  Its
    row swaps past a zero pivot (each flipping the sign) keep a zero
    leading minor, as in [[0, 1], [1, 0]], legal."""
    a = [list(row) for row in rows]
    n, prev, sign = len(a), 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pivot = a[k]
        pk = pivot[k]
        for row in a[k + 1 :]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (pk * row[j] - f * pivot[j]) // prev
        prev = pk
    return sign * prev


def _det_adjugate(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det A, adj A) for a square integer matrix A given by rows, and
    (0, ()) when A is singular; adj A = det A * A^-1.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968) on (A | I) ends in (e I | e A^-1) for e = det PA, P the row
    swaps made: every intermediate entry is a minor of (A | I), so each
    division is exact.  Each swap flips the sign of det PA against det A."""
    n = len(rows)
    m = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    prev, sign = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return 0, ()
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pivot = m[k]
        pk = pivot[k]
        for i, row in enumerate(m):
            if i != k:
                f = row[k]
                m[i] = [(pk * x - f * y) // prev for x, y in zip(row, pivot)]
        prev = pk
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in m)


def _cleared_inverse(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, d A^-1) for a square integer matrix A given by rows, d > 0 the
    lcm of the denominators of A^-1 (what _cleared gives for A^-1), and
    (0, ()) when A is singular.  So d == 1 iff A is unimodular.  With
    (det A, adj A) from _det_adjugate, d = |det A| / g and
    d A^-1 = adj A / (g sign det A) for g = gcd(det A, adj A)."""
    det, adj = _det_adjugate(rows)
    if not det:
        return 0, ()
    g = gcd(det, *chain.from_iterable(adj))
    if det < 0:
        g = -g
    return det // g, tuple(tuple(x // g for x in row) for row in adj)


def primitive_integer_vector(f: Sequence[Scalar]) -> tuple[int, ...]:
    """Scale a nonzero vector of ints or Fractions (a Vec or any
    sequence) to a primitive integer vector.

    Clears the denominators (_cleared), then divides by the gcd.  The sign
    is kept as-is (the kernel is the same either way).
    """
    if not any(f):
        raise ZeroFunctional("zero functional has no primitive form")
    _, (ints,) = _cleared([tuple(f)])
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def hermite_row_reduce(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Row-style Hermite normal form of an integer matrix.

    Rows are returned ordered by pivot column; pivots are positive and every
    entry above a pivot is reduced into [0, pivot).  Zero rows are dropped.
    The output is a canonical basis of the row lattice, so any two bases of
    the same lattice reduce to identical rows.  integer_kernel_basis reads
    its kernel basis off one such reduction.
    """
    a = [list(r) for r in rows]
    if not a:
        return []
    ncols = len(a[0])
    top = 0
    for c in range(ncols):
        while True:
            live = [r for r in range(top, len(a)) if a[r][c] != 0]
            if not live:
                break
            r0 = min(live, key=lambda r: (abs(a[r][c]), r))
            a[top], a[r0] = a[r0], a[top]
            done = True
            for r in range(top + 1, len(a)):
                if a[r][c] != 0:
                    q = a[r][c] // a[top][c]
                    a[r] = [x - q * y for x, y in zip(a[r], a[top])]
                    if a[r][c] != 0:
                        done = False
            if done:
                break
        if top < len(a) and a[top][c] != 0:
            if a[top][c] < 0:
                a[top] = [-x for x in a[top]]
            for r in range(top):
                q = a[r][c] // a[top][c]
                if q:
                    a[r] = [x - q * y for x, y in zip(a[r], a[top])]
            top += 1
            if top == len(a):
                break
    return [tuple(r) for r in a[:top]]


def integer_kernel_basis(f: Sequence[Scalar]) -> list[tuple[int, ...]]:
    """Z-basis, in Hermite form, of the kernel sublattice
    K = {v in Z^n : f . v = 0}, as int tuples read off one
    hermite_row_reduce; f is a Vec or any sequence of ints or Fractions.

    With fi the primitive integer vector of f, the rows (fi_i | e_i) span
    {(fi . v, v) : v in Z^n}.  As fi is primitive, their first Hermite row
    has pivot 1 in column 0, and the other n - 1 are (0, v): they span
    exactly (0, K), since a combination with first entry 0 cannot use the
    first row.  Their tails meet the Hermite conditions, and the Hermite
    form of a lattice is unique, so they are what hermite_row_reduce
    makes of any other basis of K.
    """
    fi = primitive_integer_vector(f)
    rows = hermite_row_reduce([(x, *(int(i == j) for j in range(len(fi)))) for i, x in enumerate(fi)])
    return [row[1:] for row in rows[1:]]
