"""Exact integer solutions of positive definite norm equations.

The enumeration follows the Fincke-Pohst recursion on an exact rational
LDL^T factorization: with y = L^T x the form reads sum_j d_j y_j^2.  The
denominators of L and of the pivots are cleared once per form, so the
recursion carries only integers: the budget, the scaled coordinates
Y_j = dl * y_j and the scaled pivots P_j, with coordinate ranges from
`math.isqrt` (never floating point).  Also houses the classical two- and
three-squares representability predicates used as factorization
obstructions.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .errors import InvalidForm, NegativeTarget, NotPositiveDefinite
from .linalg import Mat, Vec


ScaledLDL = namedtuple("ScaledLDL", "dl scale pivots low")


class PosDefForm:
    """Symmetric positive definite rational Gram matrix with cached LDL^T.

    Positivity is certified exactly: the factorization pivots d_j are the
    ratios of consecutive leading principal minors, so requiring every
    pivot > 0 is Sylvester's criterion.
    """

    def __init__(self, gram: Mat):
        if not gram.is_symmetric():
            raise InvalidForm("Gram matrix must be symmetric")
        self.gram = gram
        self._diag, self._lower = _ldl(gram)
        self._scaled: ScaledLDL | None = None

    @property
    def dim(self) -> int:
        return self.gram.nrows

    @property
    def pivots(self) -> tuple[Fraction, ...]:
        """LDL^T pivots; all positive."""
        return self._diag

    def leading_minors(self) -> tuple[Fraction, ...]:
        out, acc = [], Fraction(1)
        for d in self._diag:
            acc *= d
            out.append(acc)
        return tuple(out)

    def evaluate(self, v) -> Fraction:
        """v^T gram v for a vector or plain int/Fraction sequence."""
        entries = v.entries if isinstance(v, Vec) else tuple(v)
        n = self.dim
        acc = Fraction(0)
        for i in range(n):
            row = self.gram.rows[i]
            acc += entries[i] * sum(
                (row[j] * entries[j] for j in range(n)), Fraction(0)
            )
        return acc

    def scaled_ldl(self) -> "ScaledLDL":
        """The LDL^T factorization with its denominators cleared, cached.

        With dl and dq the lcms of the denominators of L and of the
        pivots d_j, P_j = dq d_j and Y_j = dl x_j + sum l x_i over the
        pairs (i, l) = (i, dl L_ij) in low[j], the identity
        scale * x^T G x = sum_j P_j Y_j^2 holds in integers, scale = dl^2 dq.
        """
        if self._scaled is None:
            d, low, n = self._diag, self._lower, self.dim
            dl = lcm(1, *(low[i][j].denominator for i in range(n) for j in range(i)))
            dq = lcm(*(x.denominator for x in d))
            self._scaled = ScaledLDL(
                dl,
                dl * dl * dq,
                tuple(int(x * dq) for x in d),
                tuple(
                    tuple((i, int(low[i][j] * dl)) for i in range(j + 1, n) if low[i][j])
                    for j in range(n)
                ),
            )
        return self._scaled


def _ldl(gram: Mat) -> tuple[tuple[Fraction, ...], tuple[tuple[Fraction, ...], ...]]:
    n = gram.nrows
    d: list[Fraction] = []
    low = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        pivot = gram.rows[j][j] - sum(
            (low[j][k] * low[j][k] * d[k] for k in range(j)), Fraction(0)
        )
        if pivot <= 0:
            raise NotPositiveDefinite(f"pivot {j} is {pivot}")
        d.append(pivot)
        low[j][j] = Fraction(1)
        for i in range(j + 1, n):
            low[i][j] = (
                gram.rows[i][j]
                - sum((low[i][k] * low[j][k] * d[k] for k in range(j)), Fraction(0))
            ) / pivot
    return tuple(d), tuple(tuple(r) for r in low)


@dataclass(frozen=True)
class NormSolutionSet:
    """All integer vectors of a given norm, in lexicographic order."""

    target: int
    solutions: tuple[tuple[int, ...], ...]
    canonicalized: bool

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    def __contains__(self, v) -> bool:
        return tuple(v) in self.solutions

    def vectors(self) -> list[Vec]:
        return [Vec(s) for s in self.solutions]

    def canonical(self) -> "NormSolutionSet":
        """Keep one of each +-v pair: first nonzero entry positive."""
        if self.canonicalized:
            return self
        kept = tuple(s for s in self.solutions if _sign_canonical(s))
        return NormSolutionSet(self.target, kept, True)


def _sign_canonical(v: tuple[int, ...]) -> bool:
    for x in v:
        if x:
            return x > 0
    return True


def vectors_of_norm(q: PosDefForm, c: int, canonical: bool = False) -> NormSolutionSet:
    """Complete set {v in Z^d : v^T Q v = c}, exact and deterministic.

    Coordinates are chosen from the last to the first.  The remaining
    budget R = rem * dl^2 * dq is an integer, and level j admits the
    scaled coordinates |Y_j| <= isqrt(R // P_j); the first coordinate is
    an exact divisibility and perfect-square test.  With canonical=True
    only one of each +-v pair is kept.
    """
    if c < 0:
        raise NegativeTarget(f"norm target {c} is negative")
    n = q.dim
    lf = q.scaled_ldl()
    dl, pivots, low = lf.dl, lf.pivots, lf.low
    p0 = pivots[0]
    sols: list[tuple[int, ...]] = []
    x = [0] * n

    def first(root: int) -> None:
        # Level 0 with P_0 Y_0^2 = rem already solved: Y_0 = +-root.
        shift = 0
        for i, l in low[0]:
            shift += l * x[i]
        for y in (root, -root) if root else (0,):
            v, r = divmod(y - shift, dl)
            if not r:
                x[0] = v
                sols.append(tuple(x))

    def rec(j: int, rem: int) -> None:
        shift = 0
        for i, l in low[j]:
            shift += l * x[i]
        p = pivots[j]
        root = isqrt(rem // p)
        lo, hi = -((root + shift) // dl), (root - shift) // dl + 1
        if j == 1:
            # Level 0 inline: what is left must be P_0 times a square.
            for v in range(lo, hi):
                y = dl * v + shift
                sq, r = divmod(rem - p * y * y, p0)
                if not r:
                    root = isqrt(sq)
                    if root * root == sq:
                        x[1] = v
                        first(root)
        else:
            for v in range(lo, hi):
                x[j] = v
                y = dl * v + shift
                rec(j - 1, rem - p * y * y)
        x[j] = 0

    budget = Fraction(c) * lf.scale
    # A non-integral scaled budget is never a value of sum_j P_j Y_j^2.
    if budget.denominator == 1:
        if n > 1:
            rec(n - 1, int(budget))
        else:
            sq, r = divmod(int(budget), p0)
            if not r and isqrt(sq) ** 2 == sq:
                first(isqrt(sq))
    result = NormSolutionSet(c, tuple(sorted(sols)), False)
    return result.canonical() if canonical else result


def two_squares_representable(n: int) -> bool:
    """True iff n = a^2 + b^2 has an integer solution.

    Fermat: representable iff every prime = 3 (mod 4) divides n to an even
    power.  Trial division; inputs are desk-scale.
    """
    if n < 0:
        raise NegativeTarget(f"{n} is negative")
    if n == 0:
        return True
    while n % 2 == 0:
        n //= 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if p % 4 == 3 and e % 2:
                return False
        p += 2
    return n % 4 != 3


def three_squares_representable(n: int) -> bool:
    """True iff n = a^2 + b^2 + c^2 has an integer solution.

    Legendre: representable iff n is not of the form 4^t (8k + 7).
    """
    if n < 0:
        raise NegativeTarget(f"{n} is negative")
    if n == 0:
        return True
    while n % 4 == 0:
        n //= 4
    return n % 8 != 7
