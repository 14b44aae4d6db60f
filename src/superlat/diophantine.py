"""Exact integer solutions of positive definite norm equations.

The enumeration follows the Fincke-Pohst recursion on an exact rational
LDL^T factorization, computed by fraction-free elimination in integers:
with y = L^T x the form reads sum_j d_j y_j^2.  The
denominators of L and of the pivots are cleared once per form, so the
recursion carries only integers: the budget, the scaled coordinates
Y_j = dl * y_j and the scaled pivots P_j, with coordinate ranges from
`math.isqrt` (never floating point).  Also houses the classical two- and
three-squares representability predicates used as factorization
obstructions.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt

from .errors import InvalidForm, NegativeTarget, NotPositiveDefinite
from .linalg import Mat, _cleared


ScaledLDL = namedtuple("ScaledLDL", "dl scale pivots low")


class PosDefForm:
    """Symmetric positive definite rational Gram matrix with cached LDL^T.

    Positivity is certified exactly: the factorization pivots d_j are the
    ratios of consecutive leading principal minors, so requiring every
    pivot > 0 is Sylvester's criterion.  _ldl computes those minors by
    fraction-free integer elimination; Fractions appear only in the
    pivots and L it returns.
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

    def scaled_ldl(self) -> "ScaledLDL":
        """The LDL^T factorization with its denominators cleared, cached.

        With dl and dq the lcms of the denominators of L and of the
        pivots d_j, P_j = dq d_j and Y_j = dl x_j + sum l x_i over the
        pairs (i, l) = (i, dl L_ij) in low[j], the identity
        scale * x^T G x = sum_j P_j Y_j^2 holds in integers, scale = dl^2 dq.
        """
        if self._scaled is None:
            (dl, low), (dq, (pivots,)) = _cleared(self._lower), _cleared([self._diag])
            self._scaled = ScaledLDL(
                dl,
                dl * dl * dq,
                pivots,
                tuple(tuple((i, row[j]) for i, row in enumerate(low) if i > j and row[j]) for j in range(self.dim)),
            )
        return self._scaled


def _ldl(gram: Mat) -> tuple[tuple[Fraction, ...], tuple[tuple[Fraction, ...], ...]]:
    """(pivots d, unit lower triangle L) with gram = L diag(d) L^T, or
    NotPositiveDefinite at the first pivot <= 0.

    The elimination runs in integers, fraction-free (Bareiss, Math. Comp.
    22, 1968) on A = c gram, c the lcm of its denominators (_cleared),
    without row swaps: the pivot entry at step j is the leading principal
    minor D_(j+1) of A (D_0 = 1), and every entry below it the minor m_ij
    that borders D_j, so each division is exact.  Then
    d_j = D_(j+1) / (c D_j) and L_ij = m_ij / D_(j+1).  A stays symmetric,
    so only its lower triangle is updated."""
    c, rows = _cleared(gram.rows)
    a = [list(row[: i + 1]) for i, row in enumerate(rows)]
    n, prev = len(a), 1
    d: list[Fraction] = []
    low = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        pivot = a[j][j]
        d.append(Fraction(pivot, c * prev))
        if pivot <= 0:
            raise NotPositiveDefinite(f"pivot {j} is {d[j]}")
        low[j][j] = Fraction(1)
        for i in range(j + 1, n):
            row, aij = a[i], a[i][j]
            low[i][j] = Fraction(aij, pivot)
            for k in range(j + 1, i + 1):
                row[k] = (pivot * row[k] - aij * a[k][j]) // prev
        prev = pivot
    return tuple(d), tuple(tuple(r) for r in low)


def _sign_canonical(v: tuple[int, ...]) -> bool:
    for x in v:
        if x:
            return x > 0
    return True


def vectors_of_norm(q: PosDefForm, c: int) -> tuple[tuple[int, ...], ...]:
    """Complete set {v in Z^d : v^T Q v = c}, exact and deterministic, as
    a tuple of integer tuples in lexicographic order.

    Coordinates are chosen from the last to the first.  The remaining
    budget R = rem * dl^2 * dq is an integer, and level j admits the
    scaled coordinates |Y_j| <= isqrt(R // P_j).  Level 1 steps what it
    leaves, val = R - P_1 Y_1^2, by differences as Y_1 advances by dl,
    and level 0 tests val = P_0 Y_0^2: by divisibility and isqrt, or,
    when level 0 has no off-diagonal entries (the L0 forms diag(N, G_K)
    of the isometry search), so that Y_0 = dl x_0, by one lookup in the
    dict {P_0 (dl u)^2: dl u} of the about sqrt(c / Q_00) u in budget,
    if that dict is at most four times the first level-1 scan.

    The shell is closed under v -> -v, so only half of it is searched:
    while every coordinate above level j is 0, x_j >= 0, and at level 0
    in that state only Y_0 = +root is kept.  That finds the vectors whose
    last nonzero coordinate is positive (and 0 when c = 0); their
    negations complete the shell, which is then sorted once.  Negation
    reverses the lexicographic order, so the sorted solutions satisfy
    v[L-1-j] = -v[j] for L = len(shell).
    """
    if c < 0:
        raise NegativeTarget(f"norm target {c} is negative")
    n = q.dim
    lf = q.scaled_ldl()
    dl, pivots, low = lf.dl, lf.pivots, lf.low
    p0 = pivots[0]
    sols: list[tuple[int, ...]] = []
    x = [0] * n

    def first(root: int, signs) -> None:
        # Level 0 with P_0 Y_0^2 = rem already solved: Y_0 = sign * root.
        shift = 0
        for i, l in low[0]:
            shift += l * x[i]
        for sign in signs if root else (1,):
            v, r = divmod(sign * root - shift, dl)
            if not r:
                x[0] = v
                sols.append(tuple(x))

    def square_root(val: int) -> int | None:
        # The root Y_0 >= 0 of val = P_0 Y_0^2, or None.
        sq, r = divmod(val, p0)
        return root if not r and (root := isqrt(sq)) * root == sq else None

    def rec(j: int, rem: int, top: bool) -> None:
        # top: every coordinate above level j is 0, so x_j >= 0.
        shift = 0
        for i, l in low[j]:
            shift += l * x[i]
        p = pivots[j]
        root = isqrt(rem // p)
        lo, hi = -((root + shift) // dl), (root - shift) // dl + 1
        if top:
            lo = 0
        if j == 1:
            # Level 0 inline: what is left must be P_0 times a square.
            # val = rem - p y^2 at y = dl v + shift, and val - d at v + 1.
            y = dl * lo + shift
            val, d = rem - p * y * y, p * dl * (2 * y + dl)
            for v in range(lo, hi):
                root = test(val)
                if root is not None:
                    x[1] = v
                    first(root, (1,) if top and not v else (1, -1))
                val -= d
                d += step
        else:
            for v in range(lo, hi):
                x[j] = v
                y = dl * v + shift
                rec(j - 1, rem - p * y * y, top and not v)
        x[j] = 0

    budget = Fraction(c) * lf.scale
    # A non-integral scaled budget is never a value of sum_j P_j Y_j^2.
    if budget.denominator == 1:
        budget, unit = int(budget), p0 * dl * dl
        if n > 1:
            # The lookup is built only when it is at most four times the
            # level-1 scan with every higher coordinate 0, which every call
            # makes at the full budget, so it never outgrows the search.
            size, scan = isqrt(budget // unit) + 1, isqrt(budget // pivots[1]) // dl + 1
            test = square_root if low[0] or size > 4 * scan else {unit * u * u: dl * u for u in range(size)}.get
            step = 2 * pivots[1] * dl * dl
            rec(n - 1, budget, True)
        elif (root := square_root(budget)) is not None:
            first(root, (1,))
    sols += [tuple([-a for a in v]) for v in sols if any(v)]
    sols.sort()
    return tuple(sols)


# Sorenson and Webster (2015): every odd composite below _MR_BOUND fails
# the strong probable-prime test to at least one of the first 13 prime
# bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981
# Odd primes below this are divided out first, so the cofactor left to
# the tests below exceeds every base.
_TRIAL_LIMIT = 1000


def _strong_probable_prime(n: int) -> bool:
    """Whether odd n > 41 passes the Miller-Rabin test to every base of
    _MR_BASES.  False proves n composite; True proves n prime when
    n < _MR_BOUND."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A factor 1 < d < n of an odd composite n: Pollard's rho with
    Brent's cycle detection (Brent 1980), products of 128 differences per
    gcd, and a new constant c whenever a cycle closes without one."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # The batch overshot: step again from its start, one gcd each.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError("no factor of a composite")


def _smallest_factor(n: int, start: int) -> int:
    """The smallest factor p >= start of odd n > 1, for start odd and no
    factor of n below it: trial division, exact at any size."""
    p = start
    while p * p <= n:
        if n % p == 0:
            return p
        p += 2
    return n


def _odd_prime_exponents(n: int) -> dict[int, int]:
    """The exponent of each prime factor of odd n >= 1.

    Primes below _TRIAL_LIMIT are divided out by trial division.  A
    cofactor left that is a square r^2 is split as r, r.  Any other is
    proved prime by the strong test when below _MR_BOUND, or proved
    composite when it fails the test, and then split by Pollard-Brent.
    A cofactor at or above _MR_BOUND that passes the test is not proved
    prime by it, so it is split by trial division, which is exact but
    takes sqrt(cofactor) steps for a prime.
    """
    out: dict[int, int] = {}
    p = 3
    while p < _TRIAL_LIMIT and p * p <= n:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
        p += 2
    if n < _TRIAL_LIMIT * _TRIAL_LIMIT:
        # Every factor below _TRIAL_LIMIT is gone, so n is 1 or a prime.
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        r = isqrt(m)
        if r * r == m:
            stack += [r, r]
            continue
        if not _strong_probable_prime(m):
            d = _pollard_brent(m)
        elif m < _MR_BOUND:
            d = m
        else:
            d = _smallest_factor(m, _TRIAL_LIMIT + 1)
        if d == m:
            out[m] = out.get(m, 0) + 1
        else:
            stack += [f for f in (d, m // d) if f > 1]
    return out


def two_squares_representable(n: int) -> bool:
    """True iff n = a^2 + b^2 has an integer solution.

    Fermat: representable iff every prime = 3 (mod 4) divides n to an even
    power.  The odd part of n is factored by _odd_prime_exponents: trial
    division by small primes, then the deterministic Miller-Rabin test and
    Pollard-Brent rho, so a prime near 10^24 is decided in milliseconds.
    Rho's work grows with the square root of the second-largest prime
    factor, so a product of two large primes still takes long.
    """
    if n < 0:
        raise NegativeTarget(f"{n} is negative")
    if n == 0:
        return True
    while n % 2 == 0:
        n //= 2
    return all(p % 4 != 3 or e % 2 == 0 for p, e in _odd_prime_exponents(n).items())


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
