"""Exact integer solutions of positive definite norm equations.

The enumeration follows the Fincke-Pohst recursion (Math. Comp. 44, 1985)
on an exact rational LDL^T factorization: with y = L^T x the form reads
sum_j d_j y_j^2.  Each PosDefForm chooses the order of the levels from
the form and computes its LDL^T in that order once, by one fraction-free
elimination in integers, with the denominators of L and of the pivots
cleared (PosDefForm.ldl).  So the recursion carries only integers: the
budget, the scaled coordinates Y_j = dl * y_j and the scaled pivots P_j,
with coordinate ranges from `math.isqrt` (never floating point).  The two
innermost levels are solved as one binary problem d_1 y^2 + d_0 u^2 = rem
by scanning one coordinate and reading the other off what is left
(vectors_of_norm).
Also houses the classical two- and three-squares representability
predicates used as factorization obstructions.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm

from .errors import InvalidForm, NegativeTarget, NotPositiveDefinite
from .linalg import Mat, _cleared


ScaledLDL = namedtuple("ScaledLDL", "dl scale pivots low")


class PosDefForm:
    """Symmetric positive definite rational Gram matrix G with its LDL^T
    in level order.

    order is the level order of vectors_of_norm: coordinate order[j] is
    chosen at level j.  When coordinate 0 is orthogonal to the rest (the
    anchor coordinate of the L0 forms diag(N, G_K)), it stays at level 0
    and the smallest other diagonal entry moves to level 1, whose pivot it
    then is.  Otherwise the smallest diagonal entry moves to level 0.  The
    other coordinates keep their order; ties keep the first.

    ldl is the LDL^T of G in that order with its denominators cleared:
    with dl and dq the lcms of the denominators of L and of the pivots
    d_j, P_j = dq d_j and Y_j = dl x_(order[j]) + sum l x_i over the pairs
    (i, l) = (i, dl L_ij) in low[j], each i naming a coordinate, not its
    level, the identity scale * x^T G x = sum_j P_j Y_j^2 holds in
    integers, scale = dl^2 dq.

    Positivity is certified exactly: the pivots are the ratios of
    consecutive leading principal minors in that order, so requiring
    every pivot > 0 is Sylvester's criterion.  _ldl computes those minors
    by one fraction-free integer elimination.
    """

    def __init__(self, gram: Mat):
        if not gram.is_symmetric():
            raise InvalidForm("Gram matrix must be symmetric")
        self.gram = gram
        (c, rows), n = _cleared(gram.rows), gram.nrows
        kept = int(n > 1 and not any(rows[0][1:]))
        k = min(range(kept, n), key=lambda i: rows[i][i])
        self.order = order = (*range(kept), k, *(i for i in range(kept, n) if i != k))
        try:
            a = _ldl(c, [[rows[i][j] for j in order] for i in order])
        except NotPositiveDefinite:
            # By Sylvester's criterion the given order fails too, and its
            # error names the first failing pivot in that order.
            _ldl(c, rows)
            raise
        self.ldl = _scaled_ldl(c, a, order)

    @property
    def dim(self) -> int:
        return self.gram.nrows

    @cached_property
    def pivots(self) -> tuple[Fraction, ...]:
        """LDL^T pivots d_j = D_(j+1) / (c D_j) in the given order; all
        positive."""
        c, rows = _cleared(self.gram.rows)
        a = _ldl(c, rows)
        minors = [1, *(a[j][j] for j in range(len(a)))]
        return tuple(Fraction(minors[j + 1], c * minors[j]) for j in range(len(a)))


def _ldl(c: int, rows) -> list[list[int]]:
    """The lower triangle of the integer rows A = c G of a symmetric
    matrix G after fraction-free elimination (Bareiss, Math. Comp. 22,
    1968) without row swaps, or NotPositiveDefinite at the first pivot
    <= 0.

    The pivot a[j][j] is the leading principal minor D_(j+1) of A
    (D_0 = 1), and a[i][j] below it the minor m_ij that borders D_j, so
    each division is exact, and G = L diag(d) L^T for
    d_j = D_(j+1) / (c D_j) and L_ij = m_ij / D_(j+1).  A stays
    symmetric, so only its lower triangle is updated."""
    a = [list(row[: i + 1]) for i, row in enumerate(rows)]
    n, prev = len(a), 1
    for j in range(n):
        pivot = a[j][j]
        if pivot <= 0:
            raise NotPositiveDefinite(f"pivot {j} is {Fraction(pivot, c * prev)}")
        for i in range(j + 1, n):
            row, aij = a[i], a[i][j]
            for k in range(j + 1, i + 1):
                row[k] = (pivot * row[k] - aij * a[k][j]) // prev
        prev = pivot
    return a


def _scaled_ldl(c: int, a: list[list[int]], order) -> ScaledLDL:
    """PosDefForm.ldl from _ldl of c G with its rows and columns in
    order, in integers: the denominators of L_ij and d_j are
    D_(j+1) / gcd(m_ij, D_(j+1)) and c D_j / gcd(D_(j+1), c D_j), and
    row i of L names coordinate order[i]."""
    n, minors = len(a), [1, *(a[j][j] for j in range(len(a)))]
    dl = lcm(*(minors[j + 1] // gcd(a[i][j], minors[j + 1]) for i in range(n) for j in range(i)))
    dq = lcm(*(c * minors[j] // gcd(minors[j + 1], c * minors[j]) for j in range(n)))
    return ScaledLDL(
        dl,
        dl * dl * dq,
        tuple(dq * minors[j + 1] // (c * minors[j]) for j in range(n)),
        tuple(tuple((order[i], dl * a[i][j] // minors[j + 1]) for i in range(j + 1, n) if a[i][j]) for j in range(n)),
    )


def _root_test(p: int):
    """The test val -> Y >= 0 with val = p Y^2, or None."""

    def test(val: int) -> int | None:
        sq, r = divmod(val, p)
        return root if not r and (root := isqrt(sq)) * root == sq else None

    return test


def vectors_of_norm(q: PosDefForm, c: int) -> tuple[tuple[int, ...], ...]:
    """Complete set {v in Z^d : v^T Q v = c}, exact and deterministic, as
    a tuple of integer tuples in lexicographic order.

    Coordinates are chosen level by level, from the last level to the
    first, in PosDefForm.order, and written at their own
    positions.  The remaining budget R = rem * dl^2 * dq is an integer,
    and level j admits the scaled coordinates |Y_j| <= isqrt(R // P_j).

    The two innermost levels are one binary problem,
    P_1 Y_1^2 + P_0 Y_0^2 = R.  One of its coordinates is scanned, with
    the value left stepped by differences, and the other is read off that
    value: by a lookup in a dict of its scaled squares, or by divisibility
    and isqrt.  When level 0 has off-diagonal entries, Y_1 is scanned and
    Y_0 tested.  When it has none (the L0 forms diag(N, G_K) of the
    isometry search), so that Y_0 = dl x_0, the shorter scan is made:
    x_0 = u >= 0, about sqrt(rem / d_0) steps, or Y_1, about
    2 sqrt(rem / d_1) steps, counting a square test as 3/2 lookups; with
    both lookups that is the u scan when d_1 < 4 d_0.  Summed over the
    outer levels, whose points number about sqrt(d_0 d_1 / det Q) times a
    power of c, the Y_1 scan costs about 2 sqrt(d_0) and the u scan about
    sqrt(d_1); PosDefForm.order puts the smallest diagonal at level 1
    for the one and at level 0 for the other.  Each lookup holds the
    scaled squares of its coordinate up to the full budget (for Y_1 only
    the multiples of g = gcd(dl, level-1 factors l), as every Y_1 is
    one), and it is built only when it is at most four times the scan
    that uses it with every higher coordinate 0, which every call makes
    at the full budget, so it never outgrows the search.

    The shell is closed under v -> -v, so only half of it is searched:
    while every coordinate above level j is 0, x at level j is >= 0, and
    at level 0 in that state only its positive value is kept.  That
    finds the vectors whose last nonzero coordinate in level order is
    positive (and 0 when c = 0); their negations complete the shell,
    which is then sorted once.  Negation reverses the lexicographic
    order, so the sorted solutions satisfy v[L-1-j] = -v[j] for
    L = len(shell).
    """
    if c < 0:
        raise NegativeTarget(f"norm target {c} is negative")
    n = q.dim
    order, lf = q.order, q.ldl
    dl, pivots, low = lf.dl, lf.pivots, lf.low
    p0, at0 = pivots[0], order[0]
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
                x[at0] = v
                sols.append(tuple(x))

    def rec(j: int, rem: int, top: bool) -> None:
        # top: every coordinate above level j is 0, so x at level j is >= 0.
        shift = 0
        for i, l in low[j]:
            shift += l * x[i]
        p, at = pivots[j], order[j]
        if j == 1 and scan_u:
            # x_0 = u >= 0 with val = rem - unit u^2, and val - d at u + 1;
            # what is left must be P_1 Y_1^2, Y_1 = dl x_1 + shift.
            val, d = rem, unit
            for u in range(isqrt(rem // unit) + 1):
                root = test(val)
                if root is not None:
                    for y in (root, -root) if root else (0,):
                        v, r = divmod(y - shift, dl)
                        if not r and (v >= 0 or not top):
                            x[at], x[at0] = v, u
                            sols.append(tuple(x))
                            if u and (v or not top):
                                x[at0] = -u
                                sols.append(tuple(x))
                val -= d
                d += 2 * unit
            return
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
                    x[at] = v
                    first(root, (1,) if top and not v else (1, -1))
                val -= d
                d += step
        else:
            for v in range(lo, hi):
                x[at] = v
                y = dl * v + shift
                rec(j - 1, rem - p * y * y, top and not v)

    budget = Fraction(c) * lf.scale
    # A non-integral scaled budget is never a value of sum_j P_j Y_j^2.
    if budget.denominator == 1:
        budget, unit = int(budget), p0 * dl * dl
        if n > 1:
            p1 = pivots[1]
            # The u and Y_1 scans with every higher coordinate 0 (the Y_1
            # scan from 0; it covers both signs elsewhere).
            u_scan, y_scan = isqrt(budget // unit) + 1, isqrt(budget // p1) // dl + 1
            scan_u = u_fits = False
            if not low[0]:
                g = gcd(dl, *(l for _, l in low[1]))
                unit1 = p1 * g * g
                y_size = isqrt(budget // unit1) + 1
                # Whether each scan's lookup fits; a root test costs about
                # 3/2 lookups.
                u_fits, y_fits = u_scan <= 4 * y_scan, y_size <= 4 * u_scan
                scan_u = (2 if y_fits else 3) * u_scan < (4 if u_fits else 6) * y_scan
            if scan_u:
                test = {unit1 * k * k: g * k for k in range(y_size)}.get if y_fits else _root_test(p1)
            else:
                test = {unit * u * u: dl * u for u in range(u_scan)}.get if u_fits else _root_test(p0)
                step = 2 * p1 * dl * dl
            rec(n - 1, budget, True)
        elif (root := _root_test(p0)(budget)) is not None:
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
