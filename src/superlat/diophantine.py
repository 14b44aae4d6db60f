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
from math import gcd, isqrt, lcm

from .errors import InvalidForm, NegativeTarget, NotPositiveDefinite
from .linalg import Mat, _cleared


ScaledLDL = namedtuple("ScaledLDL", "dl scale pivots low")


class PosDefForm:
    """Symmetric positive definite rational Gram matrix G with its LDL^T
    in level order.  gram, as given, is a Mat or the tuple of integer
    rows of an integral G.

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

    shells maps each norm c that vectors_of_norm has enumerated on this
    form to the tuple it returned, so equal norms share one shell.  It
    lives and dies with the form.
    """

    def __init__(self, gram: Mat | tuple[tuple[int, ...], ...]):
        c, rows = _cleared(gram.rows) if isinstance(gram, Mat) else (1, gram)
        if rows != tuple(zip(*rows)):
            raise InvalidForm("Gram matrix must be symmetric")
        self.gram, n = gram, len(rows)
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
        self.shells: dict = {}

    @property
    def dim(self) -> int:
        return len(self.order)


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
    L = len(shell).  A norm enumerated before on q returns the tuple
    kept in q.shells.
    """
    if c < 0:
        raise NegativeTarget(f"norm target {c} is negative")
    if (shell := q.shells.get(c)) is not None:
        return shell
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

    budget = c * lf.scale
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
    shell = q.shells[c] = tuple(sols)
    return shell


# Odd primes below this are divided out first, by trial division.
_TRIAL_LIMIT = 1000


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


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a, out = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _hermite_serret(m: int) -> bool:
    """Whether Hermite-Serret finds m = a^2 + b^2, for odd m = 1 (mod 4)
    that is not a square.

    With c the least integer >= 2 of Jacobi symbol (c/m) = -1 and
    x = c^((m-1)/4) mod m, Euclid's algorithm on (m, x) is run down to
    the first remainder b with b^2 <= m, and m - b^2 must be a square.
    That check is exact, so True proves m a sum of two squares whether
    or not m is prime.  For a prime m, c is a non-residue, x^2 = -1
    (mod m) and the algorithm always succeeds, so False proves m
    composite; so does a c < m of symbol 0, met first, which shares a
    factor with m."""
    c = 2
    while (symbol := _jacobi(c, m)) == 1:
        c += 1
    if not symbol:
        return False
    x = pow(c, (m - 1) // 4, m)
    if x * x % m != m - 1:
        return False
    a, b = m, x
    while b * b > m:
        a, b = b, a % b
    rest = m - b * b
    return isqrt(rest) ** 2 == rest


def _coprime_base(pairs) -> list[tuple[int, int]]:
    """Pairwise coprime (g, k), every g > 1, with prod g^k = prod f^e over
    the given pairs (f, e): two parts sharing h = gcd(f, g) > 1 are
    replaced by h^(e+k), (f/h)^e and (g/h)^k until none does.  The
    product of the parts drops by h at each step, so this ends."""
    out, todo = [], list(pairs)
    while todo:
        f, e = todo.pop()
        if f == 1:
            continue
        for i, (g, k) in enumerate(out):
            if (h := gcd(f, g)) > 1:
                del out[i]
                todo += [(h, e + k), (f // h, e), (g // h, k)]
                break
        else:
            out.append((f, e))
    return out


def two_squares_representable(n: int) -> bool:
    """True iff n = a^2 + b^2 has an integer solution.

    Fermat: representable iff every prime = 3 (mod 4) divides n to an even
    power.  Only the parity of those exponents is needed, and most of it
    without factoring.  The odd primes below _TRIAL_LIMIT are divided out
    of the odd part of n.  What is left is kept as pairwise coprime parts
    f^e, each prime of n in exactly one part, and only a part with odd e
    that is not a square is examined:
      - f = 3 (mod 4) is no sum of two squares, so some prime = 3 (mod 4)
        divides f, and n, to an odd power: n is not representable;
      - f = 1 (mod 4) that _hermite_serret writes as a^2 + b^2 holds no
        prime = 3 (mod 4) to an odd power;
      - otherwise f is composite and Pollard-Brent splits it, and the two
        factors are refined to a coprime base (_coprime_base).
    A prime near 10^24 is decided by one modular power.  Pollard-Brent
    runs only on a part where Hermite-Serret fails, as it does on every
    part = 1 (mod 4) that is no sum of two squares; its work grows with
    the square root of the part's second-largest prime factor, so a
    product of two large primes = 3 (mod 4) still takes long.
    """
    if n < 0:
        raise NegativeTarget(f"{n} is negative")
    if n == 0:
        return True
    while n % 2 == 0:
        n //= 2
    p = 3
    while p < _TRIAL_LIMIT and p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if p % 4 == 3 and e % 2:
            return False
        p += 2
    parts = _coprime_base([(n, 1)])
    while parts:
        f, e = parts.pop()
        if e % 2 == 0 or isqrt(f) ** 2 == f:
            continue
        if f % 4 == 3:
            return False
        if not _hermite_serret(f):
            d = _pollard_brent(f)
            parts += [(g, k * e) for g, k in _coprime_base([(d, 1), (f // d, 1)])]
    return True


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
