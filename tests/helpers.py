"""Shared fixtures and seeded random generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import chain, permutations, product
from math import isqrt, prod
from operator import mul

from superlat.diophantine import PosDefForm, _ldl, _scaled_ldl, vectors_of_norm
from superlat.errors import NotPositiveDefinite
from superlat.forms import GramForm, adjoint, outer
from superlat.isometry import (
    Certificate,
    SearchResult,
    CandidateIsometry,
    IsometryProblem,
    SearchStats,
    _dot,
    filter_eq2,
    reconstruct,
    solve_eq1,
    solve_eq3_per_z0,
)
from superlat.linalg import Mat, Vec, _cleared

def watch_builds(monkeypatch, *kinds: str) -> list[str]:
    """The list to which each construction of the kinds named (of
    "Fraction", "Mat" and "GramForm") appends its kind's name, from now
    until monkeypatch.undo(); a Mat counts through Mat() and
    Mat._of_rows alike."""
    built: list[str] = []

    def watch(name, new):
        def record(*args, **kwargs):
            built.append(name)
            return new(*args, **kwargs)
        return record

    if "Fraction" in kinds:
        monkeypatch.setattr(Fraction, "__new__", staticmethod(watch("Fraction", Fraction.__new__)))
    if "Mat" in kinds:
        monkeypatch.setattr(Mat, "__init__", watch("Mat", Mat.__init__))
        monkeypatch.setattr(Mat, "_of_rows", classmethod(watch("Mat", Mat._of_rows.__func__)))
    if "GramForm" in kinds:
        monkeypatch.setattr(GramForm, "__init__", watch("GramForm", GramForm.__init__))
    return built


# Wilson's classic symmetric unimodular test matrix and one known integral
# factor F with F^T F = WILSON, det F = 1.
WILSON = Mat([
    [5, 7, 6, 5],
    [7, 10, 8, 7],
    [6, 8, 10, 9],
    [5, 7, 9, 10],
])
WILSON_FACTOR = Mat([
    [2, 3, 2, 2],
    [1, 1, 2, 1],
    [0, 0, 1, 2],
    [0, 0, 1, 1],
])

# A unimodular U.  The problem (U^T B U, U^T B' U, U^-1 w) with probes
# U^-1 z0 is (B, B', w, z0) in other coordinates: its L0 lattice, shells
# and pairing targets are isometric to those of (B, B', w, z0), so the
# search does the same work, and its solutions are U^-1 M U.
TWIST = Mat([
    [1, 1, 1, 1],
    [0, 1, 1, 0],
    [0, 0, 1, 1],
    [0, 0, 0, 1],
])


def twisted_inputs(target: Mat, w) -> tuple[Mat, Mat, Vec, list[Vec]]:
    """(U^T U, U^T B' U, U^-1 w, [U^-1 z0 for the default probes z0 of
    w]) for U = TWIST: the problem (I_4, B', w) in TWIST's coordinates.
    The only signed permutation that fixes U^T U and U^-1 e_1 or
    U^-1 (1,1,1,1) is the identity."""
    w = Vec(w)
    drop = max(range(4), key=lambda i: (abs(w[i]), -i))
    inverse = TWIST.inverse()
    probes = [inverse @ Vec.unit(4, i) for i in range(4) if i != drop]
    return TWIST.transpose() @ TWIST, TWIST.transpose() @ target @ TWIST, inverse @ w, probes


def twisted_problem(target: Mat, w) -> IsometryProblem:
    """The IsometryProblem of twisted_inputs(target, w)."""
    gram, bprime, anchor, probes = twisted_inputs(target, w)
    return IsometryProblem(GramForm(gram), GramForm(bprime), anchor, probes)


def twisted_problem_text(target: Mat, w) -> str:
    """The problem file of twisted_inputs(target, w)."""
    gram, bprime, anchor, probes = twisted_inputs(target, w)

    def rows(vectors) -> list[str]:
        return [" ".join(str(int(x)) for x in v) for v in vectors]

    lines = ["n 4", "B", *rows(gram.rows), "Bprime", *rows(bprime.rows), "w " + rows([anchor])[0], "z0", *rows(probes)]
    return "\n".join(lines) + "\n"


# A pair of even quaternary Gram matrices of determinant 24 that are
# rationally equivalent but admit no integral isometry.
EVEN24_B = Mat([
    [2, 1, 0, 0],
    [1, 2, 0, 0],
    [0, 0, 2, 0],
    [0, 0, 0, 4],
])
EVEN24_BPRIME = Mat([
    [2, 1, 1, 0],
    [1, 2, 0, 0],
    [1, 0, 2, 0],
    [0, 0, 0, 6],
])

# Eight known rational solutions M of EVEN24_BPRIME = M^T EVEN24_B M
# (denominators 2 and 4); none is integral.
_F = Fraction
EVEN24_RATIONAL_SOLUTIONS = tuple(
    Mat(rows)
    for rows in [
        [
            [_F(1, 2), _F(3, 4), _F(3, 4), _F(1, 2)],
            [-1, _F(-1, 2), _F(-1, 2), -1],
            [_F(-1, 2), _F(-1, 4), _F(-1, 4), _F(3, 2)],
            [0, _F(-1, 2), _F(1, 2), 0],
        ],
        [
            [_F(1, 2), _F(3, 4), _F(3, 4), _F(1, 2)],
            [-1, _F(-1, 2), _F(-1, 2), -1],
            [_F(-1, 2), _F(-1, 4), _F(-1, 4), _F(3, 2)],
            [0, _F(1, 2), _F(-1, 2), 0],
        ],
        [
            [_F(1, 2), _F(3, 4), _F(3, 4), _F(1, 2)],
            [-1, _F(-1, 2), _F(-1, 2), -1],
            [_F(1, 2), _F(1, 4), _F(1, 4), _F(-3, 2)],
            [0, _F(-1, 2), _F(1, 2), 0],
        ],
        [
            [_F(1, 2), _F(3, 4), _F(3, 4), _F(1, 2)],
            [-1, _F(-1, 2), _F(-1, 2), -1],
            [_F(1, 2), _F(1, 4), _F(1, 4), _F(-3, 2)],
            [0, _F(1, 2), _F(-1, 2), 0],
        ],
        [
            [_F(1, 2), 1, 0, 1],
            [0, 0, 0, -2],
            [_F(1, 2), 0, 1, 0],
            [_F(-1, 2), 0, 0, 0],
        ],
        [
            [_F(1, 2), 1, 0, 1],
            [0, 0, 0, -2],
            [_F(1, 2), 0, 1, 0],
            [_F(1, 2), 0, 0, 0],
        ],
        [
            [0, _F(1, 2), _F(1, 2), 1],
            [0, 0, 0, -2],
            [1, _F(1, 2), _F(1, 2), 0],
            [0, _F(-1, 2), _F(1, 2), 0],
        ],
        [
            [0, _F(1, 2), _F(1, 2), 1],
            [0, 0, 0, -2],
            [1, _F(1, 2), _F(1, 2), 0],
            [0, _F(1, 2), _F(-1, 2), 0],
        ],
    ]
)


def _sign_canonical(v) -> bool:
    """Whether the first nonzero entry of v is positive (True for zero):
    one of each pair {v, -v} of nonzero vectors."""
    for x in v:
        if x:
            return x > 0
    return True


def mat_from_cols(cols) -> Mat:
    """The matrix whose columns are the given vectors."""
    return Mat(zip(*cols))


def signed_permutations(n: int) -> list[Mat]:
    """All 2^n n! signed permutation matrices (the automorphisms of I_n)."""
    import itertools

    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            rows = [[0] * n for _ in range(n)]
            for i, (j, s) in enumerate(zip(perm, signs)):
                rows[i][j] = s
            out.append(Mat(rows))
    return out


def _naive_box_bounds(gram: Mat, c: int) -> list[int]:
    # |x_i| <= sqrt(c * (G^{-1})_ii) by Cauchy-Schwarz in the G-inner product.
    from math import isqrt

    inv = gram.inverse()
    bounds = []
    for i in range(gram.nrows):
        f = Fraction(c) * inv.rows[i][i]
        bounds.append(isqrt(f.numerator * f.denominator) // f.denominator)
    return bounds


def naive_box_volume(gram: Mat, c: int) -> int:
    """Number of lattice points the box oracle would scan; lets tests
    redraw forms whose oracle cost would be prohibitive."""
    vol = 1
    for b in _naive_box_bounds(gram, c):
        vol *= 2 * b + 1
    return vol


def naive_box_norm_solutions(gram: Mat, c: int) -> set[tuple[int, ...]]:
    """Independent oracle for vectors_of_norm: scan the Cauchy-Schwarz
    box and filter by evaluating x^T G x directly (integer arithmetic on
    a denominator-cleared copy, no shared code with the enumerator)."""
    import itertools
    from math import lcm

    n = gram.nrows
    scale = lcm(*(x.denominator for row in gram.rows for x in row))
    gi = [[int(x * scale) for x in row] for row in gram.rows]
    target = c * scale
    out = set()
    for tup in itertools.product(
        *(range(-b, b + 1) for b in _naive_box_bounds(gram, c))
    ):
        acc = 0
        for i in range(n):
            xi = tup[i]
            if xi:
                row = gi[i]
                acc += xi * sum(row[j] * tup[j] for j in range(n))
        if acc == target:
            out.add(tup)
    return out


def rand_int_vec(rng: random.Random, n: int, bound: int = 5) -> Vec:
    """Nonzero integer vector with entries in [-bound, bound]."""
    while True:
        v = [rng.randint(-bound, bound) for _ in range(n)]
        if any(v):
            return Vec(v)


def rand_rational_vec(rng: random.Random, n: int, bound: int = 5) -> Vec:
    """Nonzero rational vector with small numerators and denominators."""
    while True:
        v = [
            Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
            for _ in range(n)
        ]
        if any(v):
            return Vec(v)


def leibniz_det(rows):
    """Determinant of square rows as the permutation sum of
    sgn(sigma) * prod_i rows[i][sigma(i)]: a reference that does no
    elimination, for Mat.determinant and the Bareiss routine of linalg."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(row[j] for row, j in zip(rows, perm))
    return total


def rand_matrix(rng: random.Random, n: int, bound: int = 5) -> Mat:
    return Mat([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)])


def rand_invertible(rng: random.Random, n: int, bound: int = 5) -> Mat:
    """Random integer matrix with nonzero determinant."""
    while True:
        m = rand_matrix(rng, n, bound)
        if m.determinant() != 0:
            return m


def rand_rational_invertible(rng: random.Random, n: int, bound: int = 4) -> Mat:
    """Random rational matrix with nonzero determinant."""
    while True:
        m = Mat([
            [Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ])
        if m.determinant() != 0:
            return m


def rand_unimodular(rng: random.Random, n: int, steps: int = 12) -> Mat:
    """Random element of GL_n(Z) built from shears, swaps and sign flips."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if op == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif op == 1 and i != j:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return Mat(m)


def rand_pd_gram(rng: random.Random, n: int, bound: int = 3) -> Mat:
    """Random integral positive definite Gram matrix R^T R."""
    while True:
        r = rand_matrix(rng, n, bound)
        if r.determinant() != 0:
            return r.transpose() @ r


def rand_sym_nondegenerate(rng: random.Random, n: int, bound: int = 4) -> Mat:
    """Random integral symmetric matrix with nonzero determinant."""
    while True:
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-bound, bound)
        m = Mat(a)
        if m.determinant() != 0:
            return m


def rand_anchor(rng: random.Random, gram: Mat, bound: int = 3) -> Vec:
    """Random integer vector w with w^T gram w != 0."""
    n = gram.nrows
    while True:
        w = Vec([rng.randint(-bound, bound) for _ in range(n)])
        if not w.is_zero() and (gram @ w).dot(w) != 0:
            return w


def rand_rational_form(rng: random.Random, n: int, definite: bool) -> GramForm:
    """Random nondegenerate rational form P^T D P, P rational invertible and
    D diagonal with positive entries, or, unless definite, with both signs
    (so an indefinite form, for n >= 2)."""
    signs = [1] * n if definite else [-1] + [rng.choice([-1, 1]) for _ in range(n - 2)] + [1]
    d = Mat.diagonal([s * Fraction(rng.randint(1, 4), rng.randint(1, 3)) for s in signs])
    p = rand_rational_invertible(rng, n)
    return GramForm(p.transpose() @ d @ p)


def reference_is_even(ctx, phi: Mat) -> bool:
    """is_even on a nondegenerate form by pairings over the perp basis:
    B(u, phi w) = B(w, phi u) = 0 for every u of ctx.perp_basis."""
    b, w = ctx.form, ctx.w
    phw = phi @ w
    return all(b.evaluate(u, phw) == 0 and b.evaluate(w, phi @ u) == 0 for u in ctx.perp_basis)


def reference_is_odd(ctx, phi: Mat) -> bool:
    """is_odd on a nondegenerate form by pairings: B(w, phi w) = 0 and
    B(u, phi v) = 0 for every pair u, v of ctx.perp_basis."""
    b, w = ctx.form, ctx.w
    if b.evaluate(w, phi @ w) != 0:
        return False
    images = [phi @ v for v in ctx.perp_basis]
    return all(b.evaluate(u, img) == 0 for u in ctx.perp_basis for img in images)


def reference_odd_vectors(ctx, phi: Mat) -> tuple[Vec, Vec]:
    """The (a, b) perp to w with odd part outer(w,a) + outer(b,w) on a
    nondegenerate form: b the perp component of phi(w)/B(w,w), a that of
    adjoint(phi)(w)/B(w,w)."""
    b_form, w, n = ctx.form, ctx.w, ctx.wnorm
    phw = phi @ w
    bvec = (1 / n) * (phw - (b_form.evaluate(w, phw) / n) * w)
    dgw = adjoint(b_form, phi) @ w
    avec = (1 / n) * (dgw - (b_form.evaluate(w, dgw) / n) * w)
    return avec, bvec


def reference_split(ctx, phi: Mat) -> tuple[Mat, Mat]:
    """(even, odd) with odd = outer(w,a) + outer(b,w) from reference_odd_vectors."""
    avec, bvec = reference_odd_vectors(ctx, phi)
    odd = outer(ctx.form, ctx.w, avec) + outer(ctx.form, bvec, ctx.w)
    return phi - odd, odd


def rand_pullback_problem(
    rng: random.Random,
    sizes: tuple[int, ...] = (2, 3, 4),
    entry_cap: int = 12,
    gram_bound: int = 2,
    steps: int = 6,
    max_wnorm: int = 2,
):
    """Random (source gram, target gram, anchor, phi) with the target the
    pullback of a positive definite source along a unimodular phi,
    resampled until all entries stay desk-scale.

    The anchor is a standard basis vector of small norm: search cost
    scales steeply with B(w,w), so tests follow the same small-anchor
    heuristic the search documentation recommends.
    """
    from superlat.forms import GramForm, pullback

    while True:
        n = rng.choice(sizes)
        gram = rand_pd_gram(rng, n, gram_bound)
        phi = rand_unimodular(rng, n, steps=steps)
        target = pullback(GramForm(gram), phi).gram
        entries = [abs(int(x)) for row in (gram.rows + target.rows) for x in row]
        if max(entries) > entry_cap:
            continue
        norms = [int(gram.rows[i][i]) for i in range(n)]
        best = min(norms)
        if best > max_wnorm:
            continue
        w = Vec.unit(n, rng.choice([i for i, v in enumerate(norms) if v == best]))
        return gram, target, w, phi


@lru_cache(maxsize=None)
def _gram_times(gram, coords):
    """G_K c for the kernel Gram rows gram and the kernel coordinates of c."""
    return tuple(sum(map(mul, row, coords)) for row in gram)


def reference_filter_eq2(problem, e1, per_probe):
    """The eq2 filter as one dot product per (eq1, eq3) pair of L0 rows,
    N s t + x . (G_K y) == e2 for e1 = (s, x) and an eq3 row (t, y): the
    scan that isometry.filter_eq2 replaced, kept as its reference."""
    ns, xb, gram = problem.wnorm * e1[0], e1[1:], problem.kernel_gram
    return [
        [c for c in cands if sum(map(mul, xb, _gram_times(gram, c[1:]))) + ns * c[0] == e2]
        for e2, cands in zip(problem.eq2_targets, per_probe)
    ]


def trial_division_two_squares(n: int) -> bool:
    """Whether n >= 0 is a sum of two squares, by Fermat's criterion on a
    factorization by trial division up to sqrt(n): the test that
    diophantine.two_squares_representable replaced, kept as its
    reference."""
    if n == 0:
        return True
    while n % 2 == 0:
        n //= 2
    p = 3
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if p % 4 == 3 and e % 2:
            return False
        p += 2
    return n % 4 != 3


def reference_vectors_of_norm(q: PosDefForm, c) -> tuple[tuple[int, ...], ...]:
    """The sorted shell {v : v^T Q v = c} with the level-1 loop that
    diophantine.vectors_of_norm replaced, kept as its reference: one
    product rem - P_1 Y_1^2 per step and a divisibility and perfect-square
    test on it, for every form, in the given order of the levels: its
    LDL^T is its own, not PosDefForm.ldl.  q.gram is read as given, a Mat
    or the integer rows of an integral form."""
    n = q.dim
    den, rows = _cleared(q.gram.rows) if isinstance(q.gram, Mat) else (1, q.gram)
    lf = _scaled_ldl(den, _ldl(den, rows), range(n))
    dl, pivots, low = lf.dl, lf.pivots, lf.low
    p0 = pivots[0]
    sols: list[tuple[int, ...]] = []
    x = [0] * n

    def first(root: int, signs) -> None:
        shift = sum(l * x[i] for i, l in low[0])
        for sign in signs if root else (1,):
            v, r = divmod(sign * root - shift, dl)
            if not r:
                x[0] = v
                sols.append(tuple(x))

    def rec(j: int, rem: int, top: bool) -> None:
        shift = sum(l * x[i] for i, l in low[j])
        p = pivots[j]
        root = isqrt(rem // p)
        lo, hi = -((root + shift) // dl), (root - shift) // dl + 1
        if top:
            lo = 0
        if j == 1:
            for v in range(lo, hi):
                y = dl * v + shift
                sq, r = divmod(rem - p * y * y, p0)
                if not r:
                    root = isqrt(sq)
                    if root * root == sq:
                        x[1] = v
                        first(root, (1,) if top and not v else (1, -1))
        else:
            for v in range(lo, hi):
                x[j] = v
                y = dl * v + shift
                rec(j - 1, rem - p * y * y, top and not v)
        x[j] = 0

    budget = Fraction(c) * lf.scale
    if budget.denominator == 1:
        if n > 1:
            rec(n - 1, int(budget), True)
        else:
            sq, r = divmod(int(budget), p0)
            if not r and isqrt(sq) ** 2 == sq:
                first(isqrt(sq), (1,))
    sols += [tuple(-a for a in v) for v in sols if any(v)]
    return tuple(sorted(sols))


def reference_ldl(gram: Mat) -> tuple[tuple[Fraction, ...], tuple[tuple[Fraction, ...], ...]]:
    """The Fraction elimination that diophantine._ldl replaced, kept as
    its reference: (pivots, unit lower triangle) of gram = L diag(d) L^T,
    or NotPositiveDefinite at the first pivot <= 0."""
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


def reference_brute_force_isometries(source, target, bound=None) -> list[Mat]:
    """The column search that isometry.brute_force_isometries replaced,
    kept as its reference: at every node each candidate column is tested
    against every placed column, and each matrix is built with Mat()."""
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
    chosen: list[tuple[int, ...]] = []
    gchosen: list[tuple[int, ...]] = []

    def rec(j: int):
        if j == n:
            out.append(Mat(zip(*chosen)))
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


def cartesian_brute_force_isometries(source, target, bound=None) -> list[Mat]:
    """The Cartesian search that brute_force_isometries once offered as
    its second mode, kept as a second reference: every product of the
    column shells whose pairings under B are B'."""
    q, n = PosDefForm(source.gram), source.dim
    b_rows = tuple(tuple(int(x) for x in row) for row in source.gram.rows)
    bp = tuple(tuple(int(x) for x in row) for row in target.gram.rows)
    col_sets = [list(vectors_of_norm(q, bp[j][j])) for j in range(n)]
    if bound is not None:
        col_sets = [[v for v in cs if max(map(abs, v)) <= bound] for cs in col_sets]
    images = {v: tuple(_dot(row, v) for row in b_rows) for cs in col_sets for v in cs}
    products = product(*col_sets)
    return [Mat(zip(*cols)) for cols in products if tuple(tuple(_dot(u, images[v]) for v in cols) for u in cols) == bp]


def rank(m: Mat) -> int:
    """The rank of m, by exact Gaussian elimination."""
    a = [list(r) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    rk = 0
    for c in range(nc):
        piv = next((r for r in range(rk, nr) if a[r][c] != 0), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        inv = 1 / a[rk][c]
        for r in range(rk + 1, nr):
            if a[r][c] != 0:
                f = a[r][c] * inv
                for k in range(c, nc):
                    a[r][k] -= f * a[rk][k]
        rk += 1
        if rk == nr:
            break
    return rk


def form_norm(q: PosDefForm, v) -> Fraction:
    """v^T Q v for an int or Fraction sequence v."""
    v = Vec(v)
    return v.dot(q.gram @ v)


def reference_solve_eq1(problem):
    """eq1 as one norm equation in K per value of s: the loop that
    isometry.solve_eq1 replaced with one norm shell of L0 = Zw + K, kept
    as its reference.  It gives the L0 rows (s, kernel coordinates)."""
    qk = PosDefForm(Mat(problem.kernel_gram))
    n, e1 = problem.wnorm, problem.eq1_target
    if e1 < 0:
        return ()
    smax = isqrt(e1 // n)
    return tuple(
        (s, *coords)
        for s in range(-smax, smax + 1)
        for coords in vectors_of_norm(qk, e1 - n * s * s)
    )


def reference_solve_eq3(problem, z0):
    """eq3 for the probe z0 as one norm equation in K per value of t: the
    loop that isometry.solve_eq3_per_z0 replaced with one norm shell of
    L0 = Zw + K, kept as its reference.  It gives the L0 rows (t, kernel
    coordinates)."""
    qk = PosDefForm(Mat(problem.kernel_gram))
    n = problem.wnorm
    zhat = n * z0 - problem.source.evaluate(z0, problem.w) * problem.w
    r = n * n * int(problem.target.norm(zhat))
    if r < 0:
        return ()
    tmax = isqrt(r // n)
    return tuple(
        (t, *coords)
        for t in range(-tmax, tmax + 1)
        for coords in vectors_of_norm(qk, r - n * t * t)
    )


@lru_cache(maxsize=16)
def _reference_recon_tables(problem):
    """reconstruct's tables as they were built before the packed map:
    (betas, columns of adj = db P^-1, db, den = N^2 db, dp, rows of
    pair = dp (P^T B)^-1) from two cleared Mat inverses."""
    basis = mat_from_cols([problem.w] + problem.probes)
    db, adj = _cleared(basis.inverse().rows)
    dp, pair = _cleared((basis.transpose() @ problem.source.gram).inverse().rows)
    w = problem.w.to_ints()
    betas = tuple(sum(map(mul, z0.to_ints(), _gram_times(problem._gram, w))) for z0 in problem.probes)
    return betas, tuple(zip(*adj)), db, problem.wnorm**2 * db, dp, pair


def _ambient(problem, row):
    """E row = u w + k for an L0 row (u, kernel coordinates of k)."""
    return tuple(sum(map(mul, row, e)) for e in problem._l0_basis)


def reference_reconstruct(problem, e1, picks):
    """isometry.reconstruct as it was before its packed integer map: map
    each row to its ambient vector through E = (w | kernel basis), form the
    columns of C, multiply by adj, test dual membership as db | adj^T (0, t)
    and check num^T B num = den^2 B'; the provenance is the flat tuple
    (s, btilde, dp atilde, c_i)."""
    betas, adj_cols, db, den, dp, pair = _reference_recon_tables(problem)
    ts = [0] + [pick[0] for pick in picks]
    if db != 1:
        for col in adj_cols:
            if sum(map(mul, col, ts)) % db:
                return None
    sb = _ambient(problem, e1)
    picked = [_ambient(problem, pick) for pick in picks]
    ccols = [[problem.wnorm * x for x in sb]]
    ccols += [[c + beta * y for c, y in zip(tc, sb)] for beta, tc in zip(betas, picked)]
    num = [[sum(map(mul, row, col)) for col in adj_cols] for row in zip(*ccols)]
    if not problem.pulls_back(num, den):
        return None
    w = problem._w
    atilde = tuple(sum(map(mul, row, ts)) for row in pair)
    btilde = [x - e1[0] * a for x, a in zip(sb, w)]
    cs = [x - t * a for t, tc in zip(ts[1:], picked) for x, a in zip(tc, w)]
    return CandidateIsometry(num, den, (e1[0], *btilde, *atilde, *cs), dp)


def reference_assemble(problem, filtered):
    """Yield per-probe combinations of eq3 rows consistent across probe
    pairs: the L0 pairing row_i . diag(N, G_K) row_j, which is
    B(c_i, c_j) + N t_i t_j, equals N^2 B'(zhat_i, zhat_j).  A depth-first
    search in list order that checks each row against the rows chosen
    before it: the assembly that the forward-checking joint search of
    isometry.find_isometries replaced, kept as its reference."""
    gram = problem._l0_gram
    e3 = [row[1:] for row in problem.pair_targets[1:]]
    k = len(filtered)
    chosen = [None] * k
    products = [None] * k

    def rec(i):
        if i == k:
            yield tuple(chosen)
            return
        targets = e3[i]
        for cand in filtered[i]:
            if all(_dot(cand, products[j]) == targets[j] for j in range(i)):
                chosen[i] = cand
                products[i] = [_dot(row, cand) for row in gram]
                yield from rec(i + 1)
        chosen[i] = None

    yield from rec(0)


def reference_joint_tuples(problem):
    """Every joint tuple (e1, pick_1, ...) of the problem, in the order of
    the eq1-first loop: filter_eq2 and reference_assemble for each eq1
    row, both members of each +-pair included."""
    per_probe = [solve_eq3_per_z0(problem, z0) for z0 in problem.probes]
    return [
        (e1, *picks)
        for e1 in solve_eq1(problem)
        for picks in reference_assemble(problem, filter_eq2(problem, e1, per_probe))
    ]


def reference_find_isometries(problem, all_solutions=True):
    """find_isometries with one pass of filter_eq2, assembly and
    reconstruct per eq1 solution, both members of each +-pair included:
    the loop that the +-halving of isometry.find_isometries replaced,
    kept as its reference (integral_only is left out: it only filters
    the returned list)."""
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
    eq1_canonical = sum(map(_sign_canonical, e1s))
    if not e1s:
        cert = Certificate(
            "ObstructionEq1",
            detail={
                "norm": problem.wnorm,
                "target": problem.eq1_target,
                "kernel_gram": [list(row) for row in problem.kernel_gram],
            },
        )
        return SearchResult([], cert, SearchStats())
    per_probe = [solve_eq3_per_z0(problem, z0) for z0 in problem.probes]

    candidates = []
    joint_raw = joint_canonical = 0
    for e1 in e1s:
        has_integral = False
        for picks in reference_assemble(problem, filter_eq2(problem, e1, per_probe)):
            joint_raw += 1
            if _sign_canonical(chain(e1, *picks)):
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
        cert = Certificate(
            "IsometricWitness",
            witness=integral[0],
            detail={"integral_count": len(integral)},
        )
        if not all_solutions:
            candidates = [integral[0]]
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
        eq1_canonical=eq1_canonical,
        eq3_per_probe=tuple(len(c) for c in per_probe),
        joint_raw=joint_raw,
        joint_canonical=joint_canonical,
        candidates=len(candidates),
        integral=len(integral),
    )
    return SearchResult(candidates, cert, stats)
