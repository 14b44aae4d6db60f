"""The exact check num^T B num = den^2 B' runs on packed integers
(isometry._Pullback, behind IsometryProblem.pulls_back); it must agree
with plain dot products on every input, including entries at the slot
boundaries, one-unit perturbations, targets forged to cancel between
neighbouring slots, and rows of the wrong shape.  One check is kept per
problem, with each distinct row packed once, so it must also answer a
sequence of numerators of growing and shrinking size, and verify must
still see a shared row changed in one candidate only.  A candidate list is
checked at one width on its rows as read, scaled per row, so rational
lists with mixed row denominators must get the answers of Fraction
products."""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

from superlat.cli import main
from superlat.forms import GramForm
from superlat.isometry import IsometryProblem, _Pullback, isometry_denominators
from superlat.linalg import Mat, Vec
from superlat.problem_io import verify_document

WILSON_FILE = str(Path(__file__).resolve().parent.parent / "problems" / "wilson.txt")

SEED = 20240613
CASES = 500
# Entries are drawn near 0 or near +-scale.
SCALES = (0, 1, 2**31, 2**63, 2**100)


def reference(gram, target, num, den) -> bool:
    """num^T B num == den^2 B' by dot products, after a shape check."""
    n = len(gram)
    if len(num) != n or any(len(row) != n for row in num):
        return False
    return all(
        sum(num[a][i] * gram[a][b] * num[b][j] for a in range(n) for b in range(n)) == den * den * target[i][j]
        for i in range(n)
        for j in range(n)
    )


def _entry(rng: random.Random, scale: int) -> int:
    return rng.choice((-1, 1)) * scale + rng.randint(-3, 3)


def _matrix(rng: random.Random, n: int, scale: int, symmetric: bool) -> list[list[int]]:
    m = [[_entry(rng, scale) for _ in range(n)] for _ in range(n)]
    if symmetric:
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return m


def _product(gram, num) -> list[list[int]]:
    n = len(gram)
    return [[sum(num[a][i] * gram[a][b] * num[b][j] for a in range(n) for b in range(n)) for j in range(n)] for i in range(n)]


def _cases():
    """(B, B', num, den) with num^T B num = den^2 B': num is den times a
    random matrix M and B' = M^T B M."""
    rng = random.Random(SEED)
    for k in range(CASES):
        n = 1 + k % 5
        gram = _matrix(rng, n, rng.choice(SCALES[:3]), symmetric=k % 2 == 0)
        m = _matrix(rng, n, rng.choice(SCALES), symmetric=False)
        den = rng.choice((1, 1, 2, 3, 2**31 + 1, 2**64))
        yield gram, _product(gram, m), [[den * x for x in row] for row in m], den


def test_true_cases_and_unit_perturbations():
    rng = random.Random(SEED + 1)
    perturbed = 0
    for gram, target, num, den in _cases():
        assert _Pullback(gram, target)(num, den) is True
        n = len(gram)
        for i in range(n):
            for j in range(n):
                for which in ("target", "gram"):
                    t = [row[:] for row in target]
                    g = [row[:] for row in gram]
                    (t if which == "target" else g)[i][j] += rng.choice((-1, 1))
                    assert _Pullback(g, t)(num, den) == reference(g, t, num, den)
                    perturbed += 1
        # A perturbed numerator, checked against the same target.
        bad = [row[:] for row in num]
        bad[rng.randrange(n)][rng.randrange(n)] += 1
        assert _Pullback(gram, target)(bad, den) == reference(gram, target, bad, den)
    assert perturbed > 10 * CASES


def test_targets_forged_to_cancel_across_slots():
    # Lowering B'[i][j] by 2^k and raising B'[i][j+1] by 1 leaves row i
    # of den^2 B' packed in k-bit slots unchanged, so a check whose slots
    # are narrower than its bounds require accepts the forgery at some k.
    for case, (gram, target, num, den) in enumerate(_cases()):
        n = len(gram)
        if n < 2 or case % 3:
            continue
        i, j = divmod(case % (n * (n - 1)), n - 1)
        top = (max(map(abs, sum(num, []))) ** 2 * sum(map(abs, sum(gram, []))) + 1).bit_length()
        for k in range(8, top + 24):
            if k % 8 not in (0, 7):
                continue
            forged = [row[:] for row in target]
            forged[i][j] -= 1 << k
            forged[i][j + 1] += 1
            assert not _Pullback(gram, forged)(num, den)
            assert not reference(gram, forged, num, den)


def test_shapes():
    gram = [[2, 1, 0], [1, 2, 0], [0, 0, 1]]
    num = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    check = _Pullback(gram, gram)
    assert check(num, 1)
    shapes = [
        num[:2],
        num + [[0, 0, 0]],
        [num[0], num[1][:2], num[2]],
        [num[0], num[1] + [0], num[2]],
        [[1, 0], [0, 1]],
        [],
        [[]],
    ]
    for rows in shapes:
        assert not reference(gram, gram, rows, 1)
        assert check(rows, 1) is False


def test_problem_pulls_back_matches_reference():
    # Through IsometryProblem: positive definite B, B' = M^T B M for an
    # invertible M, and num = den M with one entry moved or not.
    rng = random.Random(SEED + 2)
    checked = 0
    while checked < 50:
        n = 1 + checked % 5
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        gram = [[sum(a[k][i] * a[k][j] for k in range(n)) + (i == j) for j in range(n)] for i in range(n)]
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if Mat(m).determinant() == 0:
            continue
        target = _product(gram, m)
        problem = IsometryProblem(GramForm(Mat(gram)), GramForm(Mat(target)), Vec.unit(n, 0))
        den = rng.choice((1, 2, 5))
        num = [[den * x for x in row] for row in m]
        assert problem.pulls_back(num, den)
        num[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
        assert problem.pulls_back(num, den) == reference(gram, target, num, den)
        checked += 1


def _reused_sequence(rng: random.Random, m: list[list[int]]):
    """(num, den) for one (B, B' = M^T B M): den M and -den M, then the
    same with one entry moved by +-1, for small dens, then dens near
    2^100, then small dens again.  The rows come as lists, as tuples or
    mixed, in turn."""
    n = len(m)
    calls = 0
    for dens in ((1, 2, 3), (2**100, 2**100 + 3), (1, 5, 2)):
        for den in dens:
            for sign in (1, -1):
                num = [[sign * den * x for x in row] for row in m]
                bad = [row[:] for row in num]
                bad[rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
                for rows in (num, bad):
                    kind = calls % 3
                    calls += 1
                    yield [row if kind == 0 or (kind == 2 and a % 2) else tuple(row) for a, row in enumerate(rows)], den


def test_one_check_reused_across_widths():
    # One _Pullback per (B, B') answers a whole sequence: after the
    # 2^100-scale numerators widen its slots, a pack or a target kept
    # from the narrower width would misread the small numerators that
    # follow.  The forged targets cancel between neighbouring slots,
    # within a row of the packed matrix and across two rows, at each
    # width a check could be using.
    rng = random.Random(SEED + 3)
    checked = forged_checks = 0
    for case in range(24):
        n = 1 + case % 4
        gram = _matrix(rng, n, rng.choice((0, 1)), symmetric=True)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        target = _product(gram, m)
        sequence = list(_reused_sequence(rng, m))
        check = _Pullback(gram, target)
        for num, den in sequence:
            assert check(num, den) == reference(gram, target, num, den)
            checked += 1
        if n < 2:
            continue
        i = case % (n - 1)
        top = max(abs(x) for num, _ in sequence for row in num for x in row) ** 2 * sum(map(abs, sum(gram, [])))
        for k in range(8, top.bit_length() + 24, 8):
            for (r, c), (r2, c2) in (((i, 0), (i, 1)), ((i, n - 1), (i + 1, 0))):
                forged = [row[:] for row in target]
                forged[r][c] -= 1 << k
                forged[r2][c2] += 1
                check = _Pullback(gram, forged)
                for num, den in sequence:
                    assert check(num, den) == reference(gram, forged, num, den)
                    forged_checks += 1
    assert checked == 24 * 32
    assert forged_checks > 100 * 32


def test_width_grows_with_later_numerators():
    # For B = I_2 and B' = [[0, 1], [0, 1]], num = [[2^(W/2), 0], [0, 1]]
    # gives num^T num = [[2^W, 0], [0, 1]], whose slots packed W bits
    # apart form the same integer as those of B': a check that kept the
    # width of an earlier, smaller numerator would accept it.
    gram, target = [[1, 0], [0, 1]], [[0, 1], [0, 1]]
    check = _Pullback(gram, target)
    for width in range(8, 136, 8):
        num = [(1 << width // 2, 0), (0, 1)]
        assert not reference(gram, target, num, 1)
        assert check(num, 1) is False


def _fractions(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def test_verify_sees_a_shared_row_changed_in_one_candidate(tmp_path, capsys):
    # The 384 Wilson isometries are built from a few distinct rows, so the
    # check finds most rows packed; one entry of the most shared row,
    # changed in a single candidate (early, midway or last), must still
    # fail verify, and the same value written as another text must pass.
    out = tmp_path / "wilson.json"
    assert main(["factorize", WILSON_FILE, "--all", "--json", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text(encoding="utf-8"))
    gram, target = (_fractions(doc["inputs"][key]) for key in ("B", "Bprime"))
    matrices = [entry["matrix"] for entry in doc["candidates"]]
    (shared, uses), = Counter(tuple(row) for m in matrices for row in m).most_common(1)
    holders = [k for k, m in enumerate(matrices) if list(shared) in m]
    assert uses >= 40 and verify_document(doc)
    for k in (holders[0], holders[len(holders) // 2], holders[-1]):
        matrix = matrices[k]
        a = matrix.index(list(shared))
        for j, text in enumerate(shared):
            for changed, holds in ((str(Fraction(text) + 1), False), (f"{2 * Fraction(text)}/2", True)):
                matrix[a] = [*shared[:j], changed, *shared[j + 1 :]]
                assert reference(gram, target, _fractions(matrix), 1) is holds
                assert verify_document(doc) is holds
            matrix[a] = list(shared)
    assert verify_document(doc)


def test_verify_reads_one_row_text_under_two_denominators():
    # Rational isometries of I_3 that share the row text r: over den 3 in
    # the first, and scaled to den 15 in the second and third.  Each
    # answer must be the one of plain Fraction products.
    identity = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    r = ["1/3", "2/3", "2/3"]
    thirds = [r, ["2/3", "1/3", "-2/3"], ["2/3", "-2/3", "1/3"]]
    fifteenths = [r, ["14/15", "-1/3", "-2/15"], ["-2/15", "-2/3", "11/15"]]
    variants = {
        "as built": [thirds, fifteenths, fifteenths[::-1]],
        "den 15 entry moved": [thirds, [r, ["13/15", "-1/3", "-2/15"], fifteenths[2]], fifteenths[::-1]],
        "den 3 entry moved": [[r, ["2/3", "1/3", "-1/3"], thirds[2]], fifteenths, fifteenths[::-1]],
        "shared text moved": [thirds, [["1/3", "2/3", "1/3"], *fifteenths[1:]], fifteenths[::-1]],
    }
    # The pair I_3, I_3 is isometric, so no document over it can claim
    # NoIntegralIsometry; the rows are read through isometry_denominators,
    # on one problem per order, as verify reads a document's candidates.
    def problem():
        return IsometryProblem(GramForm(Mat(identity)), GramForm(Mat(identity)), (1, 0, 0))

    for name, matrices in variants.items():
        holds = [reference(_fractions(identity), _fractions(identity), _fractions(m), 1) for m in matrices]
        assert all(holds) is (name == "as built")
        expected = [lcm(*(x.denominator for row in _fractions(m) for x in row)) if h else None for m, h in zip(matrices, holds)]
        for order in (slice(None), slice(None, None, -1)):
            assert list(isometry_denominators(problem(), matrices[order])) == expected[order], name


def _cayley(rng: random.Random, n: int, scale: int) -> Mat:
    """A rational orthogonal matrix (I - S)(I + S)^-1, for a random
    skew-symmetric integer S with entries up to scale."""
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s[i][j] = rng.randint(-scale, scale)
            s[j][i] = -s[i][j]
    one = Mat.identity(n)
    return (one - Mat(s)) @ (one + Mat(s)).inverse()


def _texts(m: Mat) -> list[list[str]]:
    return [[str(x) for x in row] for row in m.rows]


def _rational_list(rng: random.Random, n: int):
    """(B, B', matrices): B = U^T U for a lower unitriangular U, B' = V^T V
    for an invertible V, and rational matrices, as entry texts, whose
    isometries are M = U^-1 R Q V for orthogonal Q and R.  R = diag(1, R')
    keeps row 0 of QV, and U^-1 keeps row 0, so three isometries share
    that row text under different matrix denominators.  Among them are
    a moved entry, a long row, an empty matrix and I / 2^60, small
    numerators over a large denominator; last comes an isometry whose
    large entries need a wider slot than every earlier matrix."""
    u = Mat([[int(i == j) or (rng.randint(-2, 2) if j < i else 0) for j in range(n)] for i in range(n)])
    v = Mat.zero(n)
    while v.determinant() == 0:
        v = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
    uinv, q = u.inverse(), _cayley(rng, n, 3)

    def isometry(m: Mat) -> list[list[str]]:
        return _texts(uinv @ m @ v)

    def fixing_row_0() -> Mat:
        return Mat([[1, *[0] * (n - 1)], *([0, *row] for row in _cayley(rng, n - 1, 3).rows)])

    shared = [isometry(fixing_row_0() @ q) for _ in range(3)]
    moved = [row[:] for row in shared[1]]
    i, j = rng.randrange(n), rng.randrange(n)
    moved[i][j] = str(Fraction(moved[i][j]) + Fraction(1, rng.choice((2, 3, 7))))
    long_row = [row[:] for row in shared[0]]
    long_row[rng.randrange(n)].append("0")
    scaled = [[str(Fraction(int(i == j), 2**60)) for j in range(n)] for i in range(n)]
    matrices = [shared[0], moved, shared[1], long_row, [], scaled, shared[2], isometry(_cayley(rng, n, 2**40))]
    gram, target = (m.transpose() @ m for m in (u, v))
    return [list(map(int, row)) for row in gram.rows], [list(map(int, row)) for row in target.rows], matrices


def test_isometry_denominators_read_a_rational_list_as_fractions_do():
    # Each list is checked at one slot width with each distinct row packed
    # once, in both orders; the answer for every matrix must be the one of
    # Fraction products: the lcm of its entry denominators for an
    # isometry, None otherwise.
    rng = random.Random(SEED + 4)
    mixed = shared_dens = 0
    for case in range(40):
        gram, target, matrices = _rational_list(rng, 3 + case % 2)
        expected, bound = [], 0
        weight, tmax = sum(map(abs, sum(gram, []))), max(map(abs, sum(target, [])))
        for matrix in matrices:
            rows = _fractions(matrix)
            den = lcm(*(x.denominator for row in rows for x in row))
            square = len(rows) == len(gram) and all(len(row) == len(gram) for row in rows)
            holds = square and reference(gram, target, rows, 1)
            expected.append(den if holds else None)
            if square:
                big = max(abs(den * x) for row in rows for x in row)
                bound = max(bound, big * big * weight, den * den * tmax)
            mixed += len({lcm(*(x.denominator for x in row)) for row in rows}) > 1
        assert [k for k, den in enumerate(expected) if den is None] == [1, 3, 4, 5]
        shared_dens += len({expected[0], expected[2], expected[6]}) > 1
        for order in (slice(None), slice(None, None, -1)):
            problem = IsometryProblem(GramForm(Mat(gram)), GramForm(Mat(target)), Vec.unit(len(gram), 0))
            assert list(isometry_denominators(problem, matrices[order])) == expected[order]
            # The one width bounds every slot of every square matrix.
            assert bound < 1 << (problem._pullback.width - 1)
    assert mixed > 40 and shared_dens > 20
