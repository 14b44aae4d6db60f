"""The exact check num^T B num = den^2 B' runs on packed integers
(isometry._Pullback, behind IsometryProblem.pulls_back); it must agree
with plain dot products on every input, including entries at the slot
boundaries, one-unit perturbations, targets forged to cancel between
neighbouring slots, and rows of the wrong shape."""

from __future__ import annotations

import random

from superlat.forms import GramForm
from superlat.isometry import IsometryProblem, _Pullback
from superlat.linalg import Mat, Vec

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
