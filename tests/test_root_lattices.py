"""Known answers: the isometry groups of the root lattices A_n and D_n.

|O(A_n)| = 2 (n + 1)! for n >= 2 (the Weyl group S_(n+1) and -1), and
|O(D_4)| = 1152 (the Weyl group of F_4), |O(D_n)| = 2^n n! for n >= 5.
Each group is the set of integral M with M^T L M = L, and on a pullback
(L, U^T L U) the same number of M, the coset O(L) U."""

import random

import pytest

from superlat.forms import GramForm
from superlat.isometry import IsometryProblem, brute_force_isometries, find_isometries
from superlat.linalg import Mat, Vec


def cartan_a(n: int) -> Mat:
    """The Cartan matrix of A_n: the path of n simple roots."""
    return Mat([[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)])


def cartan_d(n: int) -> Mat:
    """The Cartan matrix of D_n: the path of roots 0..n-2, and root n-1
    joined to root n-3."""
    rows = [list(row) for row in cartan_a(n - 1).rows]
    rows = [row + [-1 if i == n - 3 else 0] for i, row in enumerate(rows)]
    rows.append([-1 if j == n - 3 else 2 if j == n - 1 else 0 for j in range(n)])
    return Mat(rows)


def pullback(gram: Mat, seed: int = 7) -> Mat:
    """U^T gram U for U the product of 3n elementary column operations
    (add +-1 times one column to another) drawn from random.Random(seed)."""
    n, rng = gram.nrows, random.Random(seed)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        for row in u:
            row[j] += s * row[i]
    um = Mat(u)
    return um.transpose() @ gram @ um


ORDERS = {
    "A4": (cartan_a(4), 240),
    "A5": (cartan_a(5), 1440),
    "A6": (cartan_a(6), 10080),
    "D4": (cartan_d(4), 1152),
    "D5": (cartan_d(5), 3840),
}


def test_cartan_matrices():
    # det A_n = n + 1 and det D_n = 4.
    for name, (gram, _) in ORDERS.items():
        assert gram.is_symmetric()
        assert gram.determinant() == (int(name[1]) + 1 if name[0] == "A" else 4)


@pytest.mark.parametrize("name", sorted(ORDERS))
def test_oracle_counts_the_isometry_group(name):
    gram, order = ORDERS[name]
    form = GramForm(gram)
    assert len(brute_force_isometries(form, form)) == order


# A6's pullback is left out: its oracle run takes over a second.
@pytest.mark.parametrize("name", ["A4", "A5", "D4", "D5"])
def test_oracle_counts_the_coset_on_a_pullback(name):
    gram, order = ORDERS[name]
    target = pullback(gram)
    assert target != gram
    found = brute_force_isometries(GramForm(gram), GramForm(target))
    assert len(found) == len(set(found)) == order
    assert all(m.transpose() @ gram @ m == target for m in found[:: max(1, order // 50)])


def test_search_counts_the_isometry_group_of_d4():
    d4 = GramForm(cartan_d(4))
    problem = IsometryProblem(d4, d4, Vec([1, 0, 0, 0]))
    integral = [c for c in find_isometries(problem, all_solutions=True).candidates if c.integral]
    assert len(integral) == 1152
