"""The packed eq2 filter against the one-dot-product-per-pair scan.

isometry.filter_eq2 evaluates every eq2 pairing of an eq1 solution at once
on integers with one fixed-width slot per eq3 solution, read from the
columns of the eq3 shells' L0 rows (t, kernel coordinates).  The shells
are sign-complete (row L-1-j = -row j) and only their first halves are
packed; survivors in the second half are found through their mirrors.
Each test requires the same lists as helpers.reference_filter_eq2: the
same row objects, in the same order.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from helpers import WILSON, rand_pullback_problem, reference_filter_eq2
from superlat.forms import GramForm
from superlat.isometry import (
    IsometryProblem,
    filter_eq2,
    solve_eq1,
    solve_eq3_per_z0,
)
from superlat.linalg import Mat, Vec


def _assert_same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        assert all(a is b for a, b in zip(g, w))


def _check_all(problem, e1s, per_probe):
    for e1 in e1s:
        _assert_same(filter_eq2(problem, e1, per_probe), reference_filter_eq2(problem, e1, per_probe))


def _search_data(problem):
    return solve_eq1(problem), [solve_eq3_per_z0(problem, z0) for z0 in problem.probes]


def test_wilson_anchor_ones_every_eq1_solution():
    problem = IsometryProblem(GramForm(Mat.identity(4)), GramForm(WILSON), Vec([1, 1, 1, 1]))
    e1s, per_probe = _search_data(problem)
    assert len(e1s) == 3456
    assert [len(c) for c in per_probe] == [576, 576, 768]
    _check_all(problem, e1s, per_probe)


def test_seeded_random_problems_n2_to_n5():
    rng = random.Random(41)
    for n in (2, 3, 4, 5):
        for _ in range(3):
            gram, target, w, _phi = rand_pullback_problem(rng, sizes=(n,))
            problem = IsometryProblem(GramForm(gram), GramForm(target), w)
            e1s, per_probe = _search_data(problem)
            assert e1s and all(per_probe)
            if n == 5:
                # n = 5 eq3 sets reach about 10^4 solutions: keep the
                # reference scan affordable with a seeded sample of eq1.
                e1s = rng.sample(e1s, min(len(e1s), 30))
            _check_all(problem, e1s, per_probe)


def _fake_problem(wnorm: int, eq2_targets: tuple[int, ...], k: int):
    """The attributes filter_eq2 reads, with free eq2 targets and the
    kernel Gram matrix I_k, so that the kernel coordinates of an eq3
    solution are also its G c."""
    gram = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    return SimpleNamespace(
        wnorm=wnorm,
        eq2_targets=eq2_targets,
        kernel_gram=gram,
        _l0_gram=((wnorm,) + (0,) * k, *((0, *row) for row in gram)),
        _eq2_table=None,
    )


def _eq3(t: int, gcoords: tuple[int, ...]) -> tuple[int, ...]:
    """The row (t, kernel coordinates) of an eq3 solution whose G c is
    gcoords on a fake problem."""
    return (t, *gcoords)


def _signed(rows) -> tuple[tuple[int, ...], ...]:
    """The sorted shell of rows and their negations: sign-complete, with
    row L-1-j = -row j, like the shells of solve_eq3_per_z0."""
    return tuple(sorted({*rows, *(tuple(-a for a in r) for r in rows)}))


def _synthetic(rng: random.Random, bits: int, k: int, count: int, e1: tuple[int, ...], wnorm: int, e2: int):
    """The sign-complete shell of count random eq3 rows (and their
    negations) with entries below 2^bits in absolute value; about a third
    of the random rows solve eq2 for the eq1 row e1 exactly (planted
    through the first kernel coordinate, whose e1 coefficient is +-1)."""
    ns, xb = wnorm * e1[0], e1[1:]
    out = []
    for _ in range(count):
        t = rng.randint(-(2**bits), 2**bits)
        g = [rng.randint(-(2**bits), 2**bits) for _ in range(k)]
        if rng.random() < 0.35:
            rest = e2 - ns * t - sum(x * y for x, y in zip(xb[1:], g[1:]))
            g[0] = rest * xb[0]
            # Off by one from a survivor: must not survive.
            if rng.random() < 0.3:
                g[0] += rng.choice((-1, 1))
        out.append(_eq3(t, tuple(g)))
    return _signed(out)


def test_synthetic_entries_negative_and_around_2_to_70():
    rng = random.Random(7)
    k = 3
    for bits in (3, 20, 63, 64, 69, 70, 71, 130):
        wnorm = rng.randint(1, 2**bits)
        e2s = tuple(rng.randint(-(2**bits), 2**bits) for _ in range(3))
        problem = _fake_problem(wnorm, e2s, k)
        lead = rng.choice((-1, 1))
        # Eq1 rows that satisfy no norm equation, entries of both signs.
        e1s = [
            (rng.randint(-(2**bits), 2**bits), lead, *(rng.randint(-(2**bits), 2**bits) for _ in range(k - 1)))
            for _ in range(4)
        ]
        per_probe = [_synthetic(rng, bits, k, 40, e1s[0], wnorm, e2) for e2 in e2s]
        _check_all(problem, e1s, per_probe)
        kept = filter_eq2(problem, e1s[0], per_probe)
        # Planted survivors in both halves: packed, and found through
        # their mirrors.
        where = {shell.index(row) < (len(shell) + 1) // 2 for shell, rows in zip(per_probe, kept) for row in rows}
        assert where == {True, False}, "the planted survivors must be found"
        assert problem._eq2_table.map.width >= bits


def test_slot_width_grows_between_calls():
    rng = random.Random(11)
    k = 3
    problem = _fake_problem(2, (5, -7, 0), k)
    small = (1, 1, -2, 3)
    per_probe = [_synthetic(rng, 4, k, 30, small, 2, e2) for e2 in problem.eq2_targets]
    _check_all(problem, [small], per_probe)
    width = problem._eq2_table.map.width
    huge = (-(2**75) + 3, -1, 2**70, -(2**71))
    _check_all(problem, [huge], per_probe)
    assert problem._eq2_table.map.width > width
    # A wider table still serves the small solution.
    _check_all(problem, [small, huge, small], per_probe)


def test_extreme_slot_values_do_not_carry():
    # Pairings at the bound |N s t + B(btilde, c) - e2| = 2^15 - 1 of a
    # 16-bit slot, of both signs, next to exact survivors; at e2 = 0 both
    # rows of each surviving +-pair survive, and the zero middle row of
    # the odd-length shell is listed once.
    k = 2
    problem = _fake_problem(1, (0,), k)
    e1 = (1, 1, 1)
    m = (2**15 - 1) // 3
    cands = _signed((
        _eq3(m + 1, (m, m)), _eq3(0, (0, 0)), _eq3(m, (-m, 0)),
        _eq3(-m, (m, m)), _eq3(1, (-1, 0)),
    ))
    assert len(cands) == 9
    got = filter_eq2(problem, e1, [cands])
    _assert_same(got, reference_filter_eq2(problem, e1, [cands]))
    assert got == [[(-m, m, 0), (-1, 1, 0), (0, 0, 0), (1, -1, 0), (m, -m, 0)]]
    assert problem._eq2_table.map.width == 16


def test_pattern_straddling_two_slots_is_no_survivor():
    # Packed slot values 68 = 0x0044 and 0x7f80 (little-endian 44 00 | 80
    # 7f) contain the survivor pattern 00 80 across the slot boundary.
    k = 2
    problem = _fake_problem(1, (0,), k)
    e1 = (1, 1, 1)
    cands = _signed((_eq3(-10900, (-10900, -10900)), _eq3(-128, (0, 0)), _eq3(-5, (5, 0))))
    got = filter_eq2(problem, e1, [cands])
    assert problem._eq2_table.map.width == 16
    _assert_same(got, reference_filter_eq2(problem, e1, [cands]))
    assert got == [[cands[2], cands[3]]]


def test_mirrored_pattern_straddling_two_slots_is_no_survivor():
    # With e2 = -64 the rows with g . row = 64 are the mirrors of
    # survivors; their slots hold 2^15 + 128 = 0x8080.  The packed slots
    # 0x8001 and 0x4080 (01 80 | 80 40) contain 80 80 across the
    # boundary, and the third slot holds it aligned.
    k = 2
    problem = _fake_problem(1, (-64,), k)
    e1 = (1, 1, 1)
    cands = _signed((_eq3(-5441, (5378, 0)), _eq3(-5440, (-5440, -5440)), _eq3(-1, (65, 0))))
    got = filter_eq2(problem, e1, [cands])
    assert problem._eq2_table.map.width == 16
    _assert_same(got, reference_filter_eq2(problem, e1, [cands]))
    assert got == [[(1, -65, 0)]]


@pytest.mark.parametrize("e2", [16383, -16383, 16384, -16384])
def test_twice_the_eq2_target_at_the_slot_edge(e2):
    # |g . row| <= 16383 and |e2| <= 16384 keep 16-bit slots.  At
    # 2 |e2| = 2^15 no slot can hold the mirrored pattern (and
    # 2^15 - 2 e2 would not fit in one); just below it, it can.
    k = 2
    problem = _fake_problem(1, (e2,), k)
    e1 = (1, 1, 1)
    m = 16383 // 3
    cands = _signed((_eq3(-m, (-m, -m)), _eq3(-2, (1, 1)), _eq3(0, (0, 0))))
    got = filter_eq2(problem, e1, [cands])
    assert problem._eq2_table.map.width == 16
    _assert_same(got, reference_filter_eq2(problem, e1, [cands]))
    assert got == [{16383: [(m, m, m)], -16383: [(-m, -m, -m)]}.get(e2, [])]


def test_shell_that_is_not_sign_complete_raises():
    problem = _fake_problem(1, (0, 0), 2)
    e1 = (1, 1, 1)
    good = _signed((_eq3(1, (-1, 0)),))
    for bad in (((1, -1, 0),), ((-1, 1, 0), (0, 0, 0), (2, -1, 0)), good[::-1] + good):
        with pytest.raises(ValueError):
            filter_eq2(problem, e1, [good, bad])


def test_eq2_target_far_above_the_entries():
    k = 3
    e1 = (-2, 1, -1, 2)
    rng = random.Random(5)
    rows = [_eq3(rng.randint(-9, 9), tuple(rng.randint(-9, 9) for _ in range(k))) for _ in range(50)]
    rows.append(_eq3(1, (6, 0, 0)))  # -6 t + g0 - g1 + 2 g2 = 0
    shell = _signed(rows)
    for e2 in (2**100, -(2**100), 2**63 - 1, -(2**64)):
        problem = _fake_problem(3, (e2, 0), k)
        per_probe = [shell, shell[::-1]]
        got = filter_eq2(problem, e1, per_probe)
        _assert_same(got, reference_filter_eq2(problem, e1, per_probe))
        assert got[0] == [] and got[1]


def test_empty_probe_lists():
    problem = IsometryProblem(GramForm(Mat.identity(4)), GramForm(WILSON), Vec([1, 1, 1, 1]))
    e1s, per_probe = _search_data(problem)
    empty = ()
    for lists in ([empty, empty, empty], [per_probe[0], empty, per_probe[2]], [empty, per_probe[1], empty], []):
        _check_all(problem, e1s[:50], lists)


def _rows(shell):
    """Copies of the rows of shell: equal tuples, other objects."""
    return [tuple(list(row)) for row in shell]


def test_table_follows_the_lists_it_was_built_from():
    problem = IsometryProblem(GramForm(Mat.identity(4)), GramForm(WILSON), Vec([1, 1, 1, 1]))
    e1s, per_probe = _search_data(problem)
    sample = e1s[::97]
    _check_all(problem, sample, per_probe)
    # A shell of copied rows is another object; the result holds its
    # rows.
    copy = [tuple(_rows(c)) for c in per_probe]
    _check_all(problem, sample, copy)
    # Shells of changed rows, each still sign-complete: reordered,
    # shortened by +-pairs, and a survivor's row in a new shell (whose
    # entry the result must hold) or a +-pair replaced by other values.
    rows = [_rows(c) for c in per_probe]
    rows[0].reverse()
    del rows[1][:100], rows[1][-100:]
    e1 = next(e for e in e1s if reference_filter_eq2(problem, e, per_probe)[2])
    survivor = reference_filter_eq2(problem, e1, per_probe)[2][0]
    changed = [tuple(r) for r in rows]
    twin = changed[2][rows[2].index(survivor)]
    assert twin == survivor and twin is not survivor
    _check_all(problem, [e1, *sample], changed)
    assert any(c is twin for c in filter_eq2(problem, e1, changed)[2])
    assert rows[2][0] != survivor and rows[2][-1] != survivor
    rows[2][0], rows[2][-1] = tuple(-a for a in survivor), tuple(list(survivor))
    changed[2] = tuple(rows[2])
    _check_all(problem, [e1, *sample], changed)
    _check_all(problem, [e1, *sample], per_probe)


def test_the_outer_list_may_change_in_place():
    problem = IsometryProblem(GramForm(Mat.identity(4)), GramForm(WILSON), Vec([1, 1, 1, 1]))
    e1s, per_probe = _search_data(problem)
    shells = list(per_probe)
    _check_all(problem, e1s[::211], shells)
    shells.reverse()
    _check_all(problem, e1s[::211], shells)
    del shells[1]
    _check_all(problem, e1s[::211], shells)
