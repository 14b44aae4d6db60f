"""find_isometries(all_solutions=True) searches one first row per orbit of
the signed permutations U with U^T B U = B and U w = w (with -1), and
takes the other candidates of each orbit as U M; the first-witness scan
goes through the same orbit routine with the identity alone.  In both
modes its candidates (num, den, provenance, entry texts), stats and
certificate must equal those of helpers.reference_find_isometries, which
reconstructs every joint tuple of both signs.  The group itself is
checked against a filter of every signed permutation.

Selection rule: Random(4507) draws one target U^T U per identity problem,
then one U per diag(1,1,2,2) target U^T D U (the non-isometric one last),
in the order listed, and no draw is dropped.
"""

from __future__ import annotations

import random
import time

import pytest

from helpers import rand_unimodular, reference_find_isometries, signed_automorphisms_by_products
from superlat import isometry
from superlat.forms import GramForm
from superlat.isometry import (
    IsometryProblem,
    _orbits,
    _signed_automorphisms,
    _size_order,
    find_isometries,
    solve_eq1,
    solve_eq3_per_z0,
)
from superlat.linalg import Mat, Vec


def _anchors(n: int) -> list[tuple[int, ...]]:
    """e_1, (1,1,0,...), (1,...,1) and (2,1,0,...) in dimension n, without
    repeats; the first three for n = 4 and e_1 alone for n = 5, since the
    reference takes more than 5 s on I_4 at (2,1,0,0) and on I_5 at any
    anchor but e_1."""
    pad = (0,) * n
    anchors = dict.fromkeys([(1, *pad)[:n], (1, 1, *pad)[:n], (1,) * n, (2, 1, *pad)[:n]])
    return list(anchors)[: {4: 3, 5: 1}.get(n)]


def _cases():
    rng = random.Random(4507)
    out = []
    for n in (2, 3, 4, 5):
        for w in _anchors(n):
            u = rand_unimodular(rng, n, steps=4)
            out.append((f"I{n} at {w}", Mat.identity(n), u.transpose() @ u, w, None))
    diag1122, diag122 = Mat.diagonal([1, 1, 2, 2]), Mat.diagonal([1, 2, 2])
    for w in ((1, 0, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0)):
        u = rand_unimodular(rng, 4, steps=4)
        out.append((f"diag(1,1,2,2) at {w}", diag1122, u.transpose() @ diag1122 @ u, w, None))
    out.append(("diag(1,2,2) at e_1", diag122, diag122, (1, 0, 0), None))
    out.append(("diag(1,2,2) at (0,1,1)", diag122, Mat([[1, 0, 0], [0, 2, 2], [0, 2, 4]]), (0, 1, 1), None))
    # diag(1,1,1,4) is rationally equivalent to diag(1,1,2,2) but has six
    # vectors of norm 1 to its four: rational candidates, none integral.
    u = rand_unimodular(rng, 4, steps=4)
    out.append(("non-isometric target", diag1122, u.transpose() @ Mat.diagonal([1, 1, 1, 4]) @ u, (0, 0, 1, 0), None))
    # (w | z0_1 z0_2 z0_3) has determinant -2.
    probes = [(0, 1, 1, 0), (0, 1, -1, 0), (0, 0, 0, 1)]
    out.append(("det P = -2", Mat.identity(4), Mat.identity(4), (1, 0, 0, 0), probes))
    return out


CASES = _cases()


def _problem(gram, target, w, probes) -> IsometryProblem:
    return IsometryProblem(GramForm(gram), GramForm(target), Vec(w), probes=probes and list(map(Vec, probes)))


def _fields(candidates):
    return [(c.num, c.den, c._prov, c.entry_strings) for c in candidates]


@pytest.mark.parametrize("name,gram,target,w,probes", CASES, ids=[case[0] for case in CASES])
def test_orbit_path_matches_the_reference(name, gram, target, w, probes):
    for all_solutions in (True, False):
        got = find_isometries(_problem(gram, target, w, probes), all_solutions=all_solutions)
        want = reference_find_isometries(_problem(gram, target, w, probes), all_solutions=all_solutions)
        assert got.stats == want.stats, all_solutions
        assert got.certificate == want.certificate, all_solutions
        assert _fields(got.candidates) == _fields(want.candidates), all_solutions


def test_the_cases_take_the_orbit_path_and_cover_every_kind():
    verdicts, orbit_sizes, negated = set(), set(), False
    for _, gram, target, w, probes in CASES:
        problem = _problem(gram, target, w, probes)
        group = _signed_automorphisms(problem)
        result = find_isometries(problem)
        verdicts.add(result.certificate.verdict)
        if result.certificate.verdict == "NoIntegralIsometry":
            assert result.candidates
        shells = (solve_eq1(problem), *(solve_eq3_per_z0(problem, z0) for z0 in problem._probes))
        if len(group) == 1 or not all(shells):
            continue
        first = shells[_size_order(shells)[0]]
        rows, images = _orbits(problem, group, first)
        orbit_sizes.update(map(len, images))
        for r in rows:
            a = tuple(isometry._dot(e, r) for e in problem._l0_basis)
            orbit = {tuple(s * a[p] for p, s in zip(perm, signs)) for perm, signs in group}
            negated = negated or (any(a) and isometry._neg(a) in orbit)
    assert verdicts == {"IsometricWitness", "NoIntegralIsometry"}
    assert max(orbit_sizes) > 0 and negated


SMALL = [case for case in CASES if len(case[3]) <= 4]


@pytest.mark.parametrize("name,gram,target,w,probes", SMALL, ids=[case[0] for case in SMALL])
def test_group_is_every_signed_permutation_fixing_b_and_w(name, gram, target, w, probes):
    group = _signed_automorphisms(_problem(gram, target, w, probes))
    assert group[0] == (tuple(range(len(w))), (1,) * len(w))
    assert len(set(group)) == len(group)
    assert set(group) == signed_automorphisms_by_products(gram, w)


def test_identity_6_at_e1_has_3840_elements():
    problem = _problem(Mat.identity(6), Mat.identity(6), (1, 0, 0, 0, 0, 0), None)
    start = time.perf_counter()
    group = _signed_automorphisms(problem)
    assert time.perf_counter() - start < 0.1
    assert len(group) == 2**5 * 120
