"""The integer search core: Fincke-Pohst on a denominator-cleared LDL^T,
reconstruct over one common denominator, and the integer M^T B M = B'
check used by verification."""

import itertools
import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import _ambient, form_norm, mat_from_cols, naive_box_norm_solutions, naive_box_volume
from superlat.diophantine import PosDefForm, vectors_of_norm
from superlat.forms import GramForm, dual_membership
from superlat.isometry import (
    IsometryProblem,
    find_isometries,
    reconstruct,
    solve_eq1,
    solve_eq3_per_z0,
)
from superlat.linalg import Mat, Vec, _cleared
from superlat.problem_io import (
    document_json,
    load_problem,
    result_document,
    verify_document,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _has_denominators(q: PosDefForm) -> bool:
    lf = q.ldl
    return lf.dl > 1 or lf.scale > 1


def _ata_plus_identity(entries: list[int], n: int) -> Mat:
    a = Mat([entries[i * n:(i + 1) * n] for i in range(n)])
    return a.transpose() @ a + Mat.identity(n)


def test_scaled_ldl_identity():
    # dl^2 dq * x^T G x = sum_j P_j Y_j^2 on a grid of x, with level j
    # at coordinate order[j].
    rng = random.Random(5)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        g = _ata_plus_identity([rng.randint(-2, 2) for _ in range(n * n)], n)
        q = PosDefForm(g)
        lf = q.ldl
        for x in itertools.product(range(-1, 2), repeat=n):
            ys = [lf.dl * x[q.order[j]] + sum(l * x[i] for i, l in lf.low[j]) for j in range(n)]
            assert sum(p * y * y for p, y in zip(lf.pivots, ys)) == lf.scale * form_norm(q, x)


def test_vectors_of_norm_fixed_forms_with_denominators():
    hex2 = Mat([[2, 1], [1, 2]])
    ata = _ata_plus_identity([1, 1, 0, 0, 1, -1, 1, 0, 1], 3)
    for g in (hex2, ata, Mat([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 1]])):
        q = PosDefForm(g)
        assert _has_denominators(q)
        for c in range(0, 13):
            assert set(vectors_of_norm(q, c)) == naive_box_norm_solutions(g, c)
    q = PosDefForm(hex2)
    assert vectors_of_norm(q, 0) == ((0, 0),)
    assert len(vectors_of_norm(q, 2)) == 6  # the A2 root system
    # The form is even: no vector reaches an odd target.
    assert all(len(vectors_of_norm(q, c)) == 0 for c in (1, 3, 5, 7, 99))


def test_vectors_of_norm_rational_target():
    q = PosDefForm(Mat([[Fraction(1, 2), 0], [0, Fraction(1, 2)]]))
    assert set(vectors_of_norm(q, Fraction(1, 2))) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(vectors_of_norm(q, Fraction(1, 3))) == 0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    entries=st.lists(st.integers(min_value=-1, max_value=1), min_size=16, max_size=16),
    c=st.integers(min_value=0, max_value=12),
    even=st.booleans(),
)
def test_vectors_of_norm_matches_box_scan(n, entries, c, even):
    g = _ata_plus_identity(entries[: n * n], n)
    if even:
        g = 2 * g
    q = PosDefForm(g)
    assume(_has_denominators(q))
    assume(naive_box_volume(g, c) <= 20000)
    got = vectors_of_norm(q, c)
    assert set(got) == naive_box_norm_solutions(g, c)
    assert list(got) == sorted(got)
    if c == 0:
        assert got == ((0,) * n,)
    if even and c % 2:
        assert len(got) == 0


def _quaternary_document() -> dict:
    pf = load_problem(str(PROBLEMS / "quaternary_pair.txt"))
    problem = IsometryProblem(GramForm(pf.gram), GramForm(pf.target), pf.w)
    result = find_isometries(problem)
    assert result.certificate.verdict == "NoIntegralIsometry"
    return result_document(problem, result)


def _perturbed(rows: list[list[str]]) -> list[list[str]]:
    """The matrix with its first non-integral entry moved by 1/den, den
    the common denominator of the matrix."""
    values = [[Fraction(x) for x in row] for row in rows]
    den = lcm(*(x.denominator for row in values for x in row))
    i, j = next(
        (i, j) for i, row in enumerate(values) for j, x in enumerate(row) if x.denominator > 1
    )
    out = [list(row) for row in rows]
    out[i][j] = str(values[i][j] + Fraction(1, den))
    return out


def test_verify_rejects_perturbed_rational_candidate():
    doc = _quaternary_document()
    assert verify_document(doc)
    for k in (0, len(doc["candidates"]) - 1):
        # In the candidate list ...
        bad = _quaternary_document()
        bad["candidates"][k]["matrix"] = _perturbed(bad["candidates"][k]["matrix"])
        assert not verify_document(bad)
        # ... and in the certificate's own list.
        bad = _quaternary_document()
        rows = bad["certificate"]["detail"]["candidates"]
        rows[k] = _perturbed(rows[k])
        assert not verify_document(bad)
    # The untouched document still verifies after a JSON round trip.
    assert verify_document(json.loads(document_json(doc)))


def _inverses(problem: IsometryProblem) -> tuple[Mat, Mat]:
    """(P^-1, (P^T B)^-1) for the basis P = (w | z0_1 ...); the second
    maps (0, t) to the atilde with B(atilde, w) = 0, B(atilde, z0_i) = t_i."""
    basis = mat_from_cols([problem.w] + problem.probes)
    return basis.inverse(), (basis.transpose() @ problem.source.gram).inverse()


def _reference_reconstruct(problem: IsometryProblem, inverses, s, btilde, tcs):
    """Rational reconstruction straight from the defining formulas, from
    the ambient data s, btilde and one pair (t_i, c_i) per probe."""
    basis_inv, pairing_inv = inverses
    n_frac = Fraction(problem.wnorm)
    atilde = pairing_inv @ Vec([0] + [t for t, _ in tcs])
    if not dual_membership(problem.source, atilde):
        return None
    phi_w = (Fraction(s) / n_frac) * problem.w + (1 / n_frac) * btilde
    cols = [phi_w]
    for z0, (t, c) in zip(problem.probes, tcs):
        phi_z = (1 / n_frac**2) * c + (Fraction(t) / n_frac**2) * problem.w
        cols.append(phi_z + (problem.source.evaluate(z0, problem.w) / n_frac) * phi_w)
    m = mat_from_cols(cols) @ basis_inv
    if m.transpose() @ problem.source.gram @ m != problem.target.gram:
        return None
    return m, tuple(atilde.entries)


def test_reconstruct_rejects_tuple_outside_dual_lattice():
    # The probe (0, 2) does not complete w = e1 to a Z-basis, so
    # atilde = (0, t/2) lies in the dual lattice Z^2 only for even t.
    form = GramForm(Mat.identity(2))
    problem = IsometryProblem(form, form, Vec([1, 0]), probes=[Vec([0, 2])])
    e1 = solve_eq1(problem)[0]
    checked = []
    real_check = problem.pulls_back
    problem.pulls_back = lambda num, den: checked.append(den) or real_check(num, den)
    for t in (1, -1, 3):
        # A hand-made eq3 row (t, kernel coordinates); it need not solve eq3.
        pick = (t, 1)
        atilde = _inverses(problem)[1] @ Vec([0, t])
        assert not dual_membership(problem.source, atilde)
        assert reconstruct(problem, e1, (pick,)) is None
    # The dual test rejects these before any matrix is built or checked.
    assert checked == []
    # A real eq3 solution passes and rebuilds the identity.
    sols = solve_eq3_per_z0(problem, problem.probes[0])
    built = [reconstruct(problem, e, (p,)) for e in solve_eq1(problem) for p in sols]
    mats = {c.matrix for c in built if c is not None}
    assert Mat.identity(2) in mats


def test_reconstruct_matches_rational_reference():
    # eq1 x eq3 tuples, assembled or not, on probe bases that are not all
    # Z-bases, so that the dual test fails for some of them.  The large
    # third case is checked on a seeded sample of its 7200 tuples.
    hex3 = Mat([[2, 1, 0], [1, 2, 0], [0, 0, 2]])
    cases = [
        (Mat([[2, 1], [1, 2]]), Mat([[2, 1], [1, 2]]), Vec([1, 0]), [Vec([1, 2])]),
        (Mat.identity(3), Mat([[1, 0, 0], [0, 2, 1], [0, 1, 1]]), Vec([1, 0, 0]), None),
        (hex3, hex3, Vec([1, 0, 0]), [Vec([0, 1, 0]), Vec([0, 0, 2])]),
    ]
    rng = random.Random(11)
    rejected_by_dual = accepted = 0
    for g, gp, w, probes in cases:
        problem = IsometryProblem(GramForm(g), GramForm(gp), w, probes=probes)
        per_probe = [solve_eq3_per_z0(problem, z0) for z0 in problem.probes]
        inverses = _inverses(problem)
        tuples = list(itertools.product(solve_eq1(problem), *per_probe))
        if len(tuples) > 1000:
            tuples = rng.sample(tuples, 1000)
        for e1, *picks in tuples:
            btilde = Vec(_ambient(problem, (0, *e1[1:])))
            tcs = [(p[0], Vec(_ambient(problem, (0, *p[1:])))) for p in picks]
            want = _reference_reconstruct(problem, inverses, e1[0], btilde, tcs)
            got = reconstruct(problem, e1, tuple(picks))
            if want is None:
                assert got is None
                atilde = inverses[1] @ Vec([0] + [p[0] for p in picks])
                rejected_by_dual += not dual_membership(problem.source, atilde)
                continue
            accepted += 1
            m, atilde = want
            assert got.matrix == m
            assert got.integral == m.is_integral()
            assert got.provenance[2] == atilde
            assert all(isinstance(x, Fraction) for x in got.provenance[2])
            assert _is_isometry(problem, got.matrix)
    assert rejected_by_dual > 0 and accepted > 0


def _is_isometry(problem: IsometryProblem, m: Mat) -> bool:
    """M^T B M = B', checked in integers on the numerator of M over the
    lcm of its denominators."""
    den, num = _cleared(m.rows)
    return problem.pulls_back(num, den)


def test_is_isometry_integer_check():
    pf = load_problem(str(PROBLEMS / "wilson.txt"))
    problem = IsometryProblem(GramForm(pf.gram), GramForm(pf.target), pf.w)
    witness = find_isometries(problem, all_solutions=False).certificate.witness.matrix
    assert _is_isometry(problem, witness)
    assert _is_isometry(problem, Fraction(-1) * witness)
    assert not _is_isometry(problem, Fraction(1, 2) * witness)
    rows = [list(r) for r in witness.rows]
    rows[0][0] += Fraction(1, 7)
    assert not _is_isometry(problem, Mat(rows))
    assert not _is_isometry(problem, Mat.identity(3))
