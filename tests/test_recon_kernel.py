"""reconstruct runs on one packed integer map of the joint tuple.

It must give what it gave before that map (helpers.reference_reconstruct,
which maps each row through E, forms C and multiplies by adj): the same
None or candidate, with equal num, den and provenance (atilde still as
Fractions), on every assembled tuple of the example problems, Wilson at
(1,1,1,1), the benchmark's seeded pullbacks and Kneser neighbours
(perfbench/gen.py, imported read-only) and the db = 6 problem of
test_sign_halving; and every slot of the map must equal its formula.
Rows whose outputs lie at the 64-bit edge or near 2^70 take the wide
decode path and must agree too, and a numerator changed in any one slot
must fail the exact check that still runs.  The map is packed from E, A
and the t-slot columns as Kronecker products; on seeded problems of
n = 1 ... 6 it must equal those columns packed one coefficient at a time.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from itertools import chain
from math import gcd
from pathlib import Path

import pytest

from helpers import (
    WILSON,
    _ambient,
    _reference_recon_tables,
    leibniz_det,
    rand_pd_gram,
    rand_sym_nondegenerate,
    reference_joint_tuples,
    reference_reconstruct,
)
from superlat.forms import GramForm
from superlat.isometry import (
    CandidateIsometry,
    IsometryProblem,
    _dot,
    _ReconTables,
    _SlotMap,
    reconstruct,
)
from superlat.linalg import Mat, Vec, _cleared_inverse
from superlat.problem_io import load_problem

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402


def _problem(gram, target, w, probes=None) -> IsometryProblem:
    return IsometryProblem(GramForm(Mat(gram)), GramForm(Mat(target)), Vec(w), probes)


def _cases():
    out = []
    for path in sorted(PROBLEMS.glob("*.txt")):
        pf = load_problem(str(path))
        if pf.target is not None:
            out.append((path.name, lambda pf=pf: IsometryProblem(GramForm(pf.gram), GramForm(pf.target), pf.w)))
    out.append(("wilson at (1,1,1,1)", lambda: _problem(Mat.identity(4).rows, WILSON.rows, [1, 1, 1, 1])))
    for p in gen.pullback(gen.REFERENCE_SEED, 5) + gen.neighbour(gen.REFERENCE_SEED, 10):
        out.append((p.name, lambda p=p: _problem(p.gram, p.target, p.w)))
    out.append((
        "db = 6",
        lambda: _problem(
            [[6, -1, 2], [-1, 2, 2], [2, 2, 4]],
            [[6, -1, -5], [-1, 6, 4], [-5, 4, 6]],
            [0, 1, 0],
            [Vec([1, 2, -2]), Vec([2, 0, 2])],
        ),
    ))
    return out


CASES = _cases()


def _tuples(problem: IsometryProblem):
    for e1, *picks in reference_joint_tuples(problem):
        yield e1, tuple(picks)


def _assert_same(got: CandidateIsometry | None, want: CandidateIsometry | None) -> None:
    assert (got is None) == (want is None)
    if want is not None:
        assert (got.num, got.den, got.provenance) == (want.num, want.den, want.provenance)
        assert all(isinstance(a, Fraction) for a in got.provenance[2])


def _expected_outputs(problem: IsometryProblem, z: tuple[int, ...]) -> tuple[int, ...]:
    """The slots of the packed map for z, from the formulas of
    reference_reconstruct: num = C adj row by row, the kernel parts of the
    rows, pair (0, t), then adj^T (0, t) when db != 1."""
    betas, adj_cols, db, _, _, pair = _reference_recon_tables(problem)
    n = problem.dim
    rows = [z[i : i + n] for i in range(0, n * n, n)]
    sb, *picked = [_ambient(problem, row) for row in rows]
    ts = [0] + [row[0] for row in rows[1:]]
    ccols = [[problem.wnorm * x for x in sb]]
    ccols += [[c + beta * y for c, y in zip(tc, sb)] for beta, tc in zip(betas, picked)]
    out = [_dot(row, col) for row in zip(*ccols) for col in adj_cols]
    out += [x for row in rows for x in _ambient(problem, (0, *row[1:]))]
    out += [_dot(row, ts) for row in pair]
    if db != 1:
        out += [_dot(col, ts) for col in adj_cols]
    return tuple(out)


@pytest.mark.parametrize("name,make", CASES, ids=[name for name, _ in CASES])
def test_matches_reference_on_every_assembled_tuple(name, make):
    problem = make()
    tab = problem._recon_tables
    betas, adj_cols, db, den, dp, pair = _reference_recon_tables(problem)
    assert (tab.db, tab.den, tab.dp, tab.pair) == (db, den, dp, pair)
    accepted = 0
    for e1, picks in _tuples(problem):
        z = (*e1, *sum(picks, ()))
        assert tab.outputs(z) == _expected_outputs(problem, z)
        got = reconstruct(problem, e1, picks)
        _assert_same(got, reference_reconstruct(problem, e1, picks))
        accepted += got is not None
    assert tab.map.width == 64
    if name == "db = 6":
        assert db == 6 and accepted == 72


def test_cleared_inverse_is_the_reduced_integer_inverse():
    """(d, d A^-1) checked in integers, apart from the elimination that
    computes it: (0, ()) exactly when the Leibniz determinant is 0, and
    otherwise A (d A^-1) = d I with d > 0 and gcd(d, d A^-1) = 1."""
    rng = random.Random(5)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) * rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        d, inv = _cleared_inverse(rows)
        if leibniz_det(rows) == 0:
            assert (d, inv) == (0, ())
            singular += 1
            continue
        assert d > 0 and gcd(d, *chain.from_iterable(inv)) == 1
        product = [[_dot(row, col) for col in zip(*inv)] for row in rows]
        assert product == [[d * (i == j) for j in range(n)] for i in range(n)]
    assert 0 < singular < 300


def _scaled(problem: IsometryProblem, k: int) -> IsometryProblem:
    """The problem with target k^2 B': its solutions are k times those of
    problem, and reconstruct maps them to k M."""
    return IsometryProblem(problem.source, GramForm(k * k * problem.target.gram), problem.w, problem.probes)


@pytest.mark.parametrize("sign", [1, -1])
def test_rank1_rows_at_the_64_bit_edge(sign):
    # n = 1, B = [1], w = 1: z = (s,) and the numerator slot is s itself,
    # so s = +-(2^63 - 1) is the largest value the 64-bit slots decode.
    for s, width in ((2**63 - 1, 64), (2**63, 72), (2**70 + 1, 72)):
        problem = _problem([[1]], [[s * s]], [1])
        assert problem._recon_tables.map.colmax == [1]
        e1 = (sign * s,)
        got = reconstruct(problem, e1, ())
        assert got.num == ((sign * s,),) and got.den == 1
        _assert_same(got, reference_reconstruct(problem, e1, ()))
        assert problem._recon_tables.map.width == width
        assert reconstruct(problem, (sign * (s - 1),), ()) is None


def test_scaled_tuples_take_the_wide_path():
    # Wilson's accepted tuples scaled by k: at the largest k whose bound
    # sum_c |z_c| colmax[c] stays below 2^63 for every tuple the 64-bit
    # slots still decode; one more, and k near 2^70, need wider slots.
    base = _problem(Mat.identity(4).rows, WILSON.rows, [1, 0, 0, 0])
    tuples = [(e1, picks) for e1, picks in _tuples(base)][:24]
    zs = [(*e1, *sum(picks, ())) for e1, picks in tuples]
    zmax = max(abs(x) for z in zs for x in z)
    colmax = base._recon_tables.map.colmax
    edge = (2**63 - 1) // max(_dot(map(abs, z), colmax) for z in zs)
    for k, wide in ((edge, False), (edge + 1, True), (2**70 // zmax + 3, True)):
        problem = _scaled(base, k)
        for e1, picks in tuples:
            e1k = tuple(k * x for x in e1)
            picksk = tuple(tuple(k * x for x in pick) for pick in picks)
            got = reconstruct(problem, e1k, picksk)
            want = reconstruct(base, e1, picks)
            assert got.num == tuple(tuple(k * x for x in row) for row in want.num)
            _assert_same(got, reference_reconstruct(problem, e1k, picksk))
        assert (problem._recon_tables.map.width > 64) == wide


def test_synthetic_rows_decode_exactly():
    # Rows with entries near +-(2^63 - 1) and 2^70, on the db = 6 problem
    # and on Wilson; every slot must equal its formula.
    wilson = _problem(Mat.identity(4).rows, WILSON.rows, [1, 0, 0, 0])
    rng = random.Random(3)
    for problem in (CASES[-1][1](), wilson):
        n = problem.dim
        tab = problem._recon_tables
        for big in (2**63 - 1, 2**70):
            for _ in range(20):
                z = tuple(rng.choice((big, -big, big - rng.randint(0, 9), 0, 1)) for _ in range(n * n))
                assert tab.outputs(z) == _expected_outputs(problem, z)
                e1, picks = z[:n], tuple(z[i : i + n] for i in range(n, n * n, n))
                _assert_same(reconstruct(problem, e1, picks), reference_reconstruct(problem, e1, picks))
        assert tab.map.width > 64


def test_perturbed_numerator_is_rejected():
    # Adding 1 to the packed coefficient of one coordinate z_c in one
    # numerator slot changes that numerator entry by z_c != 0; the exact
    # check num^T B num = den^2 B' must then reject the tuple.
    problem = _problem(Mat.identity(4).rows, WILSON.rows, [1, 0, 0, 0])
    tab = problem._recon_tables
    checked = 0
    for e1, picks in _tuples(problem):
        z = (*e1, *sum(picks, ()))
        assert reconstruct(problem, e1, picks) is not None
        c = next(i for i, x in enumerate(z) if x)
        for slot in range(16):
            packed = tab.map.packed
            saved = packed[c]
            packed[c] = saved + (1 << (slot * tab.map.width))
            try:
                assert reconstruct(problem, e1, picks) is None
            finally:
                packed[c] = saved
            checked += 1
    assert checked == 384 * 16


def _seeded_problem(n: int, probes: str, rng: random.Random) -> IsometryProblem:
    """A problem on a random positive definite B and a random
    nondegenerate B' of dimension n, with the default probes or with
    random ones that make P = (w | z0_1 ...) non-unimodular (db != 1);
    for n = 1, P = (w) with |w| > 1."""
    while True:
        gram = rand_pd_gram(rng, n, bound=2)
        w = [rng.randint(-3, 3) for _ in range(n)]
        if n == 1 and probes != "default":
            w = [rng.choice((-3, -2, 2, 3))]
        if not any(w):
            continue
        chosen = None
        if probes != "default":
            chosen = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n - 1)]
            if abs(leibniz_det([w, *chosen])) < 2:
                continue
        problem = IsometryProblem(GramForm(gram), GramForm(rand_sym_nondegenerate(rng, n, 3)), Vec(w), chosen)
        if probes == "default" or problem._recon_tables.db != 1:
            return problem


@pytest.mark.parametrize("probes", ["default", "non-unimodular"])
@pytest.mark.parametrize("n", range(1, 7))
def test_kronecker_map_equals_the_plain_products(n, probes):
    # For random integer z the packed map gives the plain E Z A, kernel
    # and t-values of _expected_outputs, built from
    # helpers._reference_recon_tables.  Its columns are those values at
    # the unit vectors z = e_c, and packed from them one coefficient at a
    # time they give the same big integers, colmax and width.  One z near
    # 2^70 then forces the map past 64-bit slots, and the repacked map
    # still agrees.
    rng = random.Random(41 * n + len(probes))
    problem = _seeded_problem(n, probes, rng)
    tab = _ReconTables(problem)
    assert tab.db != 1 or probes == "default"
    n2 = n * n
    columns = [_expected_outputs(problem, tuple(int(i == c) for i in range(n2))) for c in range(n2)]
    plain = _SlotMap(columns)
    plain._pack(64)
    assert (tab.map.nslots, tab.map.colmax, tab.map.width) == (plain.nslots, plain.colmax, 64)
    assert tab.map.packed == plain.packed
    for bound in (1, 9, 1000):
        for _ in range(30):
            z = tuple(rng.randint(-bound, bound) for _ in range(n2))
            assert tab.outputs(z) == _expected_outputs(problem, z)
    assert tab.map.width == 64
    big = tuple(rng.choice((1, -1)) * (2**70 + rng.randint(0, 99)) for _ in range(n2))
    assert tab.outputs(big) == _expected_outputs(problem, big)
    assert tab.map.width > 64
    plain._pack(tab.map.width)
    assert tab.map.packed == plain.packed
    z = tuple(rng.randint(-9, 9) for _ in range(n2))
    assert tab.outputs(z) == _expected_outputs(problem, z)
