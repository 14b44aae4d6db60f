"""Tests for the isometry search pipeline, its certificates and oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superlat.diophantine import PosDefForm
from superlat.errors import (
    BadFamilyParams,
    DegenerateProbe,
    DimensionMismatch,
    InvalidProblem,
    IsotropicAnchor,
    NotPositiveDefinite,
)
from superlat.forms import (
    GramForm,
    ortho_complement_basis,
    outer,
    polarized_pullback,
    pullback,
)
from superlat.grading import GradedContext, full_decomposition
from superlat.isometry import (
    IsometryProblem,
    brute_force_isometries,
    family_obstruction,
    filter_eq2,
    find_isometries,
    rank2_family_forms,
    rank3_family_forms,
    solve_eq1,
    solve_eq3_per_z0,
    verify_certificate,
)
from superlat.linalg import Mat, Vec

from helpers import (
    _ambient,
    negated_candidate,
    cartesian_brute_force_isometries,
    EVEN24_B,
    EVEN24_BPRIME,
    EVEN24_RATIONAL_SOLUTIONS,
    WILSON,
    WILSON_FACTOR,
    rand_anchor,
    rand_pd_gram,
    rand_pullback_problem,
    rand_sym_nondegenerate,
    rand_unimodular,
    signed_permutations,
)


def wilson_problem() -> IsometryProblem:
    return IsometryProblem(
        GramForm(Mat.identity(4)), GramForm(WILSON), Vec([1, 0, 0, 0])
    )


def even24_problem() -> IsometryProblem:
    return IsometryProblem(
        GramForm(EVEN24_B), GramForm(EVEN24_BPRIME), Vec([1, 0, 0, 0])
    )


def decomposition_tuple(source: GramForm, w: Vec, phi: Mat):
    """The scaled integer data (s, btilde, atilde, t_i, c_i) of phi."""
    ctx = GradedContext(source, w)
    dec = full_decomposition(ctx, phi)
    nsq = ctx.wnorm * ctx.wnorm
    s = source.evaluate(w, phi @ w)
    btilde = nsq * dec.b
    atilde = nsq * dec.a
    phi0_scaled = nsq * dec.phi0
    return ctx, s, btilde, atilde, phi0_scaled


class TestPinnedProblems:
    def test_rank2_pair_is_obstructed_at_eq1(self):
        problem = IsometryProblem(
            GramForm(Mat.diagonal([1, 5])),
            GramForm(Mat([[2, 1], [1, 3]])),
            Vec([1, 0]),
        )
        assert solve_eq1(problem) == ()
        result = find_isometries(problem)
        assert result.certificate.verdict == "ObstructionEq1"
        assert result.candidates == []
        assert verify_certificate(result.certificate, problem)

    def test_even24_stage_counts(self):
        result = find_isometries(even24_problem())
        stats = result.stats
        assert stats.eq1_raw == 20
        assert stats.eq1_canonical == 10
        assert stats.joint_raw == 224
        assert stats.joint_canonical == 112
        assert stats.candidates == 224
        assert stats.integral == 0
        assert result.certificate.verdict == "NoIntegralIsometry"

    def test_even24_candidates_are_distinct_exact_solutions(self):
        result = find_isometries(even24_problem())
        mats = [c.matrix for c in result.candidates]
        assert len(set(mats)) == len(mats) == 224
        for m in mats:
            assert m.transpose() @ EVEN24_B @ m == EVEN24_BPRIME
        assert not any(c.integral for c in result.candidates)

    def test_even24_candidates_include_known_rational_solutions(self):
        mats = {c.matrix for c in find_isometries(even24_problem()).candidates}
        for m in EVEN24_RATIONAL_SOLUTIONS:
            assert m.transpose() @ EVEN24_B @ m == EVEN24_BPRIME
            assert m in mats

    def test_even24_brute_force_confirms_no_integral_solution(self):
        assert brute_force_isometries(
            GramForm(EVEN24_B), GramForm(EVEN24_BPRIME)
        ) == []

    def test_wilson_factorization_complete(self):
        result = find_isometries(wilson_problem())
        assert result.certificate.verdict == "IsometricWitness"
        assert result.stats.eq1_raw == 48
        assert result.stats.eq1_canonical == 24
        integral = [c.matrix for c in result.candidates if c.integral]
        assert len(integral) == len(set(integral)) == 384
        # The full solution set is the orbit of one factor under the
        # automorphisms of the standard lattice: exactly the 384 products
        # U @ WILSON_FACTOR with U a signed permutation.
        orbit = {u @ WILSON_FACTOR for u in signed_permutations(4)}
        assert set(integral) == orbit
        finv = WILSON_FACTOR.inverse()
        for m in integral[:32]:
            u = m @ finv
            assert u.is_integral()
            assert u.transpose() @ u == Mat.identity(4)

    def test_wilson_first_witness_mode(self):
        result = find_isometries(wilson_problem(), all_solutions=False)
        assert result.certificate.verdict == "IsometricWitness"
        assert len(result.candidates) == 1
        witness = result.certificate.witness
        assert witness is result.candidates[0]
        assert witness.integral
        m = witness.matrix
        assert m.transpose() @ m == WILSON
        assert verify_certificate(result.certificate, wilson_problem())

    def test_identity_problem_recovers_identity(self):
        form = GramForm(EVEN24_B)
        result = find_isometries(IsometryProblem(form, form, Vec([1, 0, 0, 0])))
        assert result.certificate.verdict == "IsometricWitness"
        integral = {c.matrix for c in result.candidates if c.integral}
        assert Mat.identity(4) in integral
        # Set equality with the brute-force automorphism group.
        assert integral == set(brute_force_isometries(form, form))


class TestOptionsAndDeterminism:
    def test_integral_only_filters_output_not_stats(self):
        result = find_isometries(even24_problem(), integral_only=True)
        assert result.candidates == []
        assert result.stats.candidates == 224

    def test_candidates_sorted_by_provenance(self):
        # even24 has dp = 12 and non-integral atilde; the A3 problem has
        # db = 3, so its slot outputs end in residue slots after the
        # provenance slots.  btilde, atilde and every c_i lie in w^perp,
        # and the list holds each candidate's negation.
        a3 = GramForm(Mat([[2, 1, 0], [1, 2, 1], [0, 1, 2]]))
        for problem, total in [(even24_problem(), 224), (IsometryProblem(a3, a3, Vec([2, 1, 3])), 280)]:
            cands = find_isometries(problem).candidates
            provs = [c.provenance for c in cands]
            assert len(cands) == total and provs == sorted(provs)
            listed = set(cands)
            for c in cands:
                s, btilde, atilde, cs = c.provenance
                assert all(problem.source.evaluate(Vec(v), problem.w) == 0 for v in (btilde, atilde, *cs))
                negated = tuple(tuple(-x for x in v) for v in (btilde, atilde, *cs))
                neg = negated_candidate(c)
                assert neg in listed and neg.provenance == (-s, *negated[:2], negated[2:])

    def test_determinant_mismatch_short_circuits(self):
        problem = IsometryProblem(
            GramForm(Mat.identity(2)),
            GramForm(Mat.diagonal([1, 2])),
            Vec([1, 0]),
        )
        result = find_isometries(problem)
        assert result.certificate.verdict == "ObstructionDeterminant"
        assert result.candidates == []
        assert verify_certificate(result.certificate, problem)


class TestProblemValidation:
    def test_rejects_isotropic_anchor(self):
        hyperbolic = GramForm(Mat([[0, 1], [1, 0]]))
        with pytest.raises(IsotropicAnchor):
            IsometryProblem(hyperbolic, hyperbolic, Vec([1, 0]))

    def test_rejects_non_integer_anchor(self):
        form = GramForm(Mat.identity(2))
        with pytest.raises(InvalidProblem):
            IsometryProblem(form, form, Vec([Fraction(1, 2), 0]))

    def test_rejects_wrong_probe_count(self):
        form = GramForm(Mat.identity(3))
        with pytest.raises(InvalidProblem):
            IsometryProblem(form, form, Vec([1, 0, 0]), probes=[Vec([0, 1, 0])])

    def test_rejects_dependent_probes(self):
        form = GramForm(Mat.identity(3))
        with pytest.raises(DegenerateProbe):
            IsometryProblem(
                form,
                form,
                Vec([1, 0, 0]),
                probes=[Vec([0, 1, 0]), Vec([0, 2, 0])],
            )

    def test_rejects_probe_on_anchor_line(self):
        form = GramForm(Mat.identity(2))
        with pytest.raises(DegenerateProbe):
            IsometryProblem(form, form, Vec([1, 0]), probes=[Vec([2, 0])])

    def test_default_probes_complete_anchor_to_basis(self):
        form = GramForm(Mat.identity(3))
        problem = IsometryProblem(form, form, Vec([1, 2, 1]))
        assert problem.probes == [Vec([1, 0, 0]), Vec([0, 0, 1])]

    def test_eq3_rejects_probe_of_wrong_length(self):
        # zip over integer rows would truncate such a probe silently.
        problem = wilson_problem()
        for z0 in (Vec([0, 1, 0]), Vec([0, 1, 0, 0, 0])):
            with pytest.raises(DimensionMismatch):
                solve_eq3_per_z0(problem, z0)

    def test_indefinite_search_is_unsupported(self):
        form = GramForm(Mat.diagonal([1, -1]))
        problem = IsometryProblem(form, form, Vec([1, 0]))
        with pytest.raises(NotPositiveDefinite):
            find_isometries(problem)


class TestNecessity:
    """Every genuine isometry's decomposition data solves the equations."""

    def test_pullback_problems_recover_the_isometry(self):
        rng = random.Random(7)
        for trial in range(25):
            gram, target, w, phi = rand_pullback_problem(rng)
            source = GramForm(gram)
            problem = IsometryProblem(source, GramForm(target), w)
            result = find_isometries(problem)
            integral = [c.matrix for c in result.candidates if c.integral]
            assert result.certificate.verdict == "IsometricWitness"
            assert phi in integral

    def test_decomposition_data_satisfies_all_three_equations(self):
        rng = random.Random(19)
        for trial in range(25):
            gram, target, w, phi = rand_pullback_problem(rng)
            source = GramForm(gram)
            problem = IsometryProblem(source, GramForm(target), w)
            ctx, s, btilde, atilde, phi0s = decomposition_tuple(source, w, phi)
            nint = problem.wnorm

            assert btilde.is_integral()
            assert source.evaluate(w, btilde) == 0
            # eq1
            assert (
                problem.eq1_target
                == nint * s * s + source.norm(btilde)
            )
            for i, z0 in enumerate(problem.probes):
                t = source.evaluate(atilde, z0)
                c = phi0s @ z0
                assert t.denominator == 1
                assert c.is_integral()
                # eq3 (diagonal) and eq2
                assert problem.pair_targets[i + 1][i + 1] == source.norm(c) + nint * t * t
                assert problem.eq2_targets[i] == nint * s * t + source.evaluate(
                    btilde, c
                )
                # the pair appears in the enumerated per-probe solutions
                sols = solve_eq3_per_z0(problem, z0)
                assert any(
                    e[0] == t and Vec(_ambient(problem, (0, *e[1:]))) == c
                    for e in sols
                )
            # and the eq1 pair appears in the eq1 enumeration
            assert any(
                e[0] == s and Vec(_ambient(problem, (0, *e[1:]))) == btilde
                for e in solve_eq1(problem)
            )

    def test_surviving_tuple_of_genuine_isometry_passes_filter(self):
        rng = random.Random(23)
        gram, target, w, phi = rand_pullback_problem(rng, sizes=(3,))
        source = GramForm(gram)
        problem = IsometryProblem(source, GramForm(target), w)
        ctx, s, btilde, atilde, phi0s = decomposition_tuple(source, w, phi)
        e1 = next(
            e
            for e in solve_eq1(problem)
            if e[0] == s and Vec(_ambient(problem, (0, *e[1:]))) == btilde
        )
        per_probe = [solve_eq3_per_z0(problem, z0) for z0 in problem.probes]
        filtered = filter_eq2(problem, e1, per_probe)
        for i, z0 in enumerate(problem.probes):
            t = source.evaluate(atilde, z0)
            c = phi0s @ z0
            assert any(
                e[0] == t and Vec(_ambient(problem, (0, *e[1:]))) == c
                for e in filtered[i]
            )

    def test_filter_removes_incompatible_tuple(self):
        # With btilde = 0 and t = 0 the second equation forces
        # B'(w, zhat) = 0; on a problem where that pairing is nonzero the
        # filter must drop the pair.
        problem = wilson_problem()
        k = len(problem.kernel_gram)
        zero_e1 = (0,) * (k + 1)
        zero_e3 = ((0,) * (k + 1),)
        filtered = filter_eq2(problem, zero_e1, [zero_e3] * len(problem.probes))
        assert all(problem.eq2_targets[i] != 0 for i in range(3))
        assert filtered == [[], [], []]


class TestCompleteness:
    def test_matches_brute_force_on_random_problems(self):
        rng = random.Random(101)
        checked = 0
        while checked < 20:
            gram, target, w, phi = rand_pullback_problem(rng)
            source = GramForm(gram)
            problem = IsometryProblem(source, GramForm(target), w)
            found = {
                c.matrix for c in find_isometries(problem).candidates if c.integral
            }
            oracle = set(brute_force_isometries(source, GramForm(target)))
            assert phi in found
            assert found == oracle
            checked += 1

    def test_matches_brute_force_on_unrelated_forms(self):
        rng = random.Random(55)
        checked = 0
        while checked < 12:
            n = 2
            a = rand_pd_gram(rng, n, bound=2)
            b = rand_pd_gram(rng, n, bound=2)
            source, target = GramForm(a), GramForm(b)
            if source.det != target.det:
                continue
            w = rand_anchor(rng, a, bound=1)
            problem = IsometryProblem(source, target, w)
            try:
                found = {
                    c.matrix
                    for c in find_isometries(problem).candidates
                    if c.integral
                }
            except NotPositiveDefinite:
                continue
            assert found == set(brute_force_isometries(source, target))
            checked += 1

    def test_brute_force_modes_agree(self):
        i2 = GramForm(Mat.identity(2))
        back = brute_force_isometries(i2, i2)
        cart = cartesian_brute_force_isometries(i2, i2)
        assert len(back) == 8
        assert set(back) == set(cart) == set(signed_permutations(2))


class TestFamilies:
    def test_cubic_family_obstruction(self):
        cert = family_obstruction("three_squares_rank3", m=3)
        assert cert.verdict == "ObstructionThreeSquares"
        assert cert.detail["reduced"] == 4 * 27 + 3 + 1 == 112
        assert cert.detail["constant"] == 16 * 81 * 112
        assert verify_certificate(cert, None)

    def test_cubic_family_inconclusive_member(self):
        cert = family_obstruction("three_squares_rank3", m=1)
        assert cert.verdict == "Inconclusive"
        assert cert.detail["reduced"] == 6
        assert verify_certificate(cert, None)

    def test_cubic_family_off_diagonal_member(self):
        cert = family_obstruction(
            "three_squares_rank3", m=3, alpha=60, beta=6, gamma=6
        )
        assert cert.verdict == "ObstructionThreeSquares"
        assert cert.detail["reduced"] == 60 + 12 + 6 + 1 == 79
        assert 79 % 8 == 7

    def test_rank2_family_obstruction(self):
        cert = family_obstruction(
            "two_squares_rank2", m=3, n=1, alpha=3, beta=3, gamma=6
        )
        assert cert.verdict == "ObstructionTwoSquares"
        assert cert.detail["constant"] == 3 * 81
        assert verify_certificate(cert, None)

    def test_rank2_family_inconclusive_member(self):
        cert = family_obstruction(
            "two_squares_rank2", m=1, n=2, alpha=2, beta=0, gamma=2
        )
        assert cert.verdict == "Inconclusive"
        assert cert.detail["constant"] == 2

    def test_family_constants_follow_the_closed_forms(self):
        # The constant is the eq1 target of the family's forms; it must
        # equal alpha m^4 (rank 2) and 16 m^4 reduced (rank 3), with
        # reduced = alpha + 2 beta + gamma + 1.
        for m in [*range(-3, 0), *range(1, 30)]:
            detail = family_obstruction("three_squares_rank3", m=m).detail
            assert (detail["alpha"], detail["beta"], detail["gamma"]) == (4 * m**3, 0, m)
            assert detail["reduced"] == 4 * m**3 + m + 1
            assert detail["constant"] == 16 * m**4 * detail["reduced"]
        for m, alpha, beta, gamma in [(1, 8, -2, 1), (3, 60, 6, 6), (3, 18, 0, 18)]:
            abg = {"alpha": alpha, "beta": beta, "gamma": gamma}
            reduced = alpha + 2 * beta + gamma + 1
            assert family_obstruction("three_squares_rank3", m=m, **abg).detail == {
                "kind": "three_squares_rank3", "m": m, **abg,
                "constant": 16 * m**4 * reduced, "reduced": reduced, "squares": 3,
            }
        for m, n, alpha, beta, gamma in [
            (3, 1, 3, 3, 6), (1, 2, 2, 0, 2), (2, 3, 4, 2, 10), (1, 2, 5, 1, 1), (-2, 1, 2, 0, 2),
        ]:
            params = {"m": m, "n": n, "alpha": alpha, "beta": beta, "gamma": gamma}
            assert family_obstruction("two_squares_rank2", **params).detail == {
                "kind": "two_squares_rank2", **params, "constant": alpha * m**4, "squares": 2,
            }

    def test_family_parameter_validation(self):
        with pytest.raises(BadFamilyParams):
            family_obstruction("two_squares_rank2", m=1, n=1, alpha=2, beta=0, gamma=2)
        with pytest.raises(BadFamilyParams):
            family_obstruction("three_squares_rank3", m=2, alpha=3, beta=1, gamma=5)
        with pytest.raises(BadFamilyParams):
            family_obstruction("three_squares_rank3", m=0)
        with pytest.raises(BadFamilyParams):
            family_obstruction("unknown_family", m=1)

    def test_family_obstruction_implies_empty_eq1(self):
        # The families' Diophantine obstruction and the generic pipeline
        # must agree on instantiated members.
        source, target, w = rank3_family_forms(3)
        result = find_isometries(IsometryProblem(source, target, w))
        assert result.certificate.verdict == "ObstructionEq1"

        source, target, w = rank2_family_forms(3, 1, 3, 3, 6)
        result = find_isometries(IsometryProblem(source, target, w))
        assert result.certificate.verdict == "ObstructionEq1"

    def test_family_forms_satisfy_relations(self):
        source, target, w = rank3_family_forms(2)
        assert source.det == target.det
        assert all(p > 0 for p in PosDefForm(source.gram).ldl.pivots)
        source, target, w = rank2_family_forms(2, 3, 4, 2, 10)
        assert source.det == target.det == 36


class TestCertificates:
    def test_tampered_witness_fails(self):
        result = find_isometries(wilson_problem(), all_solutions=False)
        cert = result.certificate
        witness = cert.witness
        rows = [list(r) for r in witness.num]
        rows[0][0] += 1
        from superlat.isometry import CandidateIsometry, Certificate

        bad = Certificate(
            "IsometricWitness",
            witness=CandidateIsometry(rows, witness.den, witness._prov, witness._dp),
        )
        assert not verify_certificate(bad, wilson_problem())

    def test_witness_must_be_a_square_unimodular_isometry(self):
        # 2I pulls B' = 4I back to B = I but has determinant 4; the
        # non-square witnesses are read in integers row by row.
        from superlat.isometry import CandidateIsometry, Certificate

        problem = IsometryProblem(GramForm(Mat.identity(2)), GramForm(Mat([[4, 0], [0, 4]])), Vec([1, 0]))
        for rows in ([[2, 0], [0, 2]], [[2, 0]], [[2, 0, 0], [0, 2, 0]], [[2]]):
            witness = Certificate("IsometricWitness", witness=CandidateIsometry(rows, 1))
            assert not verify_certificate(witness, problem)
        problem = IsometryProblem(GramForm(Mat.identity(2)), GramForm(Mat([[1, 1], [1, 2]])), Vec([1, 0]))
        witness = Certificate("IsometricWitness", witness=CandidateIsometry([[1, 1], [0, 1]], 1))
        assert verify_certificate(witness, problem)

    def test_no_integral_certificate_verifies(self):
        result = find_isometries(even24_problem())
        assert verify_certificate(result.certificate, even24_problem())

    def test_corrupted_no_integral_certificate_fails(self):
        from superlat.isometry import Certificate

        bad = Certificate(
            "NoIntegralIsometry", detail={"candidates": [[["1", "0"], ["0", "1"]]]}
        )
        problem = IsometryProblem(
            GramForm(Mat.identity(2)),
            GramForm(Mat([[1, 1], [1, 2]])),
            Vec([1, 0]),
        )
        assert not verify_certificate(bad, problem)

    def test_squares_certificates_verify_without_problem(self):
        for cert in (
            family_obstruction("three_squares_rank3", m=3),
            family_obstruction("three_squares_rank3", m=1),
            family_obstruction("two_squares_rank2", m=3, n=1, alpha=3, beta=3, gamma=6),
        ):
            assert verify_certificate(cert, None)

    def test_mislabelled_squares_certificate_fails(self):
        cert = family_obstruction("three_squares_rank3", m=1)
        from superlat.isometry import Certificate

        flipped = Certificate("ObstructionThreeSquares", detail=cert.detail)
        assert not verify_certificate(flipped, None)


class TestDecompositionIdentities:
    """The pullback form identities behind the integer equations."""

    def test_pullback_expands_into_six_component_terms(self):
        # B_phi splits into the four component pullbacks plus exactly two
        # surviving mixed terms;  all other mixed pullbacks vanish.
        rng = random.Random(3)
        for trial in range(40):
            n = rng.choice([2, 3, 4])
            gram, w = rand_sym_anchor_pair(rng, n)
            form = GramForm(gram)
            ctx = GradedContext(form, w)
            phi = rand_unimodular(rng, n)
            dec = full_decomposition(ctx, phi)
            nrm = ctx.wnorm
            phi_ww = outer(form, w, w)
            phi_wa = outer(form, w, dec.a)
            phi_bw = outer(form, dec.b, w)
            total = (
                pullback(form, dec.phi0).gram
                + (dec.wt**2 / nrm**2) * pullback(form, phi_ww).gram
                + pullback(form, phi_wa).gram
                + pullback(form, phi_bw).gram
                + 2 * polarized_pullback(form, dec.phi0, phi_bw).gram
                + 2 * (dec.wt / nrm) * polarized_pullback(form, phi_ww, phi_wa).gram
            )
            assert pullback(form, phi).gram == total
            # the vanishing mixed terms
            zero = Mat.zero(n)
            assert polarized_pullback(form, dec.phi0, phi_ww).gram == zero
            assert polarized_pullback(form, dec.phi0, phi_wa).gram == zero
            assert polarized_pullback(form, phi_ww, phi_bw).gram == zero
            assert polarized_pullback(form, phi_wa, phi_bw).gram == zero

    def test_three_probe_equations_hold_for_random_isometries(self):
        rng = random.Random(11)
        for trial in range(40):
            n = rng.choice([2, 3, 4])
            gram = rand_pd_gram(rng, n, bound=2)
            form = GramForm(gram)
            w = rand_anchor(rng, gram, bound=2)
            phi = rand_unimodular(rng, n)
            target = pullback(form, phi)
            ctx = GradedContext(form, w)
            dec = full_decomposition(ctx, phi)
            nrm = ctx.wnorm
            perp = ortho_complement_basis(form, w)
            # first equation: phi(w) = wt w + B(w,w) b
            assert target.norm(w) == dec.wt**2 * nrm + nrm**2 * form.norm(dec.b)
            for z1 in perp:
                # second equation
                assert target.evaluate(w, z1) == nrm * (
                    dec.wt * form.evaluate(dec.a, z1)
                    + form.evaluate(dec.b, dec.phi0 @ z1)
                )
                for z2 in perp:
                    # third equation, polarized over probe pairs
                    assert target.evaluate(z1, z2) == form.evaluate(
                        dec.phi0 @ z1, dec.phi0 @ z2
                    ) + form.evaluate(dec.a, z1) * form.evaluate(dec.a, z2) * nrm


def rand_sym_anchor_pair(rng, n):
    while True:
        gram = rand_sym_nondegenerate(rng, n, bound=3)
        w = Vec([rng.randint(-2, 2) for _ in range(n)])
        if not w.is_zero() and (gram @ w).dot(w) != 0:
            return gram, w


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**20))
def test_random_unimodular_pullbacks_always_witness(seed):
    rng = random.Random(seed)
    gram, target, w, phi = rand_pullback_problem(rng, sizes=(2, 3))
    result = find_isometries(
        IsometryProblem(GramForm(gram), GramForm(target), w),
        all_solutions=False,
    )
    assert result.certificate.verdict == "IsometricWitness"
    m = result.certificate.witness.matrix
    assert m.transpose() @ gram @ m == target
