"""Acceptance gate: one test per release criterion, each printing a
single [PASS]/[FAIL] line.  Every check is exact rational arithmetic;
there are no tolerances anywhere in this file.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import factorial, isqrt

from superlat.diophantine import (
    PosDefForm,
    three_squares_representable,
    two_squares_representable,
    vectors_of_norm,
)
from superlat.forms import (
    GramForm,
    adjoint,
    ortho_complement_basis,
    outer,
    polarized_pullback,
    pullback,
    trace_form,
)
from superlat.grading import (
    GradedContext,
    conjugate_transport,
    even_basis,
    full_decomposition,
    is_even,
    is_odd,
    odd_basis,
    split,
    weight,
)
from superlat.isometry import (
    IsometryProblem,
    brute_force_isometries,
    family_obstruction,
    find_isometries,
    solve_eq1,
)
from superlat.linalg import Mat, Vec

from helpers import (
    EVEN24_B,
    EVEN24_BPRIME,
    EVEN24_RATIONAL_SOLUTIONS,
    WILSON,
    WILSON_FACTOR,
    naive_box_norm_solutions,
    naive_box_volume,
    rand_anchor,
    rand_invertible,
    rand_matrix,
    rand_pd_gram,
    rand_pullback_problem,
    rand_sym_nondegenerate,
    rank,
)


def _report(name: str, failures: list[str], ok_detail: str = "") -> None:
    if failures:
        line = f"[FAIL] {name}: " + "; ".join(failures)
    else:
        line = f"[PASS] {name}" + (f": {ok_detail}" if ok_detail else "")
    print(line)
    assert not failures, line


def _ctx(rng: random.Random, n: int) -> GradedContext:
    form = GramForm(rand_sym_nondegenerate(rng, n))
    return GradedContext(form, rand_anchor(rng, form.gram))


def _rand_perp(rng: random.Random, ctx: GradedContext) -> Vec:
    v = Vec.zero(ctx.dim)
    for z in ctx.perp_basis:
        v = v + Fraction(rng.randint(-2, 2), rng.randint(1, 2)) * z
    return v


def _rand_even(rng: random.Random, ctx: GradedContext) -> Mat:
    phi = Mat.zero(ctx.dim)
    for m in even_basis(ctx):
        phi = phi + Fraction(rng.randint(-2, 2), rng.randint(1, 2)) * m
    return phi


def _sign_canonical(m: Mat) -> Mat:
    for row in m.rows:
        for x in row:
            if x:
                return m if x > 0 else -m
    return m


def test_complete_unimodular_factorization():
    problem = IsometryProblem(
        GramForm(Mat.identity(4)), GramForm(WILSON), Vec([1, 0, 0, 0])
    )
    start = time.perf_counter()
    result = find_isometries(problem, all_solutions=True)
    elapsed = time.perf_counter() - start
    integral = [c.matrix for c in result.candidates if c.integral]
    eye = Mat.identity(4)
    factor_inv = WILSON_FACTOR.inverse()

    failures = []
    if result.stats.eq1_canonical != 24:
        failures.append(f"eq1 canonical count {result.stats.eq1_canonical} != 24")
    bad_product = [m for m in integral if m.transpose() @ m != WILSON]
    if bad_product:
        failures.append(f"{len(bad_product)} outputs fail M^T M = W")
    bad_orbit = []
    for m in integral:
        u = m @ factor_inv
        if not (u.is_integral() and u.transpose() @ u == eye):
            bad_orbit.append(m)
    if bad_orbit:
        failures.append(f"{len(bad_orbit)} outputs are not U*M0 with U integral orthogonal")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds the 10s bound")

    # The solutions form the torsor O(Z^4)*F, so the complete set has
    # |O(Z^4)| = 2^4 * 4! = 384 elements.  det F = 1 and half of the signed
    # permutations have det +1, so 192 factors have det +1; in dimension 4,
    # M and -M share a determinant, so those 192 fall into the pinned 96
    # classes up to global sign.
    complete = 2**4 * factorial(4)
    det_plus = [m for m in integral if m.determinant() == 1]
    det_plus_classes = {_sign_canonical(m) for m in det_plus}
    expected = "expected 384 factors = 192 of det +1 = 96 det +1 sign classes"
    if len(set(integral)) != len(integral):
        failures.append(
            f"{len(integral) - len(set(integral))} duplicate factors in the output"
        )
    if len(integral) != complete:
        failures.append(f"{len(integral)} integral factors ({expected})")
    if len(det_plus) != complete // 2:
        failures.append(f"{len(det_plus)} det +1 factors ({expected})")
    if len(det_plus_classes) != 96:
        failures.append(f"{len(det_plus_classes)} det +1 sign classes ({expected})")
    _report(
        "complete-unimodular-factorization",
        failures,
        f"24 canonical eq1 solutions, {len(integral)} exact factors "
        f"({len(det_plus)} of det +1, {len(det_plus_classes)} up to sign) "
        f"in {elapsed:.2f}s",
    )


def test_rational_but_not_integral_pair():
    source, target = GramForm(EVEN24_B), GramForm(EVEN24_BPRIME)
    problem = IsometryProblem(source, target, Vec([1, 0, 0, 0]))
    result = find_isometries(problem, all_solutions=True)
    candidates = {c.matrix for c in result.candidates}
    canonical = {_sign_canonical(m) for m in candidates}

    failures = []
    missing = [m for m in EVEN24_RATIONAL_SOLUTIONS if m not in candidates]
    if missing:
        failures.append(f"{len(missing)} of the 8 pinned rational solutions missing")
    missing_canon = [
        m for m in EVEN24_RATIONAL_SOLUTIONS if _sign_canonical(m) not in canonical
    ]
    if missing_canon:
        failures.append(
            f"{len(missing_canon)} pinned solutions missing after sign-canonicalization"
        )
    integral = [c for c in result.candidates if c.integral]
    if integral:
        failures.append(f"{len(integral)} integral candidates, expected none")
    if result.certificate.verdict != "NoIntegralIsometry":
        failures.append(f"verdict {result.certificate.verdict} != NoIntegralIsometry")
    if brute_force_isometries(source, target, bound=4):
        failures.append("brute force with entry bound 4 found an integral isometry")
    _report(
        "rational-but-not-integral-pair",
        failures,
        f"{len(candidates)} exact rational candidates contain all 8 pinned ones, 0 integral",
    )


def test_first_equation_obstruction():
    problem = IsometryProblem(
        GramForm(Mat.diagonal([1, 5])), GramForm(Mat([[2, 1], [1, 3]])), Vec([1, 0])
    )
    result = find_isometries(problem, all_solutions=True)

    failures = []
    sols = solve_eq1(problem)
    if sols:
        failures.append(f"2 = s^2 + 5 t^2 unexpectedly has {len(sols)} solutions")
    if result.certificate.verdict != "ObstructionEq1":
        failures.append(f"verdict {result.certificate.verdict} != ObstructionEq1")
    _report(
        "first-equation-obstruction",
        failures,
        "2 = s^2 + 5 t^2 has no integer solutions; certified ObstructionEq1",
    )


def _is_three_square_excluded(n: int) -> bool:
    while n % 4 == 0:
        n //= 4
    return n % 8 == 7


def test_three_squares_family_obstructions():
    failures = []
    cert = family_obstruction("three_squares_rank3", m=3)
    if cert.verdict != "ObstructionThreeSquares":
        failures.append(f"m=3 verdict {cert.verdict} != ObstructionThreeSquares")
    if cert.detail.get("reduced") != 112:
        failures.append(f"m=3 reduced constant {cert.detail.get('reduced')} != 112")
    elif not _is_three_square_excluded(112):
        failures.append("112 is not of the excluded form 4^a(8b+7)")

    off = family_obstruction("three_squares_rank3", m=3, alpha=60, beta=6, gamma=6)
    if off.verdict != "ObstructionThreeSquares":
        failures.append(f"(60,6,6) verdict {off.verdict} != ObstructionThreeSquares")
    if off.detail.get("reduced") != 79:
        failures.append(f"(60,6,6) reduced constant {off.detail.get('reduced')} != 79")
    elif 79 % 8 != 7:
        failures.append("79 is not 7 mod 8")
    _report(
        "three-squares-family-obstructions",
        failures,
        "m=3 excluded via 112 = 4^2*7; (60,6,6) excluded via 79 = 7 mod 8",
    )


def test_component_dimension_law():
    rng = random.Random(512)
    failures = []
    for n in range(2, 7):
        for _ in range(20):
            ctx = _ctx(rng, n)
            evens, odds = even_basis(ctx), odd_basis(ctx)
            if len(evens) != n * n - 2 * n + 2:
                failures.append(f"n={n}: even size {len(evens)}")
                break
            if len(odds) != 2 * n - 2:
                failures.append(f"n={n}: odd size {len(odds)}")
                break
            stacked = Mat(
                [[x for row in m.rows for x in row] for m in evens + odds]
            )
            if rank(stacked) != n * n:
                failures.append(f"n={n}: basis union is linearly dependent")
                break
    _report(
        "component-dimension-law",
        failures,
        "even n^2-2n+2 and odd 2n-2 with independent union, 20 draws each for n=2..6",
    )


def test_grading_property_suite():
    rng = random.Random(613)
    failures = []
    for n in (2, 3, 4):
        ctx = _ctx(rng, n)
        form, w, nrm = ctx.form, ctx.w, ctx.wnorm
        evens, odds = even_basis(ctx), odd_basis(ctx)
        for x in evens:
            if not all(is_even(ctx, x @ y) for y in evens):
                failures.append(f"n={n}: even*even left the even part")
            if not all(is_odd(ctx, x @ y) and is_odd(ctx, y @ x) for y in odds):
                failures.append(f"n={n}: even*odd left the odd part")
            if any(trace_form(form, x, y) != 0 for y in odds):
                failures.append(f"n={n}: trace form does not separate components")
        for x in odds:
            if not all(is_even(ctx, x @ y) for y in odds):
                failures.append(f"n={n}: odd*odd left the even part")
        if failures:
            break

        for _ in range(50):
            e1, e2 = _rand_even(rng, ctx), _rand_even(rng, ctx)
            a1, b1 = _rand_perp(rng, ctx), _rand_perp(rng, ctx)
            a2, b2 = _rand_perp(rng, ctx), _rand_perp(rng, ctx)
            o1 = outer(form, w, a1) + outer(form, b1, w)
            o2 = outer(form, w, a2) + outer(form, b2, w)
            if not (
                is_even(ctx, e1 @ e2)
                and is_odd(ctx, e1 @ o1)
                and is_odd(ctx, o1 @ e1)
                and is_even(ctx, o1 @ o2)
            ):
                failures.append(f"n={n}: closure failed on random graded elements")
                break
            if weight(ctx, e1 @ e2) != weight(ctx, e1) * weight(ctx, e2):
                failures.append(f"n={n}: weight is not multiplicative")
                break
            if weight(ctx, o1 @ o2) != form.evaluate(a1, b2) * nrm:
                failures.append(f"n={n}: odd*odd weight formula failed")
                break
            phi = rand_matrix(rng, n)
            ev, od = split(ctx, phi)
            if trace_form(form, ev, od) != 0:
                failures.append(f"n={n}: split components not trace-orthogonal")
                break
            if not (is_even(ctx, adjoint(form, ev)) and is_odd(ctx, adjoint(form, od))):
                failures.append(f"n={n}: adjoint does not preserve the grading")
                break
            dec = full_decomposition(ctx, phi)
            dag = full_decomposition(ctx, adjoint(form, phi))
            if (dag.a, dag.b) != (dec.b, dec.a):
                failures.append(f"n={n}: adjoint does not swap the odd vectors")
                break
        if failures:
            break

    if not failures:
        rng2 = random.Random(617)
        for k in range(50):
            n = (2, 3, 4)[k % 3]
            ctx = _ctx(rng2, n)
            phi = rand_invertible(rng2, n)
            for m in even_basis(ctx):
                nctx, moved = conjugate_transport(ctx, phi, m)
                if not is_even(nctx, moved):
                    failures.append("transport broke evenness")
                    break
            for m in odd_basis(ctx):
                nctx, moved = conjugate_transport(ctx, phi, m)
                if not is_odd(nctx, moved):
                    failures.append("transport broke oddness")
                    break
            if failures:
                break
    _report(
        "grading-property-suite",
        failures,
        "closure, trace orthogonality, weights, adjoint swap, transport (n=2..4)",
    )


def test_oracle_equivalence():
    rng = random.Random(714)
    failures = []
    for trial in range(50):
        gram, target, w, phi = rand_pullback_problem(rng)
        source, tform = GramForm(gram), GramForm(target)
        found = {
            c.matrix
            for c in find_isometries(IsometryProblem(source, tform, w)).candidates
            if c.integral
        }
        oracle = set(brute_force_isometries(source, tform))
        if found != oracle:
            failures.append(
                f"trial {trial}: search found {len(found)}, oracle {len(oracle)}"
            )
            break
        if phi not in found:
            failures.append(f"trial {trial}: planted isometry not recovered")
            break
    _report(
        "oracle-equivalence",
        failures,
        "50 random problems: integral search set-equals brute force, plant recovered",
    )


def test_decomposition_identity_suites():
    rng = random.Random(815)
    failures = []
    for trial in range(200):
        n = rng.choice([2, 3, 4])
        ctx = _ctx(rng, n)
        form, w, nrm = ctx.form, ctx.w, ctx.wnorm
        phi = rand_matrix(rng, n)
        dec = full_decomposition(ctx, phi)
        phi_ww = outer(form, w, w)
        phi_wa = outer(form, w, dec.a)
        phi_bw = outer(form, dec.b, w)

        total = (
            polarized_pullback(form, dec.phi0, dec.phi0).gram
            + (dec.wt / nrm) ** 2 * polarized_pullback(form, phi_ww, phi_ww).gram
            + polarized_pullback(form, phi_wa, phi_wa).gram
            + polarized_pullback(form, phi_bw, phi_bw).gram
            + 2 * polarized_pullback(form, dec.phi0, phi_bw).gram
            + 2 * (dec.wt / nrm) * polarized_pullback(form, phi_ww, phi_wa).gram
        )
        if total != pullback(form, phi).gram:
            failures.append(f"trial {trial}: six-term expansion mismatch")
            break
        zero = Mat.zero(n)
        vanishing = (
            polarized_pullback(form, dec.phi0, phi_ww).gram,
            polarized_pullback(form, dec.phi0, phi_wa).gram,
            polarized_pullback(form, phi_ww, phi_bw).gram,
            polarized_pullback(form, phi_wa, phi_bw).gram,
        )
        if any(v != zero for v in vanishing):
            failures.append(f"trial {trial}: a mixed term failed to vanish")
            break

        target = pullback(form, phi)
        perp = ortho_complement_basis(form, w)
        if target.norm(w) != dec.wt**2 * nrm + nrm**2 * form.norm(dec.b):
            failures.append(f"trial {trial}: anchor-norm equation failed")
            break
        eq2_bad = any(
            target.evaluate(w, z)
            != nrm * (dec.wt * form.evaluate(dec.a, z) + form.evaluate(dec.b, dec.phi0 @ z))
            for z in perp
        )
        eq3_bad = any(
            target.evaluate(z1, z2)
            != form.evaluate(dec.phi0 @ z1, dec.phi0 @ z2)
            + form.evaluate(dec.a, z1) * form.evaluate(dec.a, z2) * nrm
            for z1 in perp
            for z2 in perp
        )
        if eq2_bad or eq3_bad:
            failures.append(f"trial {trial}: a probe equation failed")
            break
    _report(
        "decomposition-identity-suites",
        failures,
        "six-term expansion, vanishing mixed terms, three probe equations (200 draws)",
    )


def test_norm_enumeration_and_squares_predicates():
    rng = random.Random(916)
    failures = []
    trial = 0
    while trial < 200:
        d = rng.randint(1, 4)
        c = rng.randint(0, 50)
        g = rand_pd_gram(rng, d, bound=2)
        # The oracle scans the whole Cauchy-Schwarz box; redraw the rare
        # skew forms whose box is too large to scan (the enumeration
        # under test is unaffected by this, only the oracle's cost).
        if naive_box_volume(g, c) > 1_000_000:
            continue
        if set(vectors_of_norm(PosDefForm(g), c)) != naive_box_norm_solutions(g, c):
            failures.append(f"trial {trial}: enumeration disagrees with box oracle")
            break
        trial += 1

    if not failures:
        limit = 10**4
        squares = [i * i for i in range(isqrt(limit) + 1)]
        two = {a + b for a in squares for b in squares if a + b <= limit}
        three = {
            a + b + c for a in squares for b in squares for c in squares if a + b + c <= limit
        }
        for n in range(limit + 1):
            if two_squares_representable(n) != (n in two):
                failures.append(f"two-squares predicate wrong at {n}")
                break
            if three_squares_representable(n) != (n in three):
                failures.append(f"three-squares predicate wrong at {n}")
                break
    _report(
        "norm-enumeration-and-squares-predicates",
        failures,
        "200 box cross-checks (d<=4, c<=50); predicates exhaustive to 10^4",
    )
