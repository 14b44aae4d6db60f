"""Error paths that no other test reaches: each pins the exception type
and message, and on the command line the stderr text and exit code.
The problem-file reader's errors on the command line are pinned in
test_cli.py."""

from __future__ import annotations

from fractions import Fraction

import pytest

from superlat.cli import main
from superlat.errors import (
    BadFamilyParams,
    DegenerateProbe,
    DimensionMismatch,
    InvalidProblem,
    NonIntegralForm,
    ParseError,
    ZeroVector,
)
from superlat.forms import GramForm, adjoint, dual_membership, ortho_complement_basis, outer
from superlat.grading import GradedContext, full_decomposition
from superlat.isometry import (
    Certificate,
    IsometryProblem,
    brute_force_isometries,
    rank2_family_forms,
    solve_eq3_per_z0,
    squares_certificate,
    squares_verdict,
    verify_certificate,
)
from superlat.linalg import Mat, Vec
from superlat.problem_io import parse_problem

I2 = GramForm(Mat.identity(2))
I3 = GramForm(Mat.identity(3))
HALF = GramForm(Mat([[Fraction(1, 2), 0], [0, 1]]))
HALF3 = GramForm(Mat([[Fraction(1, 2), 0, 0], [0, 1, 0], [0, 0, 1]]))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: IsometryProblem(I2, I3, Vec([1, 0])), DimensionMismatch, "source and target dimensions differ"),
        # The dimensions are checked before integrality, and B before B'.
        (lambda: IsometryProblem(HALF, I3, Vec([1, 0])), DimensionMismatch, "source and target dimensions differ"),
        (lambda: IsometryProblem(HALF, I2, Vec([1, 0])), NonIntegralForm, "both Gram matrices must be integral"),
        (lambda: IsometryProblem(I2, HALF, Vec([1, 0])), NonIntegralForm, "both Gram matrices must be integral"),
        # The forms are checked before the anchor.
        (lambda: IsometryProblem(I2, HALF, Vec([0, 0])), NonIntegralForm, "both Gram matrices must be integral"),
        (lambda: IsometryProblem(I2, I2, Vec([1, 0, 0])), DimensionMismatch, "anchor dimension does not match forms"),
        (lambda: IsometryProblem(I2, I2, Vec([0, 0])), ZeroVector, "anchor must be nonzero"),
        (
            lambda: IsometryProblem(I2, I2, Vec([1, 0]), [Vec([Fraction(1, 2), 1])]),
            InvalidProblem,
            "probes must be integer vectors",
        ),
    ],
    ids=["dims", "dims-before-integral", "source-integral", "target-integral", "forms-before-anchor",
         "anchor-length", "zero-anchor", "probe-integral"],
)
def test_isometry_problem_rejects(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize(
    "z0, error, message",
    [
        (Vec([Fraction(1, 2), 1]), InvalidProblem, "probe must be an integer vector"),
        (Vec([2, 0]), DegenerateProbe, "probe lies on the anchor line"),
        # An int-tuple probe is read as the equal Vec is, with the same errors.
        ((Fraction(1, 2), 1), InvalidProblem, "probe must be an integer vector"),
        ((2, 0), DegenerateProbe, "probe lies on the anchor line"),
        ((0, 1, 0), DimensionMismatch, "vector dimension does not match form"),
        (Vec([0, 1, 0]), DimensionMismatch, "vector dimension does not match form"),
    ],
    ids=["probe-integral", "probe-on-anchor-line", "tuple-integral", "tuple-on-anchor-line", "tuple-length", "vec-length"],
)
def test_solve_eq3_per_z0_rejects(z0, error, message):
    problem = IsometryProblem(I2, I2, Vec([1, 0]))
    with pytest.raises(error) as exc:
        solve_eq3_per_z0(problem, z0)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize(
    "source, target, error, message",
    [
        (I2, I3, DimensionMismatch, "source and target dimensions differ"),
        (HALF, I3, DimensionMismatch, "source and target dimensions differ"),
        (I3, HALF3, NonIntegralForm, "both Gram matrices must be integral"),
        (HALF3, I3, NonIntegralForm, "both Gram matrices must be integral"),
    ],
    ids=["dims", "dims-before-integral", "target-integral", "source-integral"],
)
def test_brute_force_isometries_rejects(source, target, error, message):
    with pytest.raises(error) as exc:
        brute_force_isometries(source, target)
    assert type(exc.value) is error and str(exc.value) == message


def test_family_parameter_errors():
    with pytest.raises(BadFamilyParams, match=r"^squares must be 2 or 3$"):
        squares_verdict(5, 4)
    with pytest.raises(BadFamilyParams, match=r"^squares must be 2 or 3$"):
        squares_certificate(5, 4)
    with pytest.raises(BadFamilyParams, match=r"^m and n must be nonzero$"):
        rank2_family_forms(0, 1, 1, 0, 1)


@pytest.mark.parametrize(
    "verdict", ["IsometricWitness", "NoIntegralIsometry", "ObstructionEq1", "ObstructionDeterminant"]
)
def test_verdicts_that_need_a_problem_fail_without_one(verdict):
    assert verify_certificate(Certificate(verdict), None) is False


def test_unknown_verdict_fails():
    problem = IsometryProblem(I2, I2, Vec([1, 0]))
    assert verify_certificate(Certificate("Bogus"), problem) is False
    assert verify_certificate(Certificate("Bogus"), None) is False


@pytest.mark.parametrize("detail", [{"squares": 2}, {"constant": 3, "squares": 4}, {"constant": 3}])
def test_squares_verdict_without_its_constant_or_count_fails(detail):
    assert verify_certificate(Certificate("ObstructionTwoSquares", detail=detail), None) is False


def test_witness_verdict_without_a_witness_fails():
    problem = IsometryProblem(I2, I2, Vec([1, 0]))
    assert verify_certificate(Certificate("IsometricWitness"), problem) is False


@pytest.mark.parametrize(
    "text, message",
    [
        ("n 2\nB\n1 0\n0 1\nz0\n0 1\nW 1 0\n", "z0 row 2: expected 2 entries, got 3"),
        ("n 2\nB\n1 0\n0 1\nz0\n0 1\nW 1\n", "z0 row 2: bad rational 'W'"),
    ],
    ids=["row", "entry"],
)
def test_misspelled_label_continues_the_block_above(text, message):
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "flags, message",
    [
        ([], "--family requires --m"),
        (["--m", "2", "--alpha", "32"], "give all of --alpha, --beta, --gamma or none"),
    ],
    ids=["no-m", "only-alpha"],
)
def test_rank3_flag_errors(flags, message, capsys):
    assert main(["obstruct", "--family", "rank3", *flags]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GradedContext(I2, Vec([1, 0, 0])), "anchor dimension does not match form"),
        (lambda: ortho_complement_basis(I2, Vec([1, 0, 0])), "vector dimension does not match form"),
        (lambda: outer(I2, Vec([1, 0, 0]), Vec([1, 0])), "vector dimension does not match form"),
        (lambda: outer(I2, Vec([1, 0]), Vec([1, 0, 0])), "vector dimension does not match form"),
        (lambda: dual_membership(I2, Vec([1, 0, 0])), "vector dimension does not match form"),
        (lambda: adjoint(I2, Mat.identity(3)), "endomorphism dimension does not match form"),
        (lambda: adjoint(I2, Mat([[1, 0, 0], [0, 1, 0]])), "endomorphism dimension does not match form"),
        (
            lambda: full_decomposition(GradedContext(I2, Vec([1, 0])), Mat.identity(3)),
            "endomorphism dimension does not match context",
        ),
        (lambda: Vec([]), "empty vector"),
        (lambda: Mat([]), "empty matrix"),
        (lambda: Mat.identity(2) @ Vec([1, 0, 0]), "2 cols vs vector length 3"),
        (lambda: Mat.identity(2) + Mat.identity(3), "matrix shapes differ"),
    ],
    ids=["graded-context", "ortho-complement", "outer-u", "outer-v", "dual-membership", "endo-size",
         "endo-not-square", "decomposition-endo", "empty-vec", "empty-mat", "mat-vec", "mat-add"],
)
def test_wrong_sizes(call, message):
    with pytest.raises(DimensionMismatch) as exc:
        call()
    assert type(exc.value) is DimensionMismatch and str(exc.value) == message
