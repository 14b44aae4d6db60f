"""Command-line front end.

Subcommands
-----------
decompose    print the graded decomposition (phi0, wt, a, b) of a map
grade-basis  print the even/odd component bases for a form and anchor
factorize    search for integral M with M^T B M = B'
obstruct     one-sided non-existence tests (families or a single constant)
oracle       brute-force reference search, for cross-checking
verify       re-check a result document produced by factorize/obstruct

Exit codes: 0 success (witness found / obstruction certified / document
verified), 1 certified negative or inconclusive, 2 parse error,
3 invariant violation, 4 unsupported input (e.g. indefinite form).

The env var SUPERLAT_THREADS is accepted for compatibility and ignored:
the search runs on one thread, so output is the same for any value.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .errors import NotPositiveDefinite, ParseError, SuperlatError
from .forms import GramForm
from .grading import GradedContext, even_basis, full_decomposition, odd_basis
from .isometry import (
    IsometryProblem,
    brute_force_isometries,
    family_obstruction,
    find_isometries,
    squares_certificate,
)
from .linalg import Mat, Vec
from .problem_io import (
    ProblemFile,
    document_json,
    load_document,
    load_matrix,
    load_problem,
    obstruction_document,
    result_document,
    scalar_str,
    verify_document,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_UNSUPPORTED = 4


def _parse_vector(text: str, n: int, label: str) -> Vec:
    tokens = text.replace(",", " ").split()
    if len(tokens) != n:
        raise ParseError(f"{label}: expected {n} integers, got {len(tokens)}")
    try:
        entries = [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"{label}: entries must be integers")
    v = Vec(entries)
    if v.is_zero():
        raise ParseError(f"{label}: vector must be nonzero")
    return v


def _anchor(pf: ProblemFile, arg_w: str | None) -> Vec:
    if arg_w is not None:
        return _parse_vector(arg_w, pf.n, "--w")
    if pf.w is None:
        raise ParseError("no anchor: provide a 'w' block or --w")
    return pf.w


def _require_target(pf: ProblemFile) -> Mat:
    if pf.target is None:
        raise ParseError("problem file has no 'Bprime' block")
    return pf.target


def _fmt_row(row) -> str:
    return " ".join(scalar_str(x) for x in row)


def _print_matrix(m: Mat, indent: str = "  ") -> None:
    cells = [[scalar_str(x) for x in row] for row in m.rows]
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print(indent + " ".join(c.rjust(width) for c in row))


def _fmt_matrix_inline(m: Mat) -> str:
    return " | ".join(_fmt_row(row) for row in m.rows)


def _fmt_vec(v: Vec) -> str:
    return "(" + ", ".join(scalar_str(x) for x in v) + ")"


def cmd_decompose(args) -> int:
    pf = load_problem(args.file)
    w = _anchor(pf, args.w)
    phi = load_matrix(args.phi) if args.phi else Mat.identity(pf.n)
    if not (phi.is_square and phi.nrows == pf.n):
        raise ParseError(f"--phi: expected a {pf.n}x{pf.n} matrix")
    ctx = GradedContext(GramForm(pf.gram), w)
    dec = full_decomposition(ctx, phi)
    print(f"wt = {scalar_str(dec.wt)}")
    print("phi0 =")
    _print_matrix(dec.phi0)
    print(f"a = {_fmt_vec(dec.a)}")
    print(f"b = {_fmt_vec(dec.b)}")
    residual = phi - dec.reassemble(ctx)
    print(f"reassembly residual = {'0' if residual == Mat.zero(pf.n) else _fmt_matrix_inline(residual)}")
    return EXIT_OK


def cmd_grade_basis(args) -> int:
    pf = load_problem(args.file)
    w = _anchor(pf, args.w)
    ctx = GradedContext(GramForm(pf.gram), w)
    evens, odds = even_basis(ctx), odd_basis(ctx)
    n = pf.n
    print(f"n = {n}")
    print(f"even dimension = {len(evens)} (= n^2 - 2n + 2)")
    print(f"odd dimension = {len(odds)} (= 2n - 2)")
    print("even basis:")
    for e in evens:
        print(f"  {_fmt_matrix_inline(e)}")
    print("odd basis:")
    for e in odds:
        print(f"  {_fmt_matrix_inline(e)}")
    return EXIT_OK


def cmd_factorize(args) -> int:
    pf = load_problem(args.file)
    w = _anchor(pf, args.w)
    problem = IsometryProblem(
        GramForm(pf.gram),
        GramForm(_require_target(pf)),
        w,
        probes=list(pf.probes) if pf.probes else None,
    )
    start = time.perf_counter()
    result = find_isometries(
        problem,
        all_solutions=args.all,
        integral_only=args.integral_only,
    )
    elapsed = time.perf_counter() - start
    stats = result.stats

    print(f"eq1 solutions: {stats.eq1_raw} raw, {stats.eq1_canonical} canonical")
    if stats.eq3_per_probe:
        print("eq3 solutions per probe: " + " ".join(str(k) for k in stats.eq3_per_probe))
    print(f"joint tuples: {stats.joint_raw} raw, {stats.joint_canonical} canonical")
    print(f"candidates: {stats.candidates} exact, {stats.integral} integral")
    print(f"certificate: {result.certificate.verdict}")

    integral = [c for c in result.candidates if c.integral]
    if args.all and integral:
        print(f"integral matrices ({len(integral)}):")
        for cand in integral:
            print(f"  {_fmt_matrix_inline(cand.matrix)}")
    elif result.certificate.witness is not None:
        print("witness M =")
        _print_matrix(result.certificate.witness.matrix)

    if args.json:
        options = {
            "all": args.all,
            "integral_only": args.integral_only,
            "cs_prune": args.cs_prune,
        }
        doc = result_document(problem, result, options=options, elapsed=elapsed)
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(document_json(doc))
        print(f"result written to {args.json}")

    return EXIT_OK if result.certificate.verdict == "IsometricWitness" else EXIT_NEGATIVE


def cmd_obstruct(args) -> int:
    if args.family:
        if args.m is None:
            raise ParseError("--family requires --m")
        if args.family == "rank2":
            needed = (args.n, args.alpha, args.beta, args.gamma)
            if any(x is None for x in needed):
                raise ParseError("--family rank2 requires --n, --alpha, --beta, --gamma")
            cert = family_obstruction(
                "two_squares_rank2",
                m=args.m,
                n=args.n,
                alpha=args.alpha,
                beta=args.beta,
                gamma=args.gamma,
            )
            params = {
                "family": "rank2",
                "m": args.m,
                "n": args.n,
                "alpha": args.alpha,
                "beta": args.beta,
                "gamma": args.gamma,
            }
        else:
            extra = {}
            if args.alpha is not None or args.beta is not None or args.gamma is not None:
                if None in (args.alpha, args.beta, args.gamma):
                    raise ParseError("give all of --alpha, --beta, --gamma or none")
                extra = {"alpha": args.alpha, "beta": args.beta, "gamma": args.gamma}
            cert = family_obstruction("three_squares_rank3", m=args.m, **extra)
            params = {"family": "rank3", "m": args.m, **extra}
    elif args.N is not None:
        if args.squares is None:
            raise ParseError("--N requires --squares 2|3")
        cert = squares_certificate(args.N, args.squares)
        params = {"N": args.N, "squares": args.squares}
    else:
        raise ParseError("give either --family ... or --N ... --squares ...")

    print(f"certificate: {cert.verdict}")
    for key in sorted(cert.detail):
        print(f"  {key} = {cert.detail[key]}")

    if args.json:
        doc = obstruction_document(cert, params)
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(document_json(doc))
        print(f"result written to {args.json}")

    return EXIT_OK if cert.verdict.startswith("Obstruction") else EXIT_NEGATIVE


def cmd_oracle(args) -> int:
    pf = load_problem(args.file)
    source = GramForm(pf.gram)
    target = GramForm(_require_target(pf))
    found = brute_force_isometries(source, target, bound=args.bound)
    print(f"brute-force isometries: {len(found)}")
    for m in found:
        print(f"  {_fmt_matrix_inline(m)}")
    return EXIT_OK if found else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    doc = load_document(args.file)
    if verify_document(doc):
        print("certificate verified")
        return EXIT_OK
    print("verification FAILED")
    return EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superlat",
        description="Exact graded decompositions and integral Gram-matrix factorization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="graded decomposition of a linear map")
    p.add_argument("file", help="problem file (needs n, B and an anchor)")
    p.add_argument("--w", help="anchor vector, e.g. '1 0 0 0'")
    p.add_argument("--phi", help="file holding the matrix to decompose (default: identity)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("grade-basis", help="even/odd component bases")
    p.add_argument("file")
    p.add_argument("--w", help="anchor vector")
    p.set_defaults(func=cmd_grade_basis)

    p = sub.add_parser("factorize", help="search integral M with M^T B M = B'")
    p.add_argument("file", help="problem file with B, Bprime and an anchor")
    p.add_argument("--w", help="anchor vector override")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="enumerate the complete solution set")
    mode.add_argument("--first", action="store_true", help="stop at the first integral witness (default)")
    p.add_argument("--integral-only", action="store_true", help="report only integral candidates")
    p.add_argument("--cs-prune", action="store_true", help="accepted for compatibility; no effect on the search")
    p.add_argument("--json", metavar="OUT", help="write the result document to OUT")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("obstruct", help="one-sided non-existence tests")
    p.add_argument("--family", choices=["rank2", "rank3"])
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--gamma", type=int)
    p.add_argument("--N", type=int, help="test a single constant directly")
    p.add_argument("--squares", type=int, choices=[2, 3])
    p.add_argument("--json", metavar="OUT", help="write the certificate document to OUT")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("oracle", help="brute-force reference search")
    p.add_argument("file")
    p.add_argument("--bound", type=int, help="restrict matrix entries to |m_ij| <= bound")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="re-check a result document")
    p.add_argument("file", help="JSON document from factorize/obstruct --json")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotPositiveDefinite as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except SuperlatError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except BrokenPipeError:
        # stdout consumer (e.g. head) closed early; not an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
