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
verified), 1 certified negative or inconclusive, 2 parse error or a
file that cannot be read or written, 3 invariant violation,
4 unsupported input (e.g. indefinite form).

The env var SUPERLAT_THREADS is accepted for compatibility and ignored:
the search runs on one thread, so output is the same for any value.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from .errors import NotPositiveDefinite, ParseError, SuperlatError
from .forms import GramForm, gram_rows
from .grading import GradedContext, even_basis, full_decomposition, odd_basis
from .isometry import IsometryProblem, _integer_grams, family_obstruction, find_isometries, squares_certificate
# The integer core, under the name that perfbench/spans.py traces.
from .isometry import _isometries as brute_force_isometries
from .linalg import Mat, Vec
from .problem_io import (
    ProblemFile,
    anchor_vector,
    document_json,
    load_document,
    load_matrix,
    load_problem,
    matrix_rows,
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


def _anchor(pf: ProblemFile, arg_w: str | None) -> Vec:
    if arg_w is not None:
        return anchor_vector(arg_w.replace(",", " ").split(), pf.n, "--w")
    if pf.w is None:
        raise ParseError("no anchor: provide a 'w' block or --w")
    return pf.w


def _require_target(pf: ProblemFile) -> Mat:
    if pf.target is None:
        raise ParseError("problem file has no 'Bprime' block")
    return pf.target


def _print_cells(cells, indent: str = "  ") -> None:
    """Print rows of entry texts right-aligned to the widest entry."""
    width = max(len(c) for row in cells for c in row)
    for row in cells:
        print(indent + " ".join(c.rjust(width) for c in row))


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
    _print_cells(matrix_rows(dec.phi0))
    print(f"a = {_fmt_vec(dec.a)}")
    print(f"b = {_fmt_vec(dec.b)}")
    residual = phi - dec.reassemble(ctx)
    text = "0" if residual == Mat.zero(pf.n) else " | ".join(map(" ".join, matrix_rows(residual)))
    print(f"reassembly residual = {text}")
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
    for header, basis in (("even basis:", evens), ("odd basis:", odds)):
        sys.stdout.write(matrix_listing(header, [m.rows for m in basis]))
    return EXIT_OK


def matrix_listing(header: str, mats) -> str:
    """header, then one line per matrix, each given as an iterable of its
    rows (written in one call); each distinct row, keyed by value, is
    rendered once with str, which pays where matrices share rows."""
    text = functools.cache(lambda row: " ".join(map(str, row)))
    return f"{header}\n" + "".join([f"  {' | '.join(map(text, rows))}\n" for rows in mats])


def _write_json(path: str, doc: dict) -> None:
    """Write the text of doc to path, rendered whole before the file is
    opened, and say so.  document_json is read from this module's globals,
    where perfbench's tracer wraps it."""
    text = document_json(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"result written to {path}")


def cmd_factorize(args) -> int:
    pf = load_problem(args.file)
    w = _anchor(pf, args.w)
    problem = IsometryProblem(
        GramForm(pf.gram),
        GramForm(_require_target(pf)),
        w,
        probes=None if pf.probes is None else list(pf.probes),
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
        sys.stdout.write(matrix_listing(f"integral matrices ({len(integral)}):", [c.entry_strings for c in integral]))
    elif result.certificate.witness is not None:
        print("witness M =")
        _print_cells(result.certificate.witness.entry_strings)

    if args.json:
        options = {
            "all": args.all,
            "integral_only": args.integral_only,
            "cs_prune": args.cs_prune,
        }
        _write_json(args.json, result_document(problem, result, options=options, elapsed=elapsed))

    return EXIT_OK if result.certificate.verdict == "IsometricWitness" else EXIT_NEGATIVE


def cmd_obstruct(args) -> int:
    if args.family:
        if args.m is None:
            raise ParseError("--family requires --m")
        params = {"m": args.m, "alpha": args.alpha, "beta": args.beta, "gamma": args.gamma}
        if args.family == "rank2":
            params["n"] = args.n
            if None in params.values():
                raise ParseError("--family rank2 requires --n, --alpha, --beta, --gamma")
        elif None in params.values():
            if any(params[key] is not None for key in ("alpha", "beta", "gamma")):
                raise ParseError("give all of --alpha, --beta, --gamma or none")
            params = {"m": args.m}
        kind = {"rank2": "two_squares_rank2", "rank3": "three_squares_rank3"}[args.family]
        cert = family_obstruction(kind, **params)
        params = {"family": args.family, **params}
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
        _write_json(args.json, obstruction_document(cert, params))

    return EXIT_OK if cert.verdict.startswith("Obstruction") else EXIT_NEGATIVE


def cmd_oracle(args) -> int:
    if args.bound is not None and args.bound < 0:
        raise ParseError(f"--bound must be at least 0, got {args.bound}")
    pf = load_problem(args.file)
    (b, _), (bp, _) = gram_rows(pf.gram), gram_rows(_require_target(pf))
    found = brute_force_isometries(*_integer_grams(b, bp), bound=args.bound)
    sys.stdout.write(matrix_listing(f"brute-force isometries: {len(found)}", [zip(*cols) for cols in found]))
    return EXIT_OK if found else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    doc = load_document(args.file)
    if verify_document(doc):
        print("certificate verified")
        return EXIT_OK
    print("verification FAILED")
    return EXIT_NEGATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    about ten times what parsing one command line does."""
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
