#!/usr/bin/env python3
"""Audit ``superlat verify`` field by field: which single edits of a
document it still accepts.

Every JSON leaf of a document is edited on its own: a number moved by +1
and by -1, an entry text (a string that parse_entry reads, such as "3" or
"-1/2") moved by +1 and by -1 as a rational, a boolean flipped.  Other
strings (the verdict, a family name) are left alone.  Each edited
document goes through verify_document, and a leaf with an edit that it
still accepts is named by its path with the list indices dropped, such
as ``inputs.w`` or ``certificate.witness.provenance``.  Those fields are
reported, not proven: REPORTED lists them per verdict, as the audit
measures them, and README quotes it.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 scripts/document_audit.py [DOC.json ...]

With no files it audits the six documents of DOCUMENTS, written by the
command line into a temporary directory, with each candidate list cut to
its first matrix.  For each document it prints its verdict, the number of
edits and the accepted paths, and it exits 1 when the accepted paths of
a document are not REPORTED[verdict] (or when the document does not
verify as it is), 0 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from superlat.cli import main as superlat_main
from superlat.linalg import parse_entry
from superlat.problem_io import verify_document

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"

# B = I2 against B' = diag(2, 1) at the anchor (1, 0): an
# ObstructionDeterminant document.
DETERMINANT = "n 2\nB\n1 0\n0 1\nBprime\n2 0\n0 1\nw 1 0\n"

# The command lines of the audited documents, each run with --json; None
# stands for the file of the determinant problem.
DOCUMENTS = {
    "wilson": ["factorize", str(PROBLEMS / "wilson.txt")],
    "binary_pair": ["factorize", str(PROBLEMS / "binary_pair.txt")],
    "determinant": ["factorize", None],
    "quaternary_pair --all": ["factorize", str(PROBLEMS / "quaternary_pair.txt"), "--all"],
    "rank3 m=3": ["obstruct", "--family", "rank3", "--m", "3"],
    "N=7 squares=3": ["obstruct", "--N", "7", "--squares", "3"],
}

# What a factorize document reports about its run: the options it echoes,
# its stage counts and its time.
_RUN = ("options.all", "options.cs_prune", "options.integral_only", "stats.candidates", "stats.eq1_canonical",
        "stats.eq1_raw")
_COUNTS = ("stats.integral", "stats.joint_canonical", "stats.joint_raw", "timing.seconds")

# The fields that verify reports but does not prove, per verdict.  A
# witness, a NoIntegralIsometry verdict and a determinant do not depend
# on the anchor w or the probes z0; an eq1 obstruction depends on w
# through N, its target and K, but not on z0.  A search-free verdict has
# no eq3 shells, so its stats.eq3_per_probe is empty.
REPORTED = {
    "IsometricWitness": ("certificate.detail.integral_count", "certificate.witness.provenance", "inputs.w",
                         "inputs.z0", *_RUN, "stats.eq3_per_probe", *_COUNTS),
    "NoIntegralIsometry": ("certificate.detail.joint_survivors", "inputs.w", "inputs.z0", *_RUN,
                           "stats.eq3_per_probe", *_COUNTS),
    "ObstructionDeterminant": ("inputs.w", "inputs.z0", *_RUN, *_COUNTS),
    "ObstructionEq1": ("inputs.z0", *_RUN, *_COUNTS),
    "ObstructionTwoSquares": ("timing.seconds",),
    "ObstructionThreeSquares": ("timing.seconds",),
    "Inconclusive": ("timing.seconds",),
}


def _leaves(node, path=()):
    """(path, value) for every leaf of a JSON value, in document order;
    path holds the dict keys and list indices down to the leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, (*path, i))
    else:
        yield path, node


def _edits(value) -> list:
    """The single edits of a leaf: a boolean flipped, a number or an
    entry text moved by +1 and by -1; none for any other value."""
    if type(value) is bool:
        return [not value]
    if type(value) in (int, float):
        return [value + 1, value - 1]
    if isinstance(value, str):
        try:
            p, q = parse_entry(value)
        except (ValueError, ZeroDivisionError):
            return []
        return [str(Fraction(p + q, q)), str(Fraction(p - q, q))]
    return []


def accepted_paths(doc: dict) -> tuple[list[str], int]:
    """The sorted paths, list indices dropped, of the leaves of doc with
    an edit that verify_document accepts, and the number of edits made.
    Each edit is made in place and undone before the next."""
    found, count = set(), 0
    for path, value in list(_leaves(doc)):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        for edit in _edits(value):
            count += 1
            parent[path[-1]] = edit
            if verify_document(doc):
                found.add(".".join(key for key in path if isinstance(key, str)))
        parent[path[-1]] = value
    return sorted(found), count


def documents(tmp: Path) -> dict[str, dict]:
    """The documents of DOCUMENTS, written into tmp by the command line,
    with each candidate list cut to its first matrix."""
    determinant = tmp / "determinant.txt"
    determinant.write_text(DETERMINANT, encoding="utf-8")
    docs = {}
    for name, argv in DOCUMENTS.items():
        out = tmp / "doc.json"
        with contextlib.redirect_stdout(io.StringIO()):
            superlat_main([str(determinant) if arg is None else arg for arg in argv] + ["--json", str(out)])
        doc = json.loads(out.read_text(encoding="utf-8"))
        for entries in (doc.get("candidates"), doc["certificate"]["detail"].get("candidates")):
            del (entries or [])[1:]
        docs[name] = doc
    return docs


def audit(name: str, doc: dict) -> bool:
    """Print the audit of one document; whether its accepted paths are
    REPORTED[verdict]."""
    if not verify_document(doc):
        print(f"{name}: does not verify as it is")
        return False
    verdict = doc["certificate"]["verdict"]
    paths, edits = accepted_paths(doc)
    print(f"{name}: {verdict}, {edits} edits, {len(paths)} accepted paths")
    for path in paths:
        print(f"  {path}")
    reported = set(REPORTED.get(verdict, ()))
    for path in sorted(set(paths) - reported):
        print(f"  accepted but not reported: {path}")
    for path in sorted(reported - set(paths)):
        print(f"  reported but never accepted: {path}")
    return set(paths) == reported


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="documents to audit (default: the six of DOCUMENTS)")
    args = parser.parse_args(argv)
    if args.files:
        docs = {path: json.loads(Path(path).read_text(encoding="utf-8")) for path in args.files}
    else:
        with tempfile.TemporaryDirectory() as tmp:
            docs = documents(Path(tmp))
    results = [audit(name, doc) for name, doc in docs.items()]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
