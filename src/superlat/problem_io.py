"""Plain-text problem files and JSON result documents.

A problem file is a sequence of labeled blocks::

    # comments run to end of line
    n 4
    B
    1 0 0 0
    0 1 0 0
    0 0 1 0
    0 0 0 1
    Bprime
    3 -1 1 -1
    -1 3 -1 1
    1 -1 3 -1
    -1 1 -1 3
    w 1 0 0 0
    z0
    0 1 0 0
    0 0 1 0
    0 0 0 1

``n`` and ``B`` are required; ``Bprime``, ``w`` and ``z0`` are optional.
Matrix entries are rationals written as ``p/q`` or plain integers; ``w``
and ``z0`` rows are integers.  Values for ``n`` and ``w`` may sit on the
label line or on the following line.

Result documents are JSON with all matrices serialized as arrays of
``p/q`` strings, so nothing is ever rounded.  The ``timing`` key is the
only part that varies between identical runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .forms import GramForm
from .isometry import (
    CandidateIsometry,
    Certificate,
    IsometryProblem,
    SearchResult,
)
from .linalg import Mat, Vec

_LABELS = ("n", "B", "Bprime", "w", "z0")


@dataclass(frozen=True)
class ProblemFile:
    """Parsed problem data, structurally checked but not yet validated
    against search preconditions (definiteness is the pipeline's job)."""

    n: int
    gram: Mat
    target: Mat | None = None
    w: Vec | None = None
    probes: tuple[Vec, ...] | None = None


def _fraction(token: str, where: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{where}: bad rational {token!r}")


def _integer(token: str, where: str) -> int:
    value = _fraction(token, where)
    if value.denominator != 1:
        raise ParseError(f"{where}: expected an integer, got {token!r}")
    return int(value)


def _blocks(text: str) -> dict[str, list[list[str]]]:
    blocks: dict[str, list[list[str]]] = {}
    current: list[list[str]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] in _LABELS:
            label = tokens[0]
            if label in blocks:
                raise ParseError(f"line {lineno}: duplicate block {label!r}")
            current = blocks.setdefault(label, [])
            tokens = tokens[1:]
            if not tokens:
                continue
        elif current is None:
            raise ParseError(f"line {lineno}: data before any block label")
        current.append(tokens)
    return blocks


def _matrix_block(rows: list[list[str]], n: int, label: str) -> Mat:
    if len(rows) != n:
        raise ParseError(f"{label}: expected {n} rows, got {len(rows)}")
    parsed = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ParseError(
                f"{label} row {i + 1}: expected {n} entries, got {len(row)}"
            )
        parsed.append([_fraction(tok, f"{label} row {i + 1}") for tok in row])
    mat = Mat(parsed)
    if not mat.is_symmetric():
        raise ParseError(f"{label}: matrix is not symmetric")
    return mat


def parse_problem(text: str) -> ProblemFile:
    """Parse a labeled-block problem file; structural errors raise
    ParseError with the offending block named."""
    blocks = _blocks(text)
    unknown = set(blocks) - set(_LABELS)
    if unknown:
        raise ParseError(f"unknown blocks: {sorted(unknown)}")
    if "n" not in blocks:
        raise ParseError("missing block 'n'")
    n_rows = blocks["n"]
    if len(n_rows) != 1 or len(n_rows[0]) != 1:
        raise ParseError("block 'n' must hold a single integer")
    n = _integer(n_rows[0][0], "n")
    if n < 1:
        raise ParseError(f"n must be positive, got {n}")

    if "B" not in blocks:
        raise ParseError("missing block 'B'")
    gram = _matrix_block(blocks["B"], n, "B")
    target = _matrix_block(blocks["Bprime"], n, "Bprime") if "Bprime" in blocks else None

    w = None
    if "w" in blocks:
        w_rows = blocks["w"]
        if len(w_rows) != 1 or len(w_rows[0]) != n:
            raise ParseError(f"w: expected {n} integers on one row")
        w = Vec([_integer(tok, "w") for tok in w_rows[0]])
        if w.is_zero():
            raise ParseError("w: anchor vector must be nonzero")

    probes = None
    if "z0" in blocks:
        rows = blocks["z0"]
        parsed = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ParseError(
                    f"z0 row {i + 1}: expected {n} entries, got {len(row)}"
                )
            parsed.append(Vec([_integer(tok, f"z0 row {i + 1}") for tok in row]))
        probes = tuple(parsed)

    return ProblemFile(n=n, gram=gram, target=target, w=w, probes=probes)


def load_problem(path: str) -> ProblemFile:
    with open(path, encoding="utf-8") as fh:
        return parse_problem(fh.read())


def parse_matrix(text: str) -> Mat:
    """A bare matrix: one row per line, rationals, # comments allowed."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append([_fraction(tok, f"line {lineno}") for tok in line.split()])
    if not rows:
        raise ParseError("matrix file holds no rows")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("matrix rows have unequal lengths")
    return Mat(rows)


def load_matrix(path: str) -> Mat:
    with open(path, encoding="utf-8") as fh:
        return parse_matrix(fh.read())


# ---------------------------------------------------------------------------
# result documents


def scalar_str(x) -> str:
    return str(Fraction(x))


def matrix_rows(m: Mat) -> list[list[str]]:
    return [[scalar_str(x) for x in row] for row in m.rows]


def _parse_matrix_rows(rows, where: str) -> Mat:
    try:
        return Mat([[Fraction(x) for x in row] for row in rows])
    except (ValueError, ZeroDivisionError, TypeError):
        raise ParseError(f"{where}: bad matrix payload")


def _jsonable(x):
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return scalar_str(x)
    if isinstance(x, Mat):
        return matrix_rows(x)
    if isinstance(x, Vec):
        return [scalar_str(e) for e in x]
    if isinstance(x, (list, tuple)):
        return [_jsonable(e) for e in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    raise TypeError(f"cannot serialize {type(x).__name__}")


def certificate_payload(cert: Certificate) -> dict:
    payload: dict = {"verdict": cert.verdict, "detail": _jsonable(cert.detail)}
    if cert.witness is not None:
        payload["witness"] = {
            "matrix": matrix_rows(cert.witness.matrix),
            "integral": cert.witness.integral,
            "provenance": _jsonable(cert.witness.provenance),
        }
    else:
        payload["witness"] = None
    return payload


def _certificate_from_payload(payload: dict) -> Certificate:
    witness = None
    wp = payload.get("witness")
    if wp is not None:
        witness = CandidateIsometry(
            matrix=_parse_matrix_rows(wp["matrix"], "witness"),
            integral=bool(wp["integral"]),
            provenance=(),
        )
    return Certificate(
        verdict=payload["verdict"],
        witness=witness,
        detail=payload.get("detail") or {},
    )


def problem_inputs(problem: IsometryProblem) -> dict:
    return {
        "n": problem.dim,
        "B": matrix_rows(problem.source.gram),
        "Bprime": matrix_rows(problem.target.gram),
        "w": [int(x) for x in problem.w],
        "z0": [[int(x) for x in z] for z in problem.probes],
    }


def _problem_from_inputs(inputs: dict) -> IsometryProblem:
    source = GramForm(_parse_matrix_rows(inputs["B"], "inputs.B"))
    target = GramForm(_parse_matrix_rows(inputs["Bprime"], "inputs.Bprime"))
    w = Vec([int(x) for x in inputs["w"]])
    probes = [Vec([int(x) for x in z]) for z in inputs["z0"]]
    return IsometryProblem(source, target, w, probes=probes)


def result_document(
    problem: IsometryProblem,
    result: SearchResult,
    options: dict | None = None,
    elapsed: float | None = None,
) -> dict:
    """The machine-readable output of a factorization run.  Everything
    except ``timing`` is a pure function of the inputs and options."""
    stats = result.stats
    doc = {
        "inputs": problem_inputs(problem),
        "options": _jsonable(options or {}),
        "stats": {
            "eq1_raw": stats.eq1_raw,
            "eq1_canonical": stats.eq1_canonical,
            "eq3_per_probe": list(stats.eq3_per_probe),
            "joint_raw": stats.joint_raw,
            "joint_canonical": stats.joint_canonical,
            "candidates": stats.candidates,
            "integral": stats.integral,
        },
        "candidates": [
            {"matrix": matrix_rows(c.matrix), "integral": c.integral}
            for c in result.candidates
        ],
        "certificate": certificate_payload(result.certificate),
        "timing": {"seconds": elapsed if elapsed is not None else 0.0},
    }
    return doc


def obstruction_document(cert: Certificate, params: dict, elapsed: float | None = None) -> dict:
    return {
        "params": _jsonable(params),
        "certificate": certificate_payload(cert),
        "timing": {"seconds": elapsed if elapsed is not None else 0.0},
    }


def document_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})")


def verify_document(doc: dict) -> bool:
    """Re-check a result document from its own contents alone.

    The certificate is re-verified against the echoed inputs, and every
    recorded candidate matrix is re-multiplied; integrality flags must
    match.  Any discrepancy — including contents too damaged to rebuild
    the problem — returns False.
    """
    from .errors import SuperlatError
    from .isometry import verify_certificate

    try:
        cert = _certificate_from_payload(doc["certificate"])

        problem = None
        inputs = doc.get("inputs")
        if inputs and "B" in inputs and "Bprime" in inputs and "w" in inputs:
            problem = _problem_from_inputs(inputs)

        if not verify_certificate(cert, problem):
            return False

        if problem is not None:
            for entry in doc.get("candidates", []):
                m = _parse_matrix_rows(entry["matrix"], "candidates")
                if not problem.is_isometry(m):
                    return False
                if bool(entry["integral"]) != m.is_integral():
                    return False
        return True
    except (KeyError, TypeError, ValueError, SuperlatError):
        return False
