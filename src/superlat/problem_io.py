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
label line or on the following line.  The command line's ``--w`` is read
by the same anchor_vector as the ``w`` block.

Result documents are JSON with all matrices serialized as arrays of
``p/q`` strings, so nothing is ever rounded.  The ``timing`` key is the
only part that varies between identical runs.  document_json renders a
whole document as one text through the one walker _json_text, and
load_document reads it back.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cache
from itertools import repeat

from .errors import ParseError, SuperlatError
from .forms import GramForm
from .isometry import (
    CandidateIsometry,
    Certificate,
    IsometryProblem,
    SearchResult,
    _integer_grams,
    _integer_matrices,
    isometry_denominators,
)
from .linalg import Mat, Vec, parse_fraction

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
        return parse_fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"{where}: bad rational {token!r}")


def _integer(token: str, where: str) -> int:
    value = _fraction(token, where)
    if value.denominator != 1:
        raise ParseError(f"{where}: expected an integer, got {token!r}")
    return int(value)


def anchor_vector(tokens: list[str], n: int, label: str) -> Vec:
    """The anchor vector of n integer tokens (each read as _integer reads
    it, so 2/1 is 2); ParseError unless there are n of them and the
    vector is nonzero."""
    if len(tokens) != n:
        raise ParseError(f"{label}: expected {n} integers, got {len(tokens)}")
    w = Vec([_integer(tok, label) for tok in tokens])
    if w.is_zero():
        raise ParseError(f"{label}: anchor vector must be nonzero")
    return w


def _token_lines(text: str):
    """(lineno, tokens) for each line of text that still holds a token
    once its # comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if tokens := raw.split("#", 1)[0].split():
            yield lineno, tokens


def _blocks(text: str) -> dict[str, list[list[str]]]:
    blocks: dict[str, list[list[str]]] = {}
    current: list[list[str]] | None = None
    for lineno, tokens in _token_lines(text):
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


def _row(tokens: list[str], n: int, where: str, read) -> tuple:
    """The n entries of a row, each token read by read (_fraction or
    _integer) at where; ParseError unless there are n of them."""
    if len(tokens) != n:
        raise ParseError(f"{where}: expected {n} entries, got {len(tokens)}")
    return tuple(read(tok, where) for tok in tokens)


def _matrix_block(rows: list[list[str]], n: int, label: str) -> Mat:
    if len(rows) != n:
        raise ParseError(f"{label}: expected {n} rows, got {len(rows)}")
    mat = Mat._of_rows(tuple(_row(row, n, f"{label} row {i}", _fraction) for i, row in enumerate(rows, 1)))
    if not mat.is_symmetric():
        raise ParseError(f"{label}: matrix is not symmetric")
    return mat


def parse_problem(text: str) -> ProblemFile:
    """Parse a labeled-block problem file; structural errors raise
    ParseError with the offending block named."""
    blocks = _blocks(text)
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
        if len(blocks["w"]) != 1:
            raise ParseError(f"w: expected {n} integers on one row")
        w = anchor_vector(blocks["w"][0], n, "w")

    probes = None
    if "z0" in blocks:
        probes = tuple(Vec(_row(row, n, f"z0 row {i}", _integer)) for i, row in enumerate(blocks["z0"], 1))

    return ProblemFile(n=n, gram=gram, target=target, w=w, probes=probes)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")


def load_problem(path: str) -> ProblemFile:
    return parse_problem(_read_text(path))


def parse_matrix(text: str) -> Mat:
    """A bare matrix: one row per line, rationals, # comments allowed;
    every row must have as many entries as the first."""
    lines = list(_token_lines(text))
    if not lines:
        raise ParseError("matrix file holds no rows")
    n = len(lines[0][1])
    return Mat._of_rows(tuple(_row(tokens, n, f"line {lineno}", _fraction) for lineno, tokens in lines))


def load_matrix(path: str) -> Mat:
    return parse_matrix(_read_text(path))


# ---------------------------------------------------------------------------
# result documents


def scalar_str(x) -> str:
    """The text of str(Fraction(x)); an int or a Fraction is printed as
    it is (a bool still prints as 0 or 1)."""
    if type(x) is int or type(x) is Fraction:
        return str(x)
    return str(Fraction(x))


def matrix_rows(m: Mat) -> list[list[str]]:
    return [[scalar_str(x) for x in row] for row in m.rows]


def certificate_payload(cert: Certificate) -> dict:
    """The certificate as a document holds it: the certificate's own
    detail, not a copy (see Certificate), the witness's entry_strings and
    its provenance as [s, [btilde], ["p/q" of atilde], [[c_i]]] or [].
    The provenance is lists: _json_text would write a non-empty tuple of
    tuples as rows of entry texts."""
    witness = cert.witness
    if witness is not None:
        prov = witness.provenance
        witness = {
            "matrix": witness.entry_strings,
            "integral": witness.integral,
            "provenance": [prov[0], list(prov[1]), list(map(str, prov[2])), list(map(list, prov[3]))] if prov else [],
        }
    return {"verdict": cert.verdict, "detail": cert.detail, "witness": witness}


def _certificate_from_payload(payload: dict) -> Certificate:
    """The certificate of a document; ParseError unless the payload and a
    non-empty detail are JSON objects.  The witness is read as candidates
    are (_integer_matrices); its flag must be the JSON bool den == 1."""
    if not isinstance(payload, dict):
        raise ParseError("certificate: expected a JSON object")
    detail = payload.get("detail") or {}
    if not isinstance(detail, dict):
        raise ParseError("certificate.detail: expected a JSON object")
    witness = None
    wp = payload.get("witness")
    if wp is not None:
        ((den, num),) = _integer_matrices([wp["matrix"]])
        if _typed(wp["integral"], bool) != (den == 1):
            raise ValueError("witness: integral flag contradicts the matrix")
        witness = CandidateIsometry(num, den)
    return Certificate(
        verdict=payload["verdict"],
        witness=witness,
        detail=detail,
    )


def problem_inputs(problem: IsometryProblem) -> dict:
    return {
        "n": problem.dim,
        "B": matrix_rows(problem.source.gram),
        "Bprime": matrix_rows(problem.target.gram),
        "w": [int(x) for x in problem.w],
        "z0": [[int(x) for x in z] for z in problem.probes],
    }


def _typed(value, kind: type):
    """value when its type is exactly kind (int or bool, so neither stands
    in for the other); TypeError otherwise."""
    if type(value) is not kind:
        raise TypeError(f"expected a JSON {kind.__name__}")
    return value


def _problem_from_inputs(inputs: dict) -> IsometryProblem:
    b, t = _integer_grams(*_integer_matrices([inputs["B"], inputs["Bprime"]]))
    if _typed(inputs["n"], int) != len(b):
        raise ParseError("inputs.n: not the dimension of inputs.B")
    w = Vec([_typed(x, int) for x in inputs["w"]])
    probes = [Vec([_typed(x, int) for x in z]) for z in inputs["z0"]]
    return IsometryProblem(GramForm(Mat(b)), GramForm(Mat(t)), w, probes=probes)


def result_document(
    problem: IsometryProblem, result: SearchResult, options: dict | None = None, elapsed: float | None = None
) -> dict:
    """The machine-readable output of a factorization run.  Everything
    except ``timing`` is a pure function of the inputs and options.  The
    candidate entries and the certificate hold the candidates' shared
    entry_strings tuples (see certificate_payload): no matrix is copied."""
    return {
        "inputs": problem_inputs(problem),
        "options": dict(options or {}),
        "stats": asdict(result.stats),
        "candidates": [
            {"matrix": c.entry_strings, "integral": c.integral}
            for c in result.candidates
        ],
        "certificate": certificate_payload(result.certificate),
        "timing": {"seconds": elapsed if elapsed is not None else 0.0},
    }


def obstruction_document(cert: Certificate, params: dict) -> dict:
    return {"params": dict(params), "certificate": certificate_payload(cert), "timing": {"seconds": 0.0}}


_quote = json.encoder.encode_basestring_ascii


def _row_block(pad: str, row: tuple[str, ...]) -> str:
    """The JSON text of a row of entry strings at the indentation pad."""
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(map(_quote, row)) + f"\n{pad}]" if row else "[]"


def _is_rows(x) -> bool:
    """Whether x is a non-empty tuple of tuples, as entry_strings is."""
    return type(x) is tuple and x != () and all(map(tuple.__instancecheck__, x))


def _json_text(x, pad: str, blocks) -> str:
    """The text of the value x as json.dumps(x, sort_keys=True, indent=2)
    writes it at the indentation pad.  A matrix of entry texts (_is_rows)
    is one join of its rows' texts from blocks, a cache of _row_block; a
    candidate entry {"integral": bool, "matrix": such rows} is one string
    around that join.  Dict keys must be strings, as in every document."""
    if isinstance(x, str):
        return _quote(x)
    inner = pad + "  "
    if isinstance(x, dict):
        if len(x) == 2 and type(flag := x.get("integral")) is bool and _is_rows(rows := x.get("matrix")):
            deeper = inner + "  "
            return (
                f'{{\n{inner}"integral": {"true" if flag else "false"},\n{inner}"matrix": [\n{deeper}'
                + f",\n{deeper}".join(map(blocks, repeat(deeper), rows))
                + f"\n{inner}]\n{pad}}}"
            )
        if not x:
            return "{}"
        items = [f"{_quote(key)}: {_json_text(x[key], inner, blocks)}" for key in sorted(x)]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        items = map(blocks, repeat(inner), x) if _is_rows(x) else [_json_text(v, inner, blocks) for v in x]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if type(x) is int:
        return int.__repr__(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    return json.dumps(x)  # a float


def document_json(doc: dict) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) + "\\n", each distinct row
    of entry texts rendered once."""
    return _json_text(doc, "", cache(_row_block)) + "\n"


def load_document(path: str) -> dict:
    """The JSON value in the file at path; ParseError for text that
    json.loads rejects, an integer literal too long to convert included,
    or nests too deep to load."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})")


def verify_document(doc: dict) -> bool:
    """Re-check a result document from its own contents alone.

    The echoed inputs rebuild the problem (inputs.n must be the JSON int
    n, the dimension of B, and every matrix row a JSON array).  B, B' and
    every recorded candidate matrix are read once in integers
    (_integer_matrices): B and B' must be integral, and each candidate
    is re-multiplied (isometry_denominators) with a matching integral
    flag.  A NoIntegralIsometry certificate whose list equals the top-level
    candidate matrices then holds iff none of them is integral; any other
    certificate is re-verified against the problem (verify_certificate).
    Any discrepancy — including contents too damaged to rebuild the
    problem — returns False.
    """
    # Looked up at call time, so that a wrapper set on
    # isometry.verify_certificate afterwards (perfbench's tracer) is called.
    from .isometry import verify_certificate

    try:
        cert = _certificate_from_payload(doc["certificate"])

        inputs = doc.get("inputs")
        if not (inputs and "B" in inputs and "Bprime" in inputs and "w" in inputs):
            return verify_certificate(cert, None)
        problem = _problem_from_inputs(inputs)
        entries = doc.get("candidates", [])
        matrices = [entry["matrix"] for entry in entries]
        dens = list(isometry_denominators(problem, matrices))
        for entry, den in zip(entries, dens):
            if den is None or _typed(entry["integral"], bool) != (den == 1):
                return False
        if cert.verdict == "NoIntegralIsometry" and cert.detail.get("candidates") == matrices:
            # The certificate lists the isometries just checked.
            return 1 not in dens
        return verify_certificate(cert, problem)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError, SuperlatError):
        return False
