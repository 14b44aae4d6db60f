"""Fuzzing of the two readers of untrusted input.

parse_problem either returns a ProblemFile or raises ParseError, whatever
the text.  verify_document never raises: it returns False for any JSON
value that is not a superlat document, and a bool for any document derived
from a real one by replacing or deleting one value.  The documents whose
certificate or certificate.detail is not a JSON object are explicit
examples.
"""

from __future__ import annotations

import copy
import json
from functools import lru_cache
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from superlat.errors import ParseError
from superlat.forms import GramForm
from superlat.isometry import (
    IsometryProblem,
    family_obstruction,
    find_isometries,
    squares_certificate,
)
from superlat.problem_io import (
    ProblemFile,
    document_json,
    load_problem,
    obstruction_document,
    parse_problem,
    result_document,
    verify_document,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
TEXTS = [p.read_text(encoding="utf-8") for p in sorted(PROBLEMS.glob("*.txt"))]

TOKENS = st.sampled_from([
    "n", "B", "Bprime", "w", "z0", "#", "0", "1", "-1", "2", "3", "5", "1/2", "-3/4", "2/4",
    "1/0", "0/0", "x", "1.5", "1e2", "-", "/", "+7", "١", "nan", "inf", "",
])


@st.composite
def problem_texts(draw):
    """A problem file with some tokens replaced and some lines dropped or
    repeated, or a text built from grammar tokens."""
    if draw(st.booleans()):
        lines = [
            " ".join(draw(st.lists(TOKENS, max_size=6)))
            for _ in range(draw(st.integers(0, 12)))
        ]
        return "\n".join(lines)
    lines = [line.split(" ") for line in draw(st.sampled_from(TEXTS)).splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["token", "drop", "repeat"]))
        if action == "drop":
            del lines[i]
        elif action == "repeat":
            lines.insert(i, list(lines[i]))
        else:
            j = draw(st.integers(0, len(lines[i])))
            token = draw(TOKENS | st.text(max_size=4))
            lines[i][j:j + 1] = [token]
    return "\n".join(" ".join(line) for line in lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(problem_texts(), st.text(max_size=80)))
@example("n 2\nB\n1 0\n0 1\nz0\n")
@example("n 0\nB\n")
@example("w 1 0\nn 2\nB\n1 0\n0 1\n")
def test_parse_problem_returns_a_problem_or_raises_parse_error(text):
    try:
        pf = parse_problem(text)
    except ParseError:
        return
    assert isinstance(pf, ProblemFile)
    assert pf.gram.nrows == pf.gram.ncols == pf.n


SCALARS = (
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats() | st.text(max_size=6)
    | st.sampled_from(["1/2", "0", "1", "-1", "1/0", "NoIntegralIsometry", "IsometricWitness"])
)
KEYS = st.text(max_size=6) | st.sampled_from(
    ["certificate", "verdict", "detail", "witness", "matrix", "integral", "candidates",
     "inputs", "B", "Bprime", "w", "z0"]
)
JSON = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(JSON)
@example({"certificate": []})
@example({"certificate": {"verdict": "NoIntegralIsometry", "detail": [1]}})
@example({"certificate": {"verdict": "ObstructionTwoSquares", "detail": ["constant", 3]}})
def test_verify_document_rejects_any_json_value(value):
    assert verify_document(value) is False


@lru_cache(maxsize=None)
def _documents() -> tuple[str, ...]:
    """The texts of the first-witness and --all documents of the example
    problems and of two obstruction documents."""
    texts = []
    for path in sorted(PROBLEMS.glob("*.txt")):
        pf = load_problem(str(path))
        if pf.target is None:
            continue
        problem = IsometryProblem(GramForm(pf.gram), GramForm(pf.target), pf.w)
        for all_solutions in (False, True):
            result = find_isometries(problem, all_solutions=all_solutions)
            texts.append(document_json(result_document(problem, result)))
    cert = family_obstruction("three_squares_rank3", m=1)
    texts.append(document_json(obstruction_document(cert, {"family": "rank3", "m": 1})))
    texts.append(document_json(obstruction_document(squares_certificate(7, 3), {"N": 7, "squares": 3})))
    return tuple(texts)


@st.composite
def mutated_documents(draw):
    """A real document with the value at a random path replaced by a
    random JSON value, or deleted."""
    doc = json.loads(draw(st.sampled_from(_documents())))
    parent, key, node = None, None, doc
    for _ in range(draw(st.integers(1, 6))):
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(list(keys)))
        node = parent[key]
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON)
    return doc


def _with(path, value):
    doc = json.loads(_documents()[3])
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@settings(max_examples=200, deadline=None)
@given(mutated_documents())
@example(_with(("certificate",), [1]))
@example(_with(("certificate", "detail"), [1]))
@example(_with(("certificate", "detail", "candidates"), {"1": 2}))
@example(_with(("inputs", "z0", 0), [0, 1, 0]))
def test_verify_document_returns_a_bool_on_mutated_documents(doc):
    assert verify_document(copy.deepcopy(doc)) in (True, False)


def test_list_shaped_certificates_fail():
    for path in (("certificate",), ("certificate", "detail")):
        for value in ([1], [{"candidates": []}], ["verdict", "NoIntegralIsometry"]):
            assert verify_document(_with(path, value)) is False
