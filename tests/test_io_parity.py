"""The streamed `factorize --json` file, the integer candidate check of
verify_document and the integer entry reader keep the behaviour of the
text-building, Mat-based and Fraction-based versions they replaced."""

from __future__ import annotations

import copy
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superlat import cli
from superlat.forms import GramForm
from superlat.isometry import (
    CandidateIsometry,
    Certificate,
    IsometryProblem,
    SearchResult,
    SearchStats,
    _signed_automorphisms,
    family_obstruction,
    find_isometries,
    verify_certificate,
)
from superlat.errors import ParseError
from superlat.linalg import Mat, Vec, parse_entry, parse_fraction
from superlat.problem_io import (
    _entry,
    _integer,
    _problem_from_inputs,
    certificate_payload,
    document_json,
    load_problem,
    result_document,
    verify_document,
)

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from helpers import negated_candidate, twisted_problem  # noqa: E402


def _factorize(tmp_path, monkeypatch, capsys, *args):
    """Run factorize --all --json; return the written text and the document
    object it was written from."""
    docs = []
    original = cli.result_document

    def capture(*a, **k):
        docs.append(original(*a, **k))
        return docs[-1]

    monkeypatch.setattr(cli, "result_document", capture)
    out = tmp_path / "out.json"
    cli.main(["factorize", *args, "--all", "--json", str(out)])
    capsys.readouterr()
    return out.read_text(encoding="utf-8"), docs[0]


# The --all documents and what they list: (candidate entries, integral
# ones, matrices in the certificate's own list).
STREAMED = {
    (str(PROBLEMS / "wilson.txt"),): (384, 384, 0),
    (str(PROBLEMS / "quaternary_pair.txt"),): (224, 0, 224),
    (str(PROBLEMS / "binary_pair.txt"),): (0, 0, 0),
    (str(PROBLEMS / "wilson.txt"), "--integral-only"): (384, 384, 0),
    (str(PROBLEMS / "quaternary_pair.txt"), "--integral-only"): (0, 0, 224),
    (str(PROBLEMS / "wilson.txt"), "--w", "1 1 1 1"): (1152, 384, 0),
}


@pytest.mark.parametrize("args", list(STREAMED))
def test_streamed_file_equals_document_json(args, tmp_path, monkeypatch, capsys):
    # The document holds its candidates' shared row tuples; its text is
    # still byte for byte what json.dumps writes, and it verifies.
    text, doc = _factorize(tmp_path, monkeypatch, capsys, *args)
    assert text == document_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert verify_document(doc) and verify_document(json.loads(text))
    listed = doc["certificate"]["detail"].get("candidates", [])
    assert (len(doc["candidates"]), sum(c["integral"] for c in doc["candidates"]), len(listed)) == STREAMED[args]


@pytest.fixture(scope="module")
def wilson_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("w") / "wilson.json"
    cli.main(["factorize", str(PROBLEMS / "wilson.txt"), "--all", "--json", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert verify_document(doc) and doc["candidates"]
    return doc


@pytest.fixture(scope="module")
def quaternary_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("q") / "quaternary.json"
    cli.main(["factorize", str(PROBLEMS / "quaternary_pair.txt"), "--all", "--json", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert verify_document(doc) and doc["candidates"]
    return doc


def _edited(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc["candidates"][-1])
    return doc


def _set(i, j, value):
    def edit(entry):
        entry["matrix"][i][j] = value
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set(0, 0, ["1"]),
        _set(1, 2, "1/0"),
        _set(2, 1, "x"),
        lambda e: e["matrix"][3].pop(),
        lambda e: e["matrix"][0].append("0"),
        lambda e: e["matrix"].pop(),
        lambda e: e.__setitem__("integral", not e["integral"]),
        lambda e: e.__setitem__("matrix", "1234"),
        lambda e: e.pop("integral"),
    ],
    ids=["list-entry", "zero-denominator", "not-a-number", "short-row", "long-row",
         "missing-row", "flipped-integral", "matrix-is-a-string", "no-integral-flag"],
)
@pytest.mark.parametrize("which", ["wilson", "quaternary"])
def test_verify_still_rejects(edit, which, wilson_doc, quaternary_doc):
    doc = wilson_doc if which == "wilson" else quaternary_doc
    assert verify_document(_edited(doc, edit)) is False


def _rewrite_entries(doc, fmt):
    def edit(entry):
        entry["matrix"] = [[fmt(x) for x in row] for row in entry["matrix"]]
    doc = copy.deepcopy(doc)
    for entry in doc["candidates"]:
        edit(entry)
    return doc


def _decimal(x: str) -> str:
    num, _, den = x.partition("/")
    return str(int(num) / int(den or 1))


@pytest.mark.parametrize("fmt", [_decimal, lambda x: f" {x} ", lambda x: x if "/" in x else f"{x}e0"],
                         ids=["decimal", "padded", "exponent"])
@pytest.mark.parametrize("which", ["wilson", "quaternary"])
def test_verify_accepts_what_fraction_accepts(fmt, which, wilson_doc, quaternary_doc):
    doc = wilson_doc if which == "wilson" else quaternary_doc
    assert verify_document(_rewrite_entries(doc, fmt)) is True


def _set_path(*path):
    """An edit that sets doc[path[0]]...[path[-2]][path[-1]] to a value."""
    def edit(doc, value):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


NON_FINITE_PLACES = {
    "candidate": ("wilson", _set_path("candidates", 3, "matrix", 1, 2)),
    "inputs.B": ("wilson", _set_path("inputs", "B", 0, 0)),
    "inputs.Bprime": ("wilson", _set_path("inputs", "Bprime", 2, 1)),
    "inputs.w": ("wilson", _set_path("inputs", "w", 0)),
    "witness": ("wilson", _set_path("certificate", "witness", "matrix", 0, 1)),
    "certificate-candidate": ("quaternary", _set_path("certificate", "detail", "candidates", 5, 3, 3)),
}


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("place", sorted(NON_FINITE_PLACES))
def test_verify_rejects_non_finite_entries(place, value, wilson_doc, quaternary_doc, tmp_path, capsys):
    # json.load reads the JSON tokens Infinity, -Infinity and NaN as floats;
    # such an entry fails verification like "1/0" does, with exit 1.
    which, edit = NON_FINITE_PLACES[place]
    doc = copy.deepcopy(wilson_doc if which == "wilson" else quaternary_doc)
    edit(doc, value)
    assert verify_document(doc) is False
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == "verification FAILED\n"


HUGE_EXPONENTS = ["1e100000000", "1e-100000000"]


def test_parse_fraction_holds_exponents_to_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("integer digit limit switched off")
    assert parse_fraction(f"1e-{limit}") == Fraction(1, 10**limit)
    assert parse_fraction(f" 25E{limit} ") == 25 * 10**limit
    for text in (f"1e{limit + 1}", f"-2.5E-{limit + 1}", f"1e{'9' * (limit + 1)}"):
        with pytest.raises(ValueError):
            parse_fraction(text)


def _read(parse, token):
    """parse(token), or the type of the exception it raises."""
    try:
        return parse(token)
    except Exception as exc:
        return type(exc)


# Integer tokens take int() and every other string Fraction's parser; both
# must read each token as Fraction(token) does.
PARSE_TOKENS = ["007", "-0", "+3", "+-3", "--3", "", "+", " 3", "1_000", "\u0663", "1e5", "1.5", "3/4", "3/-4", "1/0"]
LONG_INTEGER = "1" + "0" * sys.get_int_max_str_digits()


@pytest.mark.parametrize("token", [*PARSE_TOKENS, LONG_INTEGER, "-" + LONG_INTEGER, LONG_INTEGER[1:]],
                         ids=[*PARSE_TOKENS, "limit+1-digits", "minus-limit+1-digits", "limit-digits"])
def test_parse_fraction_reads_tokens_as_fraction_does(token):
    assert _read(parse_fraction, token) == _read(Fraction, token)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(["+", "-", "0", "1", "7", "9", "\u0663", "_", "/", ".", " ", "\n"]), max_size=8).map("".join))
def test_parse_fraction_reads_sign_digit_strings_as_fraction_does(token):
    assert _read(parse_fraction, token) == _read(Fraction, token)


def _message(read, token):
    """The message of the ParseError that read(token, "B row 1") raises,
    or the value it returns."""
    try:
        return read(token, "B row 1")
    except ParseError as exc:
        return str(exc)


LIMIT = sys.get_int_max_str_digits()
ENTRY_TOKENS = (
    st.integers(-10**30, 10**30).map(str)
    | st.sampled_from(["+3", "-0", "+0", "007", "-007", "2/4", "-6/4", "+6/-4", "0/5", "-0/7", "1/0", "-3/0", "0/0",
                       "3/+4", "1.5", "-.5", "2.", "1e3", "1E-3", "2.5e+2", "1_000", "1/2_0", "\u0663/4", " 3", "3 ",
                       "1 /2", "+", "-", "/", "1/", "/2", "1//2", "x", "nan", "inf", "", "e5",
                       LONG_INTEGER, LONG_INTEGER[1:], "-" + LONG_INTEGER, f"1/{LONG_INTEGER}", f"{LONG_INTEGER[1:]}/3",
                       f"1e{LIMIT}", f"1e{LIMIT + 1}", f"1e-{LIMIT + 1}"])
    | st.tuples(st.integers(-10**6, 10**6), st.integers(0, 10**6)).map(lambda pq: f"{pq[0]}/{pq[1]}")
    | st.decimals(allow_nan=False, allow_infinity=False).map(str)
    | st.lists(st.sampled_from(list("+-0123456789/._eE \u0663x")), max_size=8).map("".join)
    | st.text(max_size=6)
)


@settings(max_examples=500, deadline=None)
@given(ENTRY_TOKENS)
def test_entry_reader_reads_tokens_as_parse_fraction_does(token):
    # The same value in lowest terms with q > 0, or the same exception;
    # through the problem reader, the same ParseError message as the
    # Fraction reader gave (bad rational, then expected an integer).
    got, want = _read(lambda t: Fraction(*parse_entry(t)), token), _read(parse_fraction, token)
    assert got == want
    if isinstance(want, Fraction):
        assert parse_entry(token) == (want.numerator, want.denominator)
        assert _message(_entry, token) == (want.numerator, want.denominator)
        integral = want.denominator == 1
        assert _message(_integer, token) == (want.numerator if integral else f"B row 1: expected an integer, got {token!r}")
    elif want in (ValueError, ZeroDivisionError):
        assert _message(_entry, token) == _message(_integer, token) == f"B row 1: bad rational {token!r}"


@pytest.mark.parametrize("token", HUGE_EXPONENTS)
@pytest.mark.parametrize("block", ["n 1\nB\n{}\n", "n {}\nB\n1\n"], ids=["B", "n"])
def test_huge_exponent_in_a_problem_is_a_parse_error(block, token, tmp_path, capsys):
    # Fraction would expand 10**exponent first, which takes minutes.
    path = tmp_path / "huge.txt"
    path.write_text(block.format(token), encoding="utf-8")
    start = time.perf_counter()
    assert cli.main(["factorize", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "bad rational" in capsys.readouterr().err


@pytest.mark.parametrize("token", HUGE_EXPONENTS)
@pytest.mark.parametrize("place", sorted(NON_FINITE_PLACES))
def test_verify_rejects_huge_exponents(place, token, wilson_doc, quaternary_doc, tmp_path, capsys):
    which, edit = NON_FINITE_PLACES[place]
    doc = copy.deepcopy(wilson_doc if which == "wilson" else quaternary_doc)
    edit(doc, token)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    assert cli.main(["verify", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == "verification FAILED\n"


def test_verify_rejects_flipped_witness_flag(wilson_doc):
    # A witness whose integral flag contradicts its matrix cannot be
    # rebuilt, so the document does not verify.
    doc = copy.deepcopy(wilson_doc)
    doc["certificate"]["witness"]["integral"] = False
    assert verify_document(doc) is False


def _put(path, value):
    def edit(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _put(("inputs", "w", 0), 1.5),
        _put(("inputs", "w", 0), 1.0),
        _put(("inputs", "w", 0), True),
        _put(("inputs", "w", 0), "1"),
        _put(("inputs", "z0", 0, 1), 1.9),
        _put(("inputs", "z0", 2, 3), True),
        _put(("candidates", 0, "integral"), "false"),
        _put(("candidates", 0, "integral"), 1),
        _put(("certificate", "witness", "integral"), "false"),
        _put(("certificate", "witness", "integral"), 1),
        _put(("inputs", "B", 0, 0), "1/2"),
        _put(("inputs", "Bprime", 1, 1), "5/2"),
    ],
    ids=["w-1.5", "w-1.0", "w-true", "w-string", "z0-1.9", "z0-true",
         "candidate-flag-string", "candidate-flag-int", "witness-flag-string", "witness-flag-int",
         "B-half", "Bprime-half"],
)
def test_verify_reads_document_fields_only_at_their_json_type(edit, wilson_doc, tmp_path, capsys):
    # Each of the first ten edits would read as the original value under
    # int() or bool(): a float, boolean or string anchor or probe entry,
    # and a flag that is not a JSON boolean, must each fail.  So must a
    # Gram matrix entry that is not an integer.
    doc = copy.deepcopy(wilson_doc)
    edit(doc)
    assert verify_document(doc) is False
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == "verification FAILED\n"


@pytest.fixture(scope="module")
def diag_doc(tmp_path_factory):
    # B = B' = diag(1, 2), anchor (1, 0): a witness whose entries and Gram
    # entries are all one character long.
    tmp = tmp_path_factory.mktemp("d")
    (tmp / "diag.txt").write_text("n 2\nB\n1 0\n0 2\nBprime\n1 0\n0 2\nw 1 0\n", encoding="utf-8")
    cli.main(["factorize", str(tmp / "diag.txt"), "--json", str(tmp / "diag.json")])
    doc = json.loads((tmp / "diag.json").read_text(encoding="utf-8"))
    assert verify_document(doc) and doc["certificate"]["verdict"] == "IsometricWitness"
    return doc


def _join_a_short_row(matrices):
    """Write the first row whose entries are each one character long as
    one string, which iterates to the same entries."""
    i, j = next((i, j) for i, rows in enumerate(matrices) for j, row in enumerate(rows) if all(len(x) == 1 for x in row))
    matrices[i][j] = "".join(matrices[i][j])


STRING_ROWS = {
    "candidate": ("wilson", lambda doc: _join_a_short_row([entry["matrix"] for entry in doc["candidates"]])),
    "certificate-candidate": ("quaternary", lambda doc: _join_a_short_row(doc["certificate"]["detail"]["candidates"])),
    "witness": ("diag", lambda doc: doc["certificate"]["witness"].update(matrix=["10", "01"])),
    "inputs.B": ("diag", lambda doc: doc["inputs"].update(B=["10", "02"])),
    "inputs.Bprime": ("diag", lambda doc: doc["inputs"].update(Bprime=["10", "02"])),
}


@pytest.mark.parametrize("place", sorted(STRING_ROWS))
def test_verify_rejects_a_matrix_row_written_as_a_string(place, wilson_doc, quaternary_doc, diag_doc, tmp_path, capsys):
    # A string iterates by character, so "0012" would read as the row
    # ["0", "0", "1", "2"]; a matrix row must be a JSON array.
    which, edit = STRING_ROWS[place]
    doc = copy.deepcopy({"wilson": wilson_doc, "quaternary": quaternary_doc, "diag": diag_doc}[which])
    edit(doc)
    assert verify_document(doc) is False
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == "verification FAILED\n"


@pytest.mark.parametrize("value", ["x", 3, True, 4.0])
def test_verify_reads_inputs_n(value, wilson_doc):
    # n must be the JSON int that is the dimension of B.
    doc = copy.deepcopy(wilson_doc)
    assert doc["inputs"]["n"] == 4 and verify_document(doc) is True
    doc["inputs"]["n"] = value
    assert verify_document(doc) is False


def test_verify_rejects_integral_isometry_listed_as_non_integral(wilson_doc):
    # A NoIntegralIsometry certificate whose own list holds an integral
    # isometry contradicts itself.
    doc = copy.deepcopy(wilson_doc)
    doc["certificate"] = {
        "verdict": "NoIntegralIsometry",
        "witness": None,
        "detail": {"candidates": [doc["candidates"][0]["matrix"]], "joint_survivors": 1},
    }
    doc["candidates"] = []
    assert verify_document(doc) is False


@pytest.mark.parametrize("which", ["wilson", "quaternary"])
def test_verify_rejects_extra_row(which, wilson_doc, quaternary_doc):
    doc = copy.deepcopy(wilson_doc if which == "wilson" else quaternary_doc)
    doc["candidates"][0]["matrix"].append(["0"] * len(doc["candidates"][0]["matrix"]))
    assert verify_document(doc) is False


def test_verify_rejects_extra_row_in_certificate_list(quaternary_doc):
    doc = copy.deepcopy(quaternary_doc)
    rows = doc["certificate"]["detail"]["candidates"][0]
    rows.append(["0"] * len(rows))
    assert verify_document(doc) is False


def _products(monkeypatch, doc) -> int:
    """The number of pullback tests that verify_document(doc) makes; it
    must accept doc."""
    calls = []
    real = IsometryProblem.pulls_back

    def counted(self, num, den, factors=()):
        calls.append(den)
        return real(self, num, den, factors)

    monkeypatch.setattr(IsometryProblem, "pulls_back", counted)
    assert verify_document(doc) is True
    monkeypatch.undo()
    return len(calls)


def test_verify_checks_a_shared_candidate_list_once(quaternary_doc, monkeypatch):
    # The certificate of a NoIntegralIsometry document lists the same
    # matrices as its top-level candidates; the list is checked once, with
    # one product per orbit of <G, -1>: |<G, -1>| = 8 here, so 28 products
    # for 224 candidates (one per candidate, 224, before verify used G).
    assert quaternary_doc["certificate"]["detail"]["candidates"] == [
        entry["matrix"] for entry in quaternary_doc["candidates"]
    ]
    assert len(_signed_automorphisms(_problem_from_inputs(quaternary_doc["inputs"]))) == 4
    assert (_products(monkeypatch, quaternary_doc), len(quaternary_doc["candidates"])) == (28, 224)


def test_verify_checks_each_candidate_once_when_only_the_identity_fixes_b_and_w(monkeypatch):
    # quaternary_pair in the coordinates of helpers.TWIST: the same 224
    # candidates up to the change of basis, but G is the identity alone,
    # so the shared list is checked once with one product per +-pair.
    pf = load_problem(str(PROBLEMS / "quaternary_pair.txt"))
    problem = twisted_problem(pf.target, pf.w, pf.gram)
    doc = json.loads(document_json(result_document(problem, find_isometries(problem))))
    assert doc["certificate"]["verdict"] == "NoIntegralIsometry"
    assert len(_signed_automorphisms(_problem_from_inputs(doc["inputs"]))) == 1
    assert (_products(monkeypatch, doc), len(doc["candidates"])) == (112, 224)


def test_verify_rejects_integral_isometries_in_a_shared_list(wilson_doc):
    # The certificate lists exactly the top-level candidates, all of them
    # integral isometries flagged as such: the shared check must still
    # reject a NoIntegralIsometry verdict.
    doc = copy.deepcopy(wilson_doc)
    doc["certificate"] = {
        "verdict": "NoIntegralIsometry",
        "witness": None,
        "detail": {"candidates": [entry["matrix"] for entry in doc["candidates"]], "joint_survivors": 384},
    }
    assert verify_document(doc) is False


@pytest.mark.parametrize("where", ["top-level", "certificate"])
def test_verify_checks_both_lists_when_they_differ(where, quaternary_doc):
    doc = copy.deepcopy(quaternary_doc)
    lists = {
        "top-level": [entry["matrix"] for entry in doc["candidates"]],
        "certificate": doc["certificate"]["detail"]["candidates"],
    }
    # Only one list is forged, so the two differ and each is checked.
    lists[where][7][0][0] = "5/7"
    assert verify_document(doc) is False
    # Lists that differ but hold only true statements still verify.
    doc = copy.deepcopy(quaternary_doc)
    doc["candidates"].pop()
    assert verify_document(doc) is True


@pytest.mark.parametrize("where", ["top-level", "certificate", "both"])
@pytest.mark.parametrize("first", ["non-isometry", "unparsable"])
@pytest.mark.parametrize("broken", ["1/0", "x"])
def test_verify_rejects_a_non_isometry_next_to_an_unparsable_entry(where, first, broken, quaternary_doc, tmp_path, capsys):
    # Each candidate list is read whole before any matrix is checked, so
    # an entry that does not parse, before or after a matrix that is no
    # isometry, must still reject the document, with exit 1.
    doc = copy.deepcopy(quaternary_doc)
    matrix = doc["candidates"][0]["matrix"]
    wrong = [["5/7", *matrix[0][1:]], *matrix[1:]]
    b, bp = (Mat([[Fraction(x) for x in row] for row in doc["inputs"][key]]) for key in ("B", "Bprime"))
    m = Mat([[Fraction(x) for x in row] for row in wrong])
    assert m.transpose() @ b @ m != bp
    pair = [wrong, [[broken, *matrix[0][1:]], *matrix[1:]]]
    if first == "unparsable":
        pair.reverse()
    if where != "certificate":
        doc["candidates"][:2] = [{"integral": False, "matrix": rows} for rows in pair]
    if where != "top-level":
        doc["certificate"]["detail"]["candidates"][:2] = copy.deepcopy(pair)
    assert verify_document(doc) is False
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 1
    assert capsys.readouterr() == ("verification FAILED\n", "")


LIST_SHAPED = {
    "detail": ("quaternary", _set_path("certificate", "detail"), [1]),
    "witness-detail": ("wilson", _set_path("certificate", "detail"), ["integral_count", 384]),
    "certificate": ("quaternary", _set_path("certificate"), [{"verdict": "NoIntegralIsometry"}]),
    "certificate-string": ("wilson", _set_path("certificate"), "IsometricWitness"),
}


@pytest.mark.parametrize("place", sorted(LIST_SHAPED))
def test_verify_fails_on_a_certificate_that_is_not_an_object(place, wilson_doc, quaternary_doc, tmp_path, capsys):
    which, edit, value = LIST_SHAPED[place]
    doc = copy.deepcopy(wilson_doc if which == "wilson" else quaternary_doc)
    edit(doc, value)
    assert verify_document(doc) is False
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == "verification FAILED\n"


def test_document_json_equals_json_dumps(wilson_doc, quaternary_doc):
    docs = [wilson_doc, quaternary_doc]
    for doc in docs:
        assert document_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    shapes = [
        {}, [], "x", 7, None, True, False, {"a": [], "b": {}, "c": [[]], "d": [[], ["1"]]},
        {"z": [1, "x", None, True, False, 2.5, -0.0, float("inf"), float("nan"), 2**80]},
        {"rows": [["é", "\"q\"\n", "€"], ("t", "u")], "deep": [[["a"], ["b", 1]], {"k": []}]},
        # A first item that is a string does not make a list of strings.
        ["a", 1], ["a", ["b"]], ["a", None, True], [["a", "b"], ["c", 1]], [["a"], "b"], [["a"], ("b",)],
        {"n": None, "t": True, "f": False, "l": [None, True, False], "m": [["1", "1"], ["1", "1"]]},
        # Candidate entries and matrices of entry texts as tuples, and near
        # misses of either shape.
        [{"integral": True, "matrix": (("1", "-1/2"), ("0", "1"))}, {"integral": 1, "matrix": (("1",),)}],
        [{"integral": False, "matrix": [["1"]]}, {"integral": True, "matrix": ()}, {"integral": True, "x": 1}],
        [((), ("a",)), (("a",), "bc"), ("a", ("b",)), {"m": (("1", "2"),), "k": [(("3",),)]}],
        # Lists of entries, written in one pass, sharing a row under both
        # flags and at two depths; and lists that turn out not to be
        # entries after the first item.
        {"c": [{"integral": False, "matrix": (("1", "2"),)}, {"integral": True, "matrix": (("1", "2"), ("-3", "4"))}],
         "d": {"c": [{"integral": True, "matrix": (("1", "2"),)}]}},
        [{"integral": True, "matrix": (("1",),)}, {"integral": False, "matrix": (("2", "3"),)}, 5],
        [{"integral": True, "matrix": (("1",),)}, {"integral": True, "matrix": (("1",),), "x": 0}],
    ]
    for x in shapes:
        assert document_json(x) == json.dumps(x, sort_keys=True, indent=2) + "\n"
    # Candidates over den > 1 with negative entries, rows shared by a
    # candidate and its negation, and a witness whose provenance holds
    # atilde = -2/3 as a numerator over dp = 3.
    problem = IsometryProblem(GramForm(Mat.identity(2)), GramForm(Mat.identity(2)), Vec([1, 0]))
    half = CandidateIsometry([[-3, 4], [3, -4]], 8)
    rational = [half, negated_candidate(half), CandidateIsometry([[-3, 0], [10, -42]], 6)]
    for cand in rational:
        assert cand.entry_strings == tuple(tuple(str(x) for x in row) for row in cand.matrix.rows)
    witness = CandidateIsometry([[0, -1], [1, 0]], 1, (1, 0, 0, -2, 0, 1, 0), 3)
    assert witness.provenance[2] == (Fraction(-2, 3), 0)
    for cands, cert in [
        (rational, Certificate("NoIntegralIsometry", detail={"candidates": [c.entry_strings for c in rational]})),
        ([witness, negated_candidate(witness)], Certificate("IsometricWitness", witness=witness, detail={"integral_count": 2})),
    ]:
        doc = result_document(problem, SearchResult(cands, cert, SearchStats()), options={"all": True, "x": None})
        assert document_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "prov, dp, want",
    [
        ((1, 0, 0, -2, 3, 1, 0), 3, [1, [0, 0], ["-2/3", "1"], [[1, 0]]]),
        ((-2, 4, -1, 6, -4, 0, 5), 4, [-2, [4, -1], ["3/2", "-1"], [[0, 5]]]),
        ((0, 1, 1, 2, 0, -1, 1), 1, [0, [1, 1], ["2", "0"], [[-1, 1]]]),
        ((), 1, []),
    ],
)
def test_witness_provenance_is_written_from_the_flat_integers(prov, dp, want):
    # The document's provenance is the nested view with atilde as the
    # texts of its Fractions, written without building them.
    witness = CandidateIsometry([[0, -1], [1, 0]], 1, prov, dp)
    got = certificate_payload(Certificate("IsometricWitness", witness=witness))["witness"]["provenance"]
    assert got == want
    if prov:
        s, btilde, atilde, cs = witness.provenance
        assert got == [s, list(btilde), list(map(str, atilde)), list(map(list, cs))]


def test_verify_rejects_a_no_integral_isometry_verdict_with_no_candidates(wilson_doc, tmp_path, capsys):
    # The Wilson pair is isometric, so a NoIntegralIsometry certificate
    # that lists no candidates is a forgery: verify re-derives the verdict
    # from B and B', not from the (empty) list alone.
    doc = copy.deepcopy(wilson_doc)
    doc["certificate"] = {"verdict": "NoIntegralIsometry", "witness": None, "detail": {}}
    doc["candidates"] = []
    accepted = verify_document(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = cli.main(["verify", str(path)])
    assert (accepted, code, capsys.readouterr().out) == (False, 1, "verification FAILED\n")


def test_verify_rejects_a_no_integral_isometry_verdict_over_the_rational_candidates(tmp_path, capsys):
    # A Kneser-neighbour pair that is isometric: its --all document lists
    # rational and integral candidates.  Drop the integral ones and relabel
    # the certificate NoIntegralIsometry over the rest, listed exactly as
    # the top-level entries.  Every listed candidate still re-multiplies
    # and none is integral, so only re-deriving the verdict rejects it,
    # on the shortcut of verify_document as in verify_certificate.
    pair = gen.neighbour(7, 10, 4)[5]
    problem = IsometryProblem(GramForm(Mat(pair.gram)), GramForm(Mat(pair.target)), Vec(pair.w))
    doc = json.loads(document_json(result_document(problem, find_isometries(problem))))
    assert verify_document(doc) and doc["certificate"]["verdict"] == "IsometricWitness"
    rational = [entry for entry in doc["candidates"] if not entry["integral"]]
    assert (len(doc["candidates"]), len(rational)) == (28, 24)
    doc["candidates"] = rational
    doc["certificate"] = {
        "verdict": "NoIntegralIsometry",
        "witness": None,
        "detail": {"candidates": [entry["matrix"] for entry in rational], "joint_survivors": 24},
    }
    cert = Certificate("NoIntegralIsometry", detail=doc["certificate"]["detail"])
    assert (verify_document(doc), verify_certificate(cert, problem)) == (False, False)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert (cli.main(["verify", str(path)]), capsys.readouterr().out) == (1, "verification FAILED\n")


def test_verify_rejects_a_no_integral_isometry_verdict_on_an_indefinite_form(tmp_path, capsys):
    # B = B' is indefinite, so the oracle search that re-derives the verdict
    # raises NotPositiveDefinite, and that rejects the verdict.
    rows = [["1", "2"], ["2", "1"]]
    cert = Certificate("NoIntegralIsometry", detail={"candidates": []})
    doc = {
        "inputs": {"n": 2, "B": rows, "Bprime": rows, "w": [1, 0], "z0": [[0, 1]]},
        "candidates": [],
        "certificate": certificate_payload(cert),
    }
    problem = IsometryProblem(GramForm(Mat(rows)), GramForm(Mat(rows)), Vec([1, 0]), probes=[(0, 1)])
    assert problem.det_mismatch is False
    assert (verify_document(doc), verify_certificate(cert, problem)) == (False, False)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert (cli.main(["verify", str(path)]), capsys.readouterr().out) == (1, "verification FAILED\n")


@pytest.mark.parametrize("broken", [["x", "0", "0", "0"], ["1/0", "0", "0", "0"], ["nan", "0", "0", "0"], "0 0 0 0", [["1"], "0", "0", "0"]])
def test_verify_certificate_rejects_an_unparsable_listed_entry(broken, quaternary_doc):
    # verify_certificate is public: a NoIntegralIsometry certificate whose
    # list holds an entry or row that does not parse is false, and the
    # check returns False instead of raising, as verify_document does.
    pf = load_problem(str(PROBLEMS / "quaternary_pair.txt"))
    problem = IsometryProblem(GramForm(pf.gram), GramForm(pf.target), pf.w)
    detail = copy.deepcopy(quaternary_doc["certificate"]["detail"])
    assert verify_certificate(Certificate("NoIntegralIsometry", detail=detail), problem) is True
    detail["candidates"].insert(0, [broken] * 4)
    assert verify_certificate(Certificate("NoIntegralIsometry", detail=detail), problem) is False


# B = I2 against B' = diag(2, 1) at the anchor (1, 0).
DETERMINANT_PROBLEM = "n 2\nB\n1 0\n0 1\nBprime\n2 0\n0 1\nw 1 0\n"

# The command lines of the search-free documents, each run with --json,
# and the verdict each writes; None stands for the determinant problem's
# file.
SEARCH_FREE = {
    "determinant": (["factorize", None], "ObstructionDeterminant"),
    "binary_pair": (["factorize", str(PROBLEMS / "binary_pair.txt")], "ObstructionEq1"),
    "rank3": (["obstruct", "--family", "rank3", "--m", "3"], "ObstructionThreeSquares"),
    "squares": (["obstruct", "--N", "7", "--squares", "3"], "ObstructionThreeSquares"),
}


@pytest.mark.parametrize(
    "source, edit",
    [
        ("determinant", _put(("certificate", "detail", "det_source"), "5")),
        ("determinant", _put(("certificate", "detail"), {})),
        ("determinant", _put(("inputs", "Bprime", 0, 0), "3")),
        ("binary_pair", _put(("certificate", "detail", "norm"), 99)),
        ("binary_pair", _put(("certificate", "detail", "target"), -5)),
        ("binary_pair", _put(("certificate", "detail", "kernel_gram"), [[1000]])),
        ("binary_pair", _put(("certificate", "detail"), {})),
        ("binary_pair", _put(("certificate", "witness"), {"matrix": [["7", "0"], ["0", "7"]], "integral": True,
                                                          "provenance": []})),
        ("rank3", _put(("params", "m"), 4)),
        ("rank3", _put(("params", "family"), "rank2")),
        ("squares", _put(("params", "N"), 8)),
        ("squares", _put(("params", "squares"), 2)),
    ],
    ids=["det_source-5", "determinant-empty-detail", "Bprime00-3", "norm-99", "target--5", "kernel_gram-1000",
         "eq1-empty-detail", "eq1-witness-7I", "params-m-4", "params-family-rank2", "params-N-8", "params-squares-2"],
)
def test_verify_rebuilds_a_search_free_certificate(source, edit, tmp_path, capsys):
    # Each of these documents needs no search: verify rebuilds its whole
    # certificate, from the inputs or from obstruct's params, and compares.
    # A changed detail, a stray witness or params that no longer give the
    # certificate each fail, although the verdict itself still holds.
    problem = tmp_path / "det.txt"
    problem.write_text(DETERMINANT_PROBLEM, encoding="utf-8")
    argv, verdict = SEARCH_FREE[source]
    path = tmp_path / "doc.json"
    cli.main([str(problem) if arg is None else arg for arg in argv] + ["--json", str(path)])
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert verify_document(doc) and doc["certificate"]["verdict"] == verdict
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert (verify_document(doc), cli.main(["verify", str(path)])) == (False, 1)
    assert capsys.readouterr().out == "verification FAILED\n"


@pytest.mark.parametrize("which", ["wilson", "quaternary"])
def test_verify_rejects_a_squares_certificate_in_a_factorize_document(which, wilson_doc, quaternary_doc, tmp_path, capsys):
    # A squares certificate states a fact about its own parameters, not
    # about the document's B and B': in a factorize document it would
    # claim an obstruction of the pair, and it fails.
    doc = copy.deepcopy(wilson_doc if which == "wilson" else quaternary_doc)
    cert = family_obstruction("three_squares_rank3", m=3)
    assert verify_certificate(cert, None)
    doc["candidates"], doc["certificate"] = [], certificate_payload(cert)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert (verify_document(doc), cli.main(["verify", str(path)])) == (False, 1)
    assert capsys.readouterr().out == "verification FAILED\n"
