"""The streamed `factorize --json` file and the integer candidate check of
verify_document keep the behaviour of the text-building and Mat-based
versions they replaced."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from superlat import cli
from superlat.problem_io import document_json, verify_document

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


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


@pytest.mark.parametrize(
    "args",
    [
        (str(PROBLEMS / "wilson.txt"),),
        (str(PROBLEMS / "quaternary_pair.txt"),),
        (str(PROBLEMS / "binary_pair.txt"),),
    ],
)
def test_streamed_file_equals_document_json(args, tmp_path, monkeypatch, capsys):
    text, doc = _factorize(tmp_path, monkeypatch, capsys, *args)
    assert text == document_json(doc)


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
