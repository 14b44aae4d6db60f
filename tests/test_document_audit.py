"""The single-edit audit of scripts/document_audit.py: on one document of
each verdict that factorize and obstruct write, the fields whose edits
verify still accepts are exactly the ones the script lists as reported,
not proven (README quotes that list)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


document_audit = _load("document_audit")


def test_verify_accepts_single_edits_only_in_reported_fields(tmp_path):
    docs = document_audit.documents(tmp_path)
    verdicts = {name: doc["certificate"]["verdict"] for name, doc in docs.items()}
    assert verdicts == {
        "wilson": "IsometricWitness",
        "binary_pair": "ObstructionEq1",
        "determinant": "ObstructionDeterminant",
        "quaternary_pair --all": "NoIntegralIsometry",
        "rank3 m=3": "ObstructionThreeSquares",
        "N=7 squares=3": "ObstructionThreeSquares",
    }
    for name, doc in docs.items():
        paths, edits = document_audit.accepted_paths(doc)
        assert edits > 0 and paths == sorted(document_audit.REPORTED[verdicts[name]]), name


def test_edits_cover_numbers_entry_texts_and_flags():
    assert document_audit._edits(3) == [4, 2]
    assert document_audit._edits(0.0) == [1.0, -1.0]
    assert document_audit._edits("-1/2") == ["1/2", "-3/2"]
    assert document_audit._edits(True) == [False]
    assert document_audit._edits("rank3") == document_audit._edits(None) == []
