"""The comparison of scripts/output_contract.py --check."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_contract.py"
spec = importlib.util.spec_from_file_location("output_contract", SCRIPT)
output_contract = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_contract)


def test_check_names_every_differing_case():
    before = {
        "a factorize": {"exit": 0, "stdout": "1", "document": "d"},
        "a oracle": {"exit": 0, "stdout": "2"},
        "b oracle": {"exit": 1, "stdout": "3"},
        "c oracle": {"exit": 1, "stdout": "4"},
    }
    assert output_contract.check(before, dict(before)) == []
    now = dict(before)
    now["a factorize"] = {"exit": 0, "stdout": "1", "document": "e"}
    now["b oracle"] = {"exit": 2, "stdout": "3"}
    del now["c oracle"]
    now["d oracle"] = {"exit": 0, "stdout": "5"}
    lines = output_contract.check(before, now)
    assert [line.split(":")[1].strip() for line in lines] == ["a factorize", "b oracle", "c oracle", "d oracle"]
    assert all(line.startswith("differs: ") for line in lines)
