"""The output contract of scripts/output_contract.py against its committed
fingerprint, the comparison of its --check, and a smoke run of
scripts/stage_times.py, which reads its stage times from the perfbench
tracer's spans of real command-line calls."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
CONTRACT = Path(__file__).resolve().parent / "data" / "output_contract.json"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


output_contract = _load("output_contract")


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


def test_output_contract_is_unchanged():
    # Every case (factorize, verify, oracle and obstruct runs, see the
    # script) keeps its exit code and output hashes.  The cases include the
    # problems that perfbench/gen.py writes, so a change to the generator
    # re-records data/output_contract.json and says so in CHANGES.md.
    committed = json.loads(CONTRACT.read_text(encoding="utf-8"))
    assert output_contract.check(committed, output_contract.contract()) == []


def test_stage_times_runs_every_stage_on_wilson():
    stage_times = _load("stage_times")
    times, first, automorphisms = stage_times.traced_pass((stage_times.PROBLEMS / "wilson.txt").read_text(encoding="utf-8"))
    assert {"solve_eq1", "filter_eq2", "reconstruct", "negate", "orbit_images", "setup", "verify_document", "verify_certificate", "oracle", "oracle_listing", "oracle_shells"} <= set(times)
    assert all(t >= 0 for t in times.values())
    # The 192 negations of the --all search and the orbit images of its
    # 48 signed permutations are timed where they run.
    assert (first, automorphisms) == ("eq1", 48)
    assert times["negate"] > 0 and times["orbit_images"] > 0
    # Set-up holds the problem's construction and the tables first read.
    assert times["setup"] > times["IsometryProblem"] > 0
