"""The benchmark's tracer (perfbench/spans.py) wraps package names from
outside; installing it on the package fails if any of them is gone, and
its counters on Wilson's --all and oracle runs are pinned."""

from __future__ import annotations

from pathlib import Path

from helpers import WILSON, twisted_problem_text

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_and_counts(monkeypatch, capsys, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    from superlat import cli

    out = tmp_path / "wilson.json"
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert cli.main(["factorize", str(ROOT / "problems" / "wilson.txt"), "--all", "--json", str(out)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    # The counters read len() of what the wrapped functions take and
    # return, so they pin the shape of the search's solution lists.  The
    # 48 signed permutations of I_4 that fix e_1 leave 3 of the eq1
    # shell's 24 +-pairs to search; without them it filtered 10368 rows,
    # kept 456 and reconstructed 192 tuples (test_plain_path_counts).
    want = {
        "diophantine.vectors_of_norm.calls": 4,
        "diophantine.vectors_of_norm.vectors": 480,
        "isometry.solve_eq1.solutions": 48,
        "isometry.solve_eq3_per_z0.solutions": 432,
        "isometry.filter_eq2.tested": 1296,
        "isometry.filter_eq2.kept": 57,
        "isometry.assemble.tuples": 384,
        "isometry.reconstruct.calls": 24,
        "isometry.reconstruct.accepted": 24,
        "isometry.reconstruct.integral": 24,
    }
    assert {key: tracer.counts[key] for key in want} == want
    assert "isometry.solve_eq1" in tracer.names
    # factorize renders its document through document_json; the text is
    # ASCII, so its length is the written file's size.
    assert tracer.counts["problem_io.document_json.bytes"] == out.stat().st_size > 0


def test_plain_path_counts(monkeypatch, capsys, tmp_path):
    # Wilson's problem in the coordinates of helpers.TWIST: the same shells
    # and pairings, but no signed permutation other than the identity fixes
    # its anchor and B, so --all searches every +-pair of the eq1 shell.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    from superlat import cli

    path = tmp_path / "twisted.txt"
    path.write_text(twisted_problem_text(WILSON, (1, 0, 0, 0)), encoding="utf-8")
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert cli.main(["factorize", str(path), "--all"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    want = {
        "isometry.solve_eq1.solutions": 48,
        "isometry.solve_eq3_per_z0.solutions": 432,
        "isometry.filter_eq2.tested": 10368,
        "isometry.filter_eq2.kept": 456,
        "isometry.assemble.tuples": 384,
        "isometry.reconstruct.calls": 192,
        "isometry.reconstruct.accepted": 192,
        "isometry.reconstruct.integral": 192,
    }
    assert {key: tracer.counts[key] for key in want} == want


def test_tracer_records_the_oracle(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    from superlat import cli

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert cli.main(["oracle", str(ROOT / "problems" / "wilson.txt")]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.startswith("brute-force isometries: 384\n")
    # The oracle's per-layer time and its shells: one per column.
    assert "isometry.brute_force_isometries" in tracer.names
    assert tracer.inclusive_times()["isometry.brute_force_isometries"] > 0
    assert tracer.counts["diophantine.vectors_of_norm.calls"] == 4
    assert tracer.counts["diophantine.vectors_of_norm.vectors"] == 480
