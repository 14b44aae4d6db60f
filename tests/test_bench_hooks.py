"""The benchmark's tracer (perfbench/spans.py) wraps package names from
outside; installing it on the package fails if any of them is gone."""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_and_counts(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans

    from superlat import cli

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert cli.main(["factorize", str(ROOT / "problems" / "wilson.txt"), "--all"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.counts["isometry.solve_eq1.solutions"] == 48
    assert "isometry.solve_eq1" in tracer.names
