"""`superlat oracle` on the command line: the order of its input checks,
its listing against the public brute_force_isometries, and the integer
path from the parsed Gram rows to the printed listing."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from helpers import rand_pullback_problem, watch_builds
from superlat import cli
from superlat.forms import GramForm
from superlat.isometry import brute_force_isometries
from superlat.problem_io import load_problem, parse_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
DEGENERATE = "invariant violation: Gram matrix is degenerate\n"
NON_INTEGRAL = "invariant violation: both Gram matrices must be integral\n"


def _text(gram, target, w="1 0") -> str:
    """A problem file with the rows of B, of B' (None: no block) and w, each given as one line of text."""
    blocks = [f"n {len(gram)}", "B", *gram, *(["Bprime", *target] if target is not None else []), f"w {w}"]
    return "\n".join(blocks) + "\n"


def _line(entries) -> str:
    return " ".join(map(str, entries))


HALF = ("1 1/2", "1/2 1")
HALVES = ("1/2 1/2", "1/2 1/2")
ONES = ("1 1", "1 1")
I2 = ("1 0", "0 1")
INDEFINITE = ("1 2", "2 1")


@pytest.mark.parametrize("gram, target, code, err", [
    # Degenerate and non-integral: the degenerate form is reported.
    (HALVES, I2, 3, DEGENERATE),
    # B non-integral, B' degenerate: B' is checked for degeneracy before
    # either form for integrality.
    (HALF, ONES, 3, DEGENERATE),
    (HALF, HALF, 3, NON_INTEGRAL),
    # Integrality before definiteness, and a degenerate B' before both.
    (("1 3/2", "3/2 1"), I2, 3, NON_INTEGRAL),
    (INDEFINITE, HALF, 3, NON_INTEGRAL),
    (INDEFINITE, ONES, 3, DEGENERATE),
    (INDEFINITE, I2, 4, "unsupported: pivot 1 is -3\n"),
    # B is checked before the missing B' is noticed, integrality after it.
    (ONES, None, 3, DEGENERATE),
    (HALF, None, 2, "error: problem file has no 'Bprime' block\n"),
])
def test_oracle_check_order(gram, target, code, err, tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text(_text(gram, target))
    assert cli.main(["oracle", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def _cases():
    texts = [text for p in sorted(PROBLEMS.glob("*.txt")) if parse_problem(text := p.read_text()).target is not None]
    rng = random.Random(32)
    for _ in range(6):
        gram, target, w, _ = rand_pullback_problem(rng, sizes=(2, 3, 4))
        texts.append(_text([*map(_line, gram.rows)], [*map(_line, target.rows)], _line(w)))
    return texts


@pytest.mark.parametrize("text", _cases())
@pytest.mark.parametrize("bound", [None, 1])
def test_oracle_listing_matches_the_public_search(text, bound, tmp_path, capsys):
    path = tmp_path / "p.txt"
    path.write_text(text)
    pf = load_problem(str(path))
    found = brute_force_isometries(GramForm(pf.gram), GramForm(pf.target), bound=bound)
    argv = ["oracle", str(path), *(["--bound", str(bound)] if bound is not None else [])]
    assert cli.main(argv) == (0 if found else 1)
    header = f"brute-force isometries: {len(found)}"
    assert capsys.readouterr().out == cli.matrix_listing(header, [m.rows for m in found])


def test_oracle_builds_no_rational_objects_after_parsing(monkeypatch, capsys):
    # Parsing is watched too: the file is read straight into integer rows.
    built = watch_builds(monkeypatch, "Fraction", "Mat", "GramForm")
    assert cli.main(["oracle", str(PROBLEMS / "wilson.txt")]) == 0
    monkeypatch.undo()
    assert capsys.readouterr().out.startswith("brute-force isometries: 384\n")
    assert built == []
