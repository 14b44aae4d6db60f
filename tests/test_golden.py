"""Golden outputs of `superlat factorize --all --json`.

For each example problem, and for Wilson's matrix at anchor (1,1,1,1), the
test pins three things: the sha256 of the result document up to its
`"timing"` key (the only part that varies between runs), the sha256 of the
standard output, and the exit code.  The hashes were recorded with the
scan-based eq2 filter that the packed one replaced, so they pin the output
contract across changes of the search, not just determinism within one
version.

To regenerate them by hand after an intended change of output, run in an
empty directory, with the repository's `src` on PYTHONPATH and REPO the
repository root, for each case:

    python -m superlat.cli factorize REPO/problems/wilson.txt --all \\
        --json out.json > stdout.txt; echo "exit $?"
    python -c "import hashlib; d = open('out.json').read(); \\
        print(hashlib.sha256(d[:d.index('\\"timing\\"')].encode()).hexdigest())"
    sha256sum stdout.txt

(add `--w "1 1 1 1"` for the last case), then paste the values below.  A
case with no document (a parse error) pins the document hash as None.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from superlat.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

# (file, extra arguments) -> (document sha256, stdout sha256, exit code)
GOLDEN = {
    ("binary_pair.txt", ()): (
        "667c0ea8f14eef3c1fce30481f9542e8cbde8ed84399d74990ec624202a9cbab",
        "74d0dbfa7a4567d54fab7741474435040713f7681661aafedb752ee7421d5e1b",
        1,
    ),
    ("quaternary_pair.txt", ()): (
        "b3d75e73209b3007927f07945586bf76d52d1d7504bf3330d5e162574909eabd",
        "d7c262b434614b0ce9cac9dc78c90b7ee991fe536045072603cd334d95a87cf0",
        1,
    ),
    ("ternary_diag.txt", ()): (
        None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2,
    ),
    ("wilson.txt", ()): (
        "36305a3a7a8627905c5f633c2db2e745a8edecdcbd991a9cb1b17bfb198b8dc7",
        "361a5c168ffc7e5844cb356e2339e609176c6a6a0638e6e46571f23286e64ab4",
        0,
    ),
    ("wilson.txt", ("--w", "1 1 1 1")): (
        "cb8e3acff5e64a7f2a60c6b3813c8321a5a4a3574afe5600fdec0b1cfd20ec9f",
        "24021500c458512e956b2f057affed05ebd4210765315ce2e98a8b69629a61b9",
        0,
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _outputs(filename: str, extra: tuple[str, ...], capsys) -> tuple:
    """Run the case in the current directory; the document goes to the
    relative path out.json, so stdout does not depend on the directory."""
    out = Path("out.json")
    code = main(["factorize", str(PROBLEMS / filename), "--all", "--json", str(out), *extra])
    stdout = capsys.readouterr().out
    doc = None
    if out.exists():
        text = out.read_text(encoding="utf-8")
        doc = _sha(text[: text.index('"timing"')])
    return doc, _sha(stdout), code


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: " ".join((c[0], *c[1])))
def test_factorize_all_matches_golden(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _outputs(*case, capsys) == GOLDEN[case]
