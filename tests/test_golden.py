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

The same cases also pin `factorize` without `--all` (the first witness:
its document up to `"timing"`, stdout and exit code), `verify` on the
documents of both runs (stdout and exit code; `verify` of a document that
was never written exits 2), and `oracle` (stdout and exit code; the oracle
takes no anchor, so it is pinned once per file).  These were recorded at
the commit before candidates were kept as integer numerators, so the
witness provenance, the oracle's printing and the verify paths are pinned
across that change too.
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


# (file, extra arguments) -> (first-witness document sha256, stdout sha256,
# exit code) of `factorize FILE --json out.json`.
GOLDEN_FIRST = {
    ("binary_pair.txt", ()): (
        "df097c6adce386192857610f6f811e26f8ab1bb1482cf9bff40e3e28320c304d",
        "74d0dbfa7a4567d54fab7741474435040713f7681661aafedb752ee7421d5e1b",
        1,
    ),
    ("quaternary_pair.txt", ()): (
        "b0379b3f708a2c4568d51e31a942b9f08fefc96e899041c93c2c4a88ce36058b",
        "d7c262b434614b0ce9cac9dc78c90b7ee991fe536045072603cd334d95a87cf0",
        1,
    ),
    ("ternary_diag.txt", ()): (
        None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        2,
    ),
    ("wilson.txt", ()): (
        "18748e08c6114934314458993b4814763597106ff4e083e62efd962503d4272a",
        "555fa2f872f8f2ccc484ba55656ac191bad6d916fba25e0b012b09f0bc07ffca",
        0,
    ),
    ("wilson.txt", ("--w", "1 1 1 1")): (
        "843e3f6a7d2b97ac3a1152f5934afa8ee03ebf0a32e7394dde343062dfd55608",
        "c9a721edc7841b875eea4fc8c4007e32f6004bb7c9b44948472f4a22635651e8",
        0,
    ),
}

VERIFIED = ("1c41f636f930dfd4fd214ab1b081b7a3266ec38f7829881b31416a58cc8cdb5b", 0)
NO_DOCUMENT = ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2)

# (file, extra arguments) -> (stdout sha256, exit code) of `verify out.json`
# after `factorize FILE --json out.json`, with and without --all.
GOLDEN_VERIFY = {
    ("binary_pair.txt", ()): VERIFIED,
    ("quaternary_pair.txt", ()): VERIFIED,
    ("ternary_diag.txt", ()): NO_DOCUMENT,
    ("wilson.txt", ()): VERIFIED,
    ("wilson.txt", ("--w", "1 1 1 1")): VERIFIED,
}

# file -> (stdout sha256, exit code) of `oracle FILE`.
GOLDEN_ORACLE = {
    "binary_pair.txt": ("8cae54bd777d2237ba9ab9d0aebd0ab270187387673c2f1bee1eaf120661231c", 1),
    "quaternary_pair.txt": ("8cae54bd777d2237ba9ab9d0aebd0ab270187387673c2f1bee1eaf120661231c", 1),
    "ternary_diag.txt": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "wilson.txt": ("3d3c5c60b82c11a90dbd8bb6e4fcd935d2a629b1d31a7ade9fead41d1c56787c", 0),
}


def _run(argv, capsys) -> tuple[str, int]:
    code = main(argv)
    return _sha(capsys.readouterr().out), code


def _document(path: Path):
    if not path.exists():
        return None
    text = path.read_text(encoding="utf-8")
    return _sha(text[: text.index('"timing"')])


@pytest.mark.parametrize("case", sorted(GOLDEN_FIRST), ids=lambda c: " ".join((c[0], *c[1])))
def test_factorize_first_witness_matches_golden(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    filename, extra = case
    stdout, code = _run(["factorize", str(PROBLEMS / filename), "--json", "out.json", *extra], capsys)
    assert (_document(Path("out.json")), stdout, code) == GOLDEN_FIRST[case]


@pytest.mark.parametrize("mode", [(), ("--all",)], ids=["first", "all"])
@pytest.mark.parametrize("case", sorted(GOLDEN_VERIFY), ids=lambda c: " ".join((c[0], *c[1])))
def test_verify_matches_golden(case, mode, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    filename, extra = case
    main(["factorize", str(PROBLEMS / filename), *mode, "--json", "out.json", *extra])
    capsys.readouterr()
    assert _run(["verify", "out.json"], capsys) == GOLDEN_VERIFY[case]


@pytest.mark.parametrize("filename", sorted(GOLDEN_ORACLE))
def test_oracle_matches_golden(filename, capsys):
    assert _run(["oracle", str(PROBLEMS / filename)], capsys) == GOLDEN_ORACLE[filename]
