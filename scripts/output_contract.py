#!/usr/bin/env python3
"""Fingerprint the output contract of the superlat command line.

For every example problem in ``problems/``, Wilson's matrix anchored at
(1,1,1,1), and the problem files of the three benchmark workloads written
by ``perfbench/gen.py`` with probe seeds 1 and 5, the script runs in one
process, through ``superlat.cli.main``:

* ``factorize FILE --json FIRST`` (first witness),
* ``factorize FILE --all --json ALL``,
* ``factorize FILE --all --integral-only --json INTEGRAL``,
* ``verify`` on each of the three documents,
* ``oracle FILE`` and ``oracle FILE --bound 1``.

For every example problem and Wilson's matrix anchored at (1,1,1,1) it
also runs ``grade-basis FILE``, ``decompose FILE`` (identity map) and
``decompose FILE --phi PHI`` with a fixed n x n rational matrix PHI
written to the temporary directory.

It runs ``obstruct ... --json DOC`` on a few parameter sets of the
rank-2 and rank-3 families (the rank-3 family with default and explicit
alpha, beta, gamma) and on single constants with ``--squares 2`` and
``--squares 3``, and ``verify DOC`` on every document written.

It prints one JSON object that maps each case to its exit code, the sha256
of its standard output and, for the factorize and obstruct runs, the
sha256 of the document up to its ``"timing"`` key.  Temporary paths are replaced by a
placeholder before hashing, so two checkouts whose command line behaves
the same print the same object.  Usage, from the root of a checkout::

    PYTHONPATH=src python3 scripts/output_contract.py > contract.json

With ``--check BEFORE.json`` it compares the object of this checkout with
one printed before (say, by the parent commit), names every case whose
exit code or hash differs or that only one of the two holds, and exits 1
when there is any such case, 0 otherwise::

    PYTHONPATH=src python3 scripts/output_contract.py --check contract.json

The perfbench files are only read (its generator is imported), never
changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402

from superlat.cli import main as superlat_main  # noqa: E402
from superlat.problem_io import load_problem  # noqa: E402

# Problems per workload, as the benchmark draws them (perfbench/run.py).
WORKLOAD_COUNTS = {"wilson": 7, "pullback": 5, "neighbour": 10}
PROBE_SEEDS = (1, 5)

# obstruct arguments; the last case of each family has bad parameters.
OBSTRUCT_CASES = (
    "--family rank2 --m 3 --n 1 --alpha 3 --beta 0 --gamma 3",
    "--family rank2 --m 1 --n 2 --alpha 5 --beta 1 --gamma 1",
    "--family rank2 --m 2 --n 1 --alpha 2 --beta 0 --gamma 2",
    "--family rank2 --m 1 --n 1 --alpha 1 --beta 1 --gamma 1",
    "--family rank3 --m 1",
    "--family rank3 --m 3",
    "--family rank3 --m 1 --alpha 8 --beta -2 --gamma 1",
    "--family rank3 --m 3 --alpha 18 --beta 0 --gamma 18",
    "--family rank3 --m 1 --alpha 1 --beta 0 --gamma 1",
    "--N 3 --squares 2",
    "--N 25 --squares 2",
    "--N 7 --squares 3",
    "--N 6 --squares 3",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv: list[str], tmp: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = superlat_main(argv)
    return code, out.getvalue().replace(tmp, "<tmp>")


def _document(path: Path) -> str | None:
    if not path.exists():
        return None
    text = path.read_text(encoding="utf-8")
    return _sha(text[: text.find('"timing"')])


def _phi_text(n: int) -> str:
    """A fixed n x n matrix of rationals of both signs, as a --phi file holds it."""
    rows = ([f"{(3 * i + j) % 5 - 2}/{1 + (i + j) % 3}" for j in range(n)] for i in range(n))
    return "".join(" ".join(row) + "\n" for row in rows)


def _example_cases() -> list[tuple[str, list[str]]]:
    """(case name, arguments from the file name on) of the example problems."""
    cases = [(f"problems/{p.name}", [str(p)]) for p in sorted(PROBLEMS.glob("*.txt"))]
    cases.append(("problems/wilson.txt --w 1,1,1,1", [str(PROBLEMS / "wilson.txt"), "--w", "1,1,1,1"]))
    return cases


def _cases(tmp: Path) -> list[tuple[str, list[str]]]:
    """(case name, factorize arguments from the file name on)."""
    cases = _example_cases()
    for workload, count in WORKLOAD_COUNTS.items():
        for seed in PROBE_SEEDS:
            directory = tmp / f"{workload}-{seed}"
            for path in gen.write_workload(workload, seed, count, directory, PROBLEMS):
                cases.append((f"{workload}/seed{seed}/{path.name}", [str(path)]))
    return cases


def contract() -> dict:
    out: dict = {}
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for k, (case, args) in enumerate(_cases(tmp)):
            for mode, extra in (
                ("factorize", []),
                ("factorize --all", ["--all"]),
                ("factorize --all --integral-only", ["--all", "--integral-only"]),
            ):
                doc = tmp / f"doc{k}-{len(extra)}.json"
                code, stdout = _run(["factorize", *args, *extra, "--json", str(doc)], name)
                out[f"{case} {mode}"] = {"exit": code, "stdout": _sha(stdout), "document": _document(doc)}
                if doc.exists():
                    code, stdout = _run(["verify", str(doc)], name)
                    out[f"{case} {mode} | verify"] = {"exit": code, "stdout": _sha(stdout)}
            for extra in ([], ["--bound", "1"]):
                code, stdout = _run(["oracle", args[0], *extra], name)
                out[" ".join([case, "oracle", *extra])] = {"exit": code, "stdout": _sha(stdout)}
        for case, args in _example_cases():
            phi = tmp / f"phi-{Path(args[0]).name}"
            phi.write_text(_phi_text(load_problem(args[0]).n), encoding="utf-8")
            for mode, extra in (("grade-basis", []), ("decompose", []), ("decompose --phi", ["--phi", str(phi)])):
                code, stdout = _run([mode.split()[0], *args, *extra], name)
                out[f"{case} {mode}"] = {"exit": code, "stdout": _sha(stdout)}
        for k, case in enumerate(OBSTRUCT_CASES):
            doc = tmp / f"obstruct{k}.json"
            code, stdout = _run(["obstruct", *case.split(), "--json", str(doc)], name)
            out[f"obstruct {case}"] = {"exit": code, "stdout": _sha(stdout), "document": _document(doc)}
            if doc.exists():
                code, stdout = _run(["verify", str(doc)], name)
                out[f"obstruct {case} | verify"] = {"exit": code, "stdout": _sha(stdout)}
    return out


def check(before: dict, now: dict) -> list[str]:
    """One line per case whose entry differs between before and now."""
    lines = []
    for case in sorted(before.keys() | now.keys()):
        if before.get(case) != now.get(case):
            lines.append(f"differs: {case}: {before.get(case)} -> {now.get(case)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="BEFORE.json", help="compare with a contract printed before")
    args = parser.parse_args(argv)
    now = contract()
    if args.check is None:
        json.dump(now, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    before = json.loads(Path(args.check).read_text(encoding="utf-8"))
    lines = check(before, now)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(before.keys() | now.keys())} cases differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
