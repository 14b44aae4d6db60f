#!/usr/bin/env python3
"""Time each stage of the benchmark's command-line calls, in-process, per problem.

One pass over a problem (each example in ``problems/`` with a target and an
anchor, and each benchmark workload problem of ``perfbench/gen.py``, probe
seed 1) runs ``factorize FILE --all --json OUT``, ``factorize FILE``,
``verify OUT`` and ``oracle FILE`` through ``superlat.cli.main``, each as a
root span ``cli.main[<command>]`` of a fresh perfbench tracer.  A stage of
``STAGES`` is the inclusive time of a span name under one root; each root
is also a stage, the whole call.  Under ``--all``,
``solve_eq3_per_z0.probe<i>`` is the i-th eq3 call, ``filter_eq2.first`` the
first eq2 filter, which packs the eq3 rows (only an eq1-first search
filters), ``filter_eq2.rest`` the others, and ``joint_search`` the self
time of ``find_isometries``.  ``load_problem`` is
the reading of the problem file (``parse_problem`` its parse),
``GramForm`` every construction of a ``superlat.forms.GramForm`` (B and B'
from the parsed integer rows), and ``verify_GramForm`` and
``verify_IsometryProblem`` the rebuilding of the problem from a
document's inputs.  ``setup`` is the problem's set-up under ``--all``:
its construction and the first reads of ``l0_form``, ``pair_targets``
and ``_recon_tables``, each wrapped from outside as the tracer wraps a
function.  ``verify_certificate`` is the certificate's own
check within ``verify_document``: the witness, or the certificate's
candidate list and the re-derivation of ``NoIntegralIsometry``;
``verify_document`` less it is the rebuilding of the problem and the
top-level candidate list.  ``oracle`` is the integer search the command
calls (``cli.brute_force_isometries``), ``oracle_listing`` its printed
listing; the command builds no ``GramForm``.  ``negate`` is every
negation of a candidate (``CandidateIsometry.__neg__``) in the ``--all``
search, and ``orbit_images`` every call that builds the candidates of an
orbit's other members (``isometry._orbit_images``).

Each stage keeps its best of ``--repeats`` passes.  The output is one JSON
object: per problem, its stage times in seconds, ``first_column``, the
shell ``--all`` places first (least of ``stats.eq1_raw`` and
``stats.eq3_per_probe``, eq1 on ties), and ``automorphisms``, the number
|G| of signed permutations that fix B and the anchor (``--all`` takes the
orbit path when it is above 1 and every shell is non-empty); and a
``total`` per stage::

    PYTHONPATH=src python3 scripts/stage_times.py --repeats 5
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
import spans  # noqa: E402

from superlat import cli, isometry  # noqa: E402
from superlat.forms import GramForm  # noqa: E402
from superlat.isometry import CandidateIsometry, IsometryProblem  # noqa: E402

# Problems per workload, as the benchmark draws them (perfbench/run.py).
WORKLOAD_COUNTS = {"wilson": 7, "pullback": 5, "neighbour": 10}
PROBE_SEED = 1
ALL = "factorize --all"
STAGES = {  # stage: (command, span name)
    "load_problem": (ALL, "cli.load_problem"),
    "parse_problem": (ALL, "problem_io.parse_problem"),
    "GramForm": (ALL, "forms.GramForm"),
    "IsometryProblem": (ALL, "isometry.IsometryProblem"),
    "solve_eq1": (ALL, "isometry.solve_eq1"),
    "solve_eq3_per_z0": (ALL, "isometry.solve_eq3_per_z0"),
    "filter_eq2": (ALL, "isometry.filter_eq2"),
    "reconstruct": (ALL, "isometry.reconstruct"),
    "find_isometries": (ALL, "isometry.assemble"),
    "negate": (ALL, "isometry.CandidateIsometry.__neg__"),
    "orbit_images": (ALL, "isometry._orbit_images"),
    "all_listing": (ALL, "cli.matrix_listing"),
    "result_document": (ALL, "problem_io.result_document"),
    "document_json": (ALL, "problem_io.document_json"),
    "first_witness": ("factorize", "isometry.assemble"),
    "verify_document": ("verify", "problem_io.verify_document"),
    "verify_certificate": ("verify", "isometry.verify_certificate"),
    "verify_GramForm": ("verify", "forms.GramForm"),
    "verify_IsometryProblem": ("verify", "isometry.IsometryProblem"),
    "oracle": ("oracle", "isometry.brute_force_isometries"),
    "oracle_shells": ("oracle", "diophantine.vectors_of_norm"),
    "oracle_listing": ("oracle", "cli.matrix_listing"),
}
# The set-up of a problem: its construction and the tables that its
# cached properties build when first read.
SETUP_TABLES = ("l0_form", "pair_targets", "_recon_tables")
SETUP = ("isometry.IsometryProblem", *(f"isometry.IsometryProblem.{name}" for name in SETUP_TABLES))


def traced_pass(text: str) -> tuple[dict[str, float], str | None, int | None]:
    """The stage times, the first column and |G| of one pass over the
    problem in text; ({}, None, None) when ``factorize`` rejects the file."""
    tracer, results = spans.Tracer(), []  # results[0]: the --all run's (problem, SearchResult)
    spans.install(tracer)
    tracer.wrap(cli, "matrix_listing", "cli.matrix_listing")
    tracer.wrap(cli, "load_problem", "cli.load_problem")
    tracer.wrap(GramForm, "__init__", "forms.GramForm")
    tracer.wrap(CandidateIsometry, "__neg__", "isometry.CandidateIsometry.__neg__")
    tracer.wrap(isometry, "_orbit_images", "isometry._orbit_images")
    tracer.wrap(cli, "find_isometries", "cli.find_isometries", lambda counts, r, a, k: results.append((a[0], r)))
    for name in SETUP_TABLES:
        tracer.wrap(vars(IsometryProblem)[name], "func", f"isometry.IsometryProblem.{name}")
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path, doc = str(Path(tmp) / "problem.txt"), str(Path(tmp) / "result.json")
            Path(path).write_text(text, encoding="utf-8")
            argvs = {ALL: ["factorize", path, "--all", "--json", doc], "factorize": ["factorize", path],
                     "verify": ["verify", doc], "oracle": ["oracle", path]}
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes = {c: tracer.span(f"cli.main[{c}]", cli.main, argv) for c, argv in argvs.items()}
    finally:
        tracer.uninstall()
    if codes[ALL] not in (0, 1):
        return {}, None, None

    roots = {name[len("cli.main["):-1]: members for name, members in tracer.by_root().items()}
    inclusive = {command: tracer.inclusive_times(members) for command, members in roots.items()}
    times = {stage: inclusive[command][name] for stage, (command, name) in STAGES.items() if name in inclusive[command]}
    times.update({f"cli.main[{command}]": inclusive[command][f"cli.main[{command}]"] for command in roots})
    calls: dict[str, list[float]] = {}  # span name: its durations under --all, in call order
    for nid, start, end, _, _ in map(tracer.spans.__getitem__, roots[ALL]):
        calls.setdefault(tracer.names[nid], []).append(end - start)
    times.update({f"solve_eq3_per_z0.probe{i}": t for i, t in enumerate(calls.get("isometry.solve_eq3_per_z0", ()))})
    if filters := calls.get("isometry.filter_eq2"):
        times["filter_eq2.first"], times["filter_eq2.rest"] = filters[0], sum(filters[1:])
    times["joint_search"] = tracer.self_times(roots[ALL])["isometry.assemble"]
    times["setup"] = sum(inclusive[ALL].get(name, 0.0) for name in SETUP)
    problem, result = results[0]
    sizes = [result.stats.eq1_raw, *result.stats.eq3_per_probe]
    first = sizes.index(min(sizes))
    return times, f"probe{first - 1}" if first else "eq1", len(isometry._signed_automorphisms(problem))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="passes per problem; each stage keeps its best")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    texts = [(f"problems/{p.name}", p.read_text(encoding="utf-8")) for p in sorted(PROBLEMS.glob("*.txt"))]
    for workload, count in WORKLOAD_COUNTS.items():
        texts += [(f"{workload}/{name}", t) for name, t in gen.workload_files(workload, PROBE_SEED, count, PROBLEMS)]
    out: dict[str, dict] = {}
    for name, text in texts:
        runs = [traced_pass(text) for _ in range(args.repeats)]
        if runs[0][1] is not None:
            out[name] = {stage: round(min(times[stage] for times, _, _ in runs), 6) for stage in runs[0][0]}
            out[name]["first_column"], out[name]["automorphisms"] = runs[0][1:]
    stages = dict.fromkeys(s for t in sorted(out.values(), key=len, reverse=True) for s in t if s not in ("first_column", "automorphisms"))
    out["total"] = {stage: round(sum(times.get(stage, 0.0) for times in out.values()), 6) for stage in stages}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
