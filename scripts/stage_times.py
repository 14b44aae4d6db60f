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
listing; the command builds no ``GramForm``.  ``orbit_images`` is every
call in the ``--all`` search that builds candidates by permuting and
negating rows (``isometry._orbit_images``): those of an orbit's other
members and the closing negation of every candidate.

Each stage keeps its best of ``--repeats`` passes.  The output is one JSON
object: per problem, its stage times in seconds, ``first_column``, the
shell ``--all`` places first (least of ``stats.eq1_raw`` and
``stats.eq3_per_probe``, eq1 on ties), ``automorphisms``, the number
|G| of signed permutations that fix B and the anchor (``--all`` searches
one first row per orbit of <G, -1> once every shell is non-empty, and
``verify`` multiplies one candidate per orbit of <G, -1> of a list of
two or more), and
``verify_pulls_back``, the number of M^T B M = B' tests that ``verify``
made (``IsometryProblem.pulls_back`` calls); and a ``total`` per stage::

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
from superlat.isometry import IsometryProblem  # noqa: E402

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
# The per-problem fields that are not stage times.
FIELDS = ("first_column", "automorphisms", "verify_pulls_back")
# The set-up of a problem: its construction and the tables that its
# cached properties build when first read.
SETUP_TABLES = ("l0_form", "pair_targets", "_recon_tables")
SETUP = ("isometry.IsometryProblem", *(f"isometry.IsometryProblem.{name}" for name in SETUP_TABLES))


def traced_pass(text: str) -> tuple[dict[str, float], str | None, int | None, int | None]:
    """The stage times, the first column, |G| and the pullback tests of
    ``verify`` of one pass over the problem in text; ({}, None, None, None)
    when ``factorize`` rejects the file."""
    tracer, results = spans.Tracer(), []  # results[0]: the --all run's (problem, SearchResult)
    spans.install(tracer)
    # Counted per command, not traced: a span per test would weigh on the
    # stages that make them.
    pullback_tests, command, pulls_back = dict.fromkeys((ALL, "factorize", "verify", "oracle"), 0), [ALL], IsometryProblem.pulls_back

    def counted(self, *args):
        pullback_tests[command[0]] += 1
        return pulls_back(self, *args)

    IsometryProblem.pulls_back = counted
    tracer.wrap(cli, "matrix_listing", "cli.matrix_listing")
    tracer.wrap(cli, "load_problem", "cli.load_problem")
    tracer.wrap(GramForm, "__init__", "forms.GramForm")
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
            codes = {}
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                for c, argv in argvs.items():
                    command[0] = c
                    codes[c] = tracer.span(f"cli.main[{c}]", cli.main, argv)
    finally:
        tracer.uninstall()
        IsometryProblem.pulls_back = pulls_back
    if codes[ALL] not in (0, 1):
        return {}, None, None, None

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
    return times, f"probe{first - 1}" if first else "eq1", len(isometry._signed_automorphisms(problem)), pullback_tests["verify"]


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
            out[name] = {stage: round(min(run[0][stage] for run in runs), 6) for stage in runs[0][0]}
            out[name].update(zip(FIELDS, runs[0][1:]))
    stages = dict.fromkeys(s for t in sorted(out.values(), key=len, reverse=True) for s in t if s not in FIELDS)
    out["total"] = {stage: round(sum(times.get(stage, 0.0) for times in out.values()), 6) for stage in stages}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
