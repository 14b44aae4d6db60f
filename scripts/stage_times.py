#!/usr/bin/env python3
"""Time each stage of an ``--all`` search, in-process, per problem.

For every example problem in ``problems/`` that has a target and an
anchor, and the problem files of the three benchmark workloads (written by
``perfbench/gen.py`` with probe seed 1, as ``perfbench/run.py --seed 1``
writes them), the script first builds the problem the way ``factorize``
does, timing each setup step:

* ``parse_problem`` of the file's text;
* ``GramForm``, the forms of B and B' (each computes its determinant);
* ``IsometryProblem``, the constructor on those forms, the anchor and the
  probes;
* ``l0_form``, the problem's ``PosDefForm`` of diag(N, G_K), which the
  eq1 and eq3 shells are enumerated on: its level order and its one
  LDL^T in that order (so ``solve_eq1`` does not include them);
* ``PosDefForm``, the form of B that ``oracle`` enumerates its columns
  on, likewise with its level order and LDL^T.

It then runs the stages of ``find_isometries`` one after the other on
that problem, the way a ``--all`` search runs them:

* ``solve_eq1``;
* ``solve_eq3_per_z0``, once per probe: ``solve_eq3_per_z0.probe<i>``
  is the time of probe i, and ``solve_eq3_per_z0`` their sum;
* ``filter_eq2``, for each eq1 row that the first-witness scan places
  (one of each +-pair): ``filter_eq2.first`` is the first call, which
  builds the packed table of the eq3 rows, ``filter_eq2.rest`` the later
  calls, and ``filter_eq2`` their sum;
* ``index_order_search``, the cross-probe assembly of those rows: the
  joint search (``_gram_search``) in index order (eq1 first), drained,
  with each eq1 row's eq2 survivors served from the ``filter_eq2`` stage;
* ``joint_search``, the joint search of ``--all`` as it runs: shells
  placed by size, the first one's packed table built afresh, drained;
* ``reconstruct``, on every tuple of the eq1-first scan;
* ``pulls_back``, the exact check inside ``reconstruct``, alone: on
  every (num, den) that ``reconstruct`` checked, through a fresh
  ``_Pullback`` of the problem's B and B' (the problem's own check has
  packed their rows during ``reconstruct``; the fresh one packs each
  distinct row once, as the first search of a problem does);
* ``negate``, ``-c`` over half of the search's sorted candidates: as
  many negations as the search makes when it adds the negated half of
  each +-pair;
* ``all_listing``, the stdout listing of ``factorize --all``:
  ``matrix_listing`` of the integral candidates' entry texts;
* ``result_document`` on the search's result, and ``document_json``, the
  text of that document (the candidates' entry texts are made with the
  candidates, inside the search, so ``result_document`` only wraps them
  and ``document_json`` renders the JSON);
* ``verify_document`` of the document's text, read back with
  ``json.loads``.
* ``oracle``, the brute-force reference ``brute_force_isometries`` on the
  problem's two forms, and ``oracle_listing``, the stdout listing of
  ``oracle`` for its matrices;
* ``oracle_shells``, the column shells that ``oracle`` enumerates, alone:
  ``vectors_of_norm`` at each diagonal entry B'_jj on a fresh
  ``PosDefForm`` of B, built before the clock starts (the form holds its
  level order and LDL^T from its constructor on).

Each stage's time is the best of ``--repeats`` runs.  The script prints
one JSON object that maps each problem to its stage times in seconds and
to ``first_column``, the shell that ``--all`` places first (``eq1`` or
``probe<i>``), plus a ``total`` entry per stage, setup steps included,
summed over the problems that have it (the per-probe entries
depend on the dimension).  Usage, from the root of a checkout::

    PYTHONPATH=src python3 scripts/stage_times.py --repeats 5

The perfbench files are only read (its generator is imported), never
changed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402

from superlat.cli import matrix_listing  # noqa: E402
from superlat.diophantine import PosDefForm, vectors_of_norm  # noqa: E402
from superlat.forms import GramForm  # noqa: E402
from superlat.isometry import (  # noqa: E402
    IsometryProblem,
    _gram_search,
    _Pullback,
    _size_order,
    brute_force_isometries,
    filter_eq2,
    find_isometries,
    reconstruct,
    solve_eq1,
    solve_eq3_per_z0,
)
from superlat.problem_io import document_json, parse_problem, result_document, verify_document  # noqa: E402

# Problems per workload, as the benchmark draws them (perfbench/run.py).
WORKLOAD_COUNTS = {"wilson": 7, "pullback": 5, "neighbour": 10}
PROBE_SEED = 1


def problem_texts() -> list[tuple[str, str]]:
    texts = [(f"problems/{p.name}", p.read_text(encoding="utf-8")) for p in sorted(PROBLEMS.glob("*.txt"))]
    for workload, count in WORKLOAD_COUNTS.items():
        for name, text in gen.workload_files(workload, PROBE_SEED, count, PROBLEMS):
            texts.append((f"{workload}/{name}", text))
    return texts


def build(text: str) -> IsometryProblem | None:
    """The problem that ``factorize`` builds from the file, or None for a
    file without a target or an anchor."""
    pf = parse_problem(text)
    if pf.target is None or pf.w is None:
        return None
    probes = list(pf.probes) if pf.probes else None
    return IsometryProblem(GramForm(pf.gram), GramForm(pf.target), pf.w, probes=probes)


def first_column(problem: IsometryProblem) -> str:
    """The shell that the joint search of ``--all`` places first."""
    shells = (solve_eq1(problem), *(solve_eq3_per_z0(problem, z0) for z0 in problem.probes))
    first = _size_order(shells)[0]
    return f"probe{first - 1}" if first else "eq1"


def one_pass(text: str) -> dict[str, float]:
    """The time of each setup step and of each stage on the problem it
    builds."""
    times = {}
    start = perf_counter()
    pf = parse_problem(text)
    times["parse_problem"] = perf_counter() - start
    start = perf_counter()
    source, target = GramForm(pf.gram), GramForm(pf.target)
    times["GramForm"] = perf_counter() - start
    probes = list(pf.probes) if pf.probes else None
    start = perf_counter()
    problem = IsometryProblem(source, target, pf.w, probes=probes)
    times["IsometryProblem"] = perf_counter() - start
    start = perf_counter()
    problem.l0_form
    times["l0_form"] = perf_counter() - start
    start = perf_counter()
    PosDefForm(pf.gram)
    times["PosDefForm"] = perf_counter() - start

    start = perf_counter()
    e1s = solve_eq1(problem)
    times["solve_eq1"] = perf_counter() - start

    per_probe = []
    for i, z0 in enumerate(problem.probes):
        start = perf_counter()
        per_probe.append(solve_eq3_per_z0(problem, z0))
        times[f"solve_eq3_per_z0.probe{i}"] = perf_counter() - start
    times["solve_eq3_per_z0"] = sum(times[f"solve_eq3_per_z0.probe{i}"] for i in range(len(per_probe)))

    direct = e1s[: (len(e1s) + 1) // 2]
    start = perf_counter()
    filtered = [filter_eq2(problem, e1, per_probe) for e1 in direct[:1]]
    times["filter_eq2.first"] = perf_counter() - start
    start = perf_counter()
    filtered += [filter_eq2(problem, e1, per_probe) for e1 in direct[1:]]
    times["filter_eq2.rest"] = perf_counter() - start
    times["filter_eq2"] = times["filter_eq2.first"] + times["filter_eq2.rest"]

    shells = (e1s, *per_probe)
    gram, targets = problem._l0_gram, problem.pair_targets
    served = dict(zip(direct, filtered))
    start = perf_counter()
    blocks = list(_gram_search(gram, targets, shells, range(len(shells)), served.__getitem__))
    times["index_order_search"] = perf_counter() - start
    tuples = [(cols[0], cols[1:]) for block in blocks for cols in block]

    start = perf_counter()
    list(_gram_search(gram, targets, shells, _size_order(shells)))
    times["joint_search"] = perf_counter() - start

    start = perf_counter()
    for e1, picks in tuples:
        reconstruct(problem, e1, picks)
    times["reconstruct"] = perf_counter() - start

    checks = []
    problem.pulls_back = lambda num, den: checks.append((num, den))
    for e1, picks in tuples:
        reconstruct(problem, e1, picks)
    del problem.pulls_back
    check = _Pullback(problem._gram, problem._tgram)
    start = perf_counter()
    for num, den in checks:
        check(num, den)
    times["pulls_back"] = perf_counter() - start

    result = find_isometries(problem)
    half = result.candidates[: len(result.candidates) // 2]
    start = perf_counter()
    for c in half:
        -c
    times["negate"] = perf_counter() - start

    start = perf_counter()
    integral = [c for c in result.candidates if c.integral]
    matrix_listing(f"integral matrices ({len(integral)}):", [c.entry_strings for c in integral])
    times["all_listing"] = perf_counter() - start

    options = {"all": True, "integral_only": False, "cs_prune": False}
    start = perf_counter()
    doc = result_document(problem, result, options=options, elapsed=0.0)
    times["result_document"] = perf_counter() - start

    start = perf_counter()
    text = document_json(doc)
    times["document_json"] = perf_counter() - start

    written = json.loads(text)
    start = perf_counter()
    verify_document(written)
    times["verify_document"] = perf_counter() - start

    start = perf_counter()
    found = brute_force_isometries(problem.source, problem.target)
    times["oracle"] = perf_counter() - start
    start = perf_counter()
    matrix_listing(f"brute-force isometries: {len(found)}", [m.rows for m in found])
    times["oracle_listing"] = perf_counter() - start

    q, diagonal = PosDefForm(pf.gram), [int(row[j]) for j, row in enumerate(pf.target.rows)]
    start = perf_counter()
    for t in diagonal:
        if t >= 0:
            vectors_of_norm(q, t)
    times["oracle_shells"] = perf_counter() - start
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="runs per problem; each stage keeps its best")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    out: dict[str, dict[str, float]] = {}
    firsts: dict[str, str] = {}
    for name, text in problem_texts():
        problem = build(text)
        if problem is None:
            continue
        runs = [one_pass(text) for _ in range(args.repeats)]
        out[name] = {stage: round(min(run[stage] for run in runs), 6) for stage in runs[0]}
        firsts[name] = first_column(problem)
    stages = dict.fromkeys(stage for times in sorted(out.values(), key=len, reverse=True) for stage in times)
    out["total"] = {
        stage: round(sum(times.get(stage, 0.0) for times in out.values()), 6) for stage in stages
    }
    for name, first in firsts.items():
        out[name]["first_column"] = first
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
