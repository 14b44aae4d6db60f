"""End-to-end benchmark of the superlat command line, run in one process.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload wilson --seed 1 --seconds 40 --trace 0

The run writes the workload's problem files (see gen.py; the seed draws
the signs of their probes), then repeats rounds over them: as many as fill
`--seconds` at the reference speed, and at least two.  Each round calls, for every problem and through
`superlat.cli.main`:

* ``factorize FILE --all --json OUT`` (timed, under the deadline),
* ``factorize FILE`` (first witness, timed, under the deadline),
* ``verify OUT`` (when the --all run finished),
* ``oracle FILE`` (the brute-force reference).

Every answer is checked against the oracle, the --all document (minus
``timing``) must be byte-identical across rounds, and the Wilson pins
must hold.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  A wrong answer exits with code 1.  Deadlines use
``signal.setitimer``, so no thread or process is started.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402

# Per workload: reference problems after the examples, the deadline of each
# factorize/verify call, and the nominal length of one round; all in
# reference seconds (see calibrate).  A run does max(MIN_ROUNDS,
# seconds // round_s) rounds, a fixed amount of work.  The oracle gets
# ORACLE_DEADLINE.
WORKLOADS = {
    "wilson": {"count": 7, "deadline": 10.0, "round_s": 12.0},
    "pullback": {"count": 5, "deadline": 3.0, "round_s": 20.0},
    "neighbour": {"count": 10, "deadline": 6.0, "round_s": 12.0},
}
ORACLE_DEADLINE = 30.0
MIN_ROUNDS = 2
SETUP_REPEATS = 5
# Times and deadlines are in reference seconds: wall seconds divided by the
# machine's current speed, the median duration of the last
# CALIBRATION_WINDOW runs of `calibrate()` (one before each CLI call) over
# CALIBRATION_REF_S.  This removes most of the drift in machine speed
# within and between runs.
CALIBRATION_REF_S = 0.03
CALIBRATION_WINDOW = 5
# Span names whose self time is a per-layer metric ("<name>.s").
LAYER_SPANS = (
    "cli.main",
    "isometry.IsometryProblem",
    "isometry.solve_eq1",
    "isometry.solve_eq3_per_z0",
    "isometry.filter_eq2",
    "isometry.assemble",
    "isometry.reconstruct",
    "isometry.verify_certificate",
    "isometry.brute_force_isometries",
    "diophantine.vectors_of_norm",
    "diophantine.PosDefForm",
    "forms.dual_membership",
    "linalg.Mat.matmul",
    "linalg.Mat.inverse",
    "linalg.integer_kernel_basis",
    "problem_io.parse_problem",
    "problem_io.result_document",
    "problem_io.document_json",
    "problem_io.verify_document",
)
# Pinned stage counts: problem name -> (eq1 canonical, integral count or None).
PINS = {"wilson": (24, 384), "wilson-1111": (1728, None)}


class DeadlineExceeded(BaseException):
    """Raised from the interval-timer signal; a BaseException so that no
    `except Exception` in the code under test swallows it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Call:
    argv: list[str]
    seconds: float
    code: int | None  # None when the deadline expired
    stdout: str
    stderr: str


class Runner:
    """Runs CLI calls in-process under a deadline, optionally inside a
    root span of a tracer, and keeps the machine-speed calibrations."""

    def __init__(self, main, calibrations: list[float], tracer: spans.Tracer | None = None):
        self.main = main
        self.calibrations = calibrations
        self.tracer = tracer

    def call(self, argv: list[str], deadline: float) -> Call:
        """Calibrate, then run one CLI call; `deadline` and the returned
        time are in reference seconds."""
        self.calibrations.append(calibrate())
        # Wall seconds per reference second, from the latest calibrations.
        speed = statistics.median(self.calibrations[-CALIBRATION_WINDOW:]) / CALIBRATION_REF_S
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline * speed)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if self.tracer is None:
                        code = self.main(argv)
                    else:
                        op = argv[0] + (" --all" if "--all" in argv else "")
                        code = self.tracer.span(f"cli.main[{op}]", self.main, argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            if self.tracer is not None:
                self.tracer.close_open()
            return Call(argv, deadline, None, out.getvalue(), err.getvalue())
        except Exception:
            # A crash is a wrong answer, reported with its traceback.
            return Call(argv, (perf_counter() - start) / speed, -1, out.getvalue(), traceback.format_exc())
        return Call(argv, (perf_counter() - start) / speed, code, out.getvalue(), err.getvalue())


def calibrate() -> float:
    """Time a fixed block of pure-Python work that does not touch superlat:
    exact Fraction matrix products and an integer loop."""
    start = perf_counter()
    a = [[Fraction(7 * i + j, j + 3) for j in range(6)] for i in range(6)]
    for _ in range(20):
        [[sum((a[i][k] * a[k][j] for k in range(6)), Fraction(0)) for j in range(6)] for i in range(6)]
    acc = 0
    for i in range(30000):
        acc += (i * i) % 7
    return perf_counter() - start


def parse_matrix_line(line: str) -> tuple[tuple[Fraction, ...], ...]:
    """A matrix printed inline by the CLI: rows separated by ' | '."""
    return tuple(tuple(Fraction(x) for x in row.split()) for row in line.split("|"))


def doc_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def oracle_set(call: Call) -> frozenset:
    lines = call.stdout.splitlines()
    count = int(lines[0].rsplit(":", 1)[1])
    found = frozenset(parse_matrix_line(line) for line in lines[1:1 + count])
    if len(found) != count:
        raise ValueError("oracle listed a matrix twice")
    return found


def eq1_canonical(stdout: str) -> int:
    line = next(l for l in stdout.splitlines() if l.startswith("eq1 solutions:"))
    return int(line.split(",")[1].split()[0])


def witness_matrix(stdout: str, n: int):
    lines = stdout.splitlines()
    at = lines.index("witness M =")
    return tuple(tuple(Fraction(x) for x in row.split()) for row in lines[at + 1:at + 1 + n])


def without_timing(text: str) -> str:
    """The document text before its last key, ``timing`` (keys are sorted)."""
    return text[:text.rindex('"timing"')]


class Checker:
    """Collects wrong answers; each problem's --all document is remembered
    so later rounds can be compared byte for byte."""

    def __init__(self):
        self.errors: list[str] = []
        self.documents: dict[str, str] = {}
        self.pinned: set[str] = set()

    def fail(self, name: str, what: str) -> bool:
        self.errors.append(f"{name}: {what}")
        return False

    def expect(self, ok: bool, name: str, what: str) -> bool:
        return ok or self.fail(name, what)

    def pin(self, name: str, eq1: int, integral: int | None) -> None:
        want_eq1, want_integral = PINS[name]
        self.expect(eq1 == want_eq1, name, f"pin: eq1 canonical {eq1} != {want_eq1}")
        if integral is not None and want_integral is not None:
            self.expect(integral == want_integral, name, f"pin: integral {integral} != {want_integral}")
        self.pinned.add(name)

    def all_run(self, name: str, call: Call, text: str, expected: frozenset) -> bool:
        doc = json.loads(text)
        verdict = doc["certificate"]["verdict"]
        integral = frozenset(doc_matrix(c["matrix"]) for c in doc["candidates"] if c["integral"])
        ok = self.expect(call.code == (0 if expected else 1), name, f"--all exit code {call.code}")
        ok &= self.expect(
            verdict == "IsometricWitness" if expected
            else verdict in ("NoIntegralIsometry", "ObstructionEq1", "ObstructionDeterminant"),
            name, f"--all verdict {verdict} against {len(expected)} oracle solutions")
        ok &= self.expect(integral == expected, name, "--all integral set differs from the oracle's")
        body = without_timing(text)
        ok &= self.expect(self.documents.setdefault(name, body) == body, name, "--all document changed between rounds")
        if name in PINS:
            self.pin(name, doc["stats"]["eq1_canonical"], doc["stats"]["integral"])
        return ok

    def witness_run(self, name: str, call: Call, n: int, expected: frozenset) -> bool:
        ok = self.expect(call.code == (0 if expected else 1), name, f"witness exit code {call.code}")
        if expected and call.code == 0:
            ok &= self.expect(witness_matrix(call.stdout, n) in expected, name, "witness is not an oracle solution")
        if name in PINS:
            self.pin(name, eq1_canonical(call.stdout), None)
        return ok

    def verify_run(self, name: str, call: Call) -> bool:
        return self.expect(call.code == 0 and "certificate verified" in call.stdout, name, "verify rejected the --all document")


def quantile(samples: list[float], p: float, cells: int = 4000) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of the
    order statistics, with Beta(p(n+1), (1-p)(n+1)) weights.  Unlike the
    sample quantile it does not jump between neighbouring samples, which
    matters here because each problem contributes a cluster of samples."""
    x = sorted(samples)
    n = len(x)
    if n == 1:
        return x[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    mids = [(c + 0.5) / cells for c in range(cells)]
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t) for t in mids]
    top = max(logs)
    weights = [0.0] * n
    for t, log in zip(mids, logs):
        weights[min(int(t * n), n - 1)] += math.exp(log - top)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def median(values: list[float]) -> float:
    return quantile(values, 0.5) if values else 0.0


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    level; the maximum (level 1) when there are ten samples or fewer."""
    if len(samples) <= 10:
        return max(samples), 1.0
    level = (len(samples) - 10) / len(samples)
    return quantile(samples, level), level


def import_superlat():
    """Import superlat SETUP_REPEATS times, each from scratch; return the
    CLI module of the last import and the median import time."""
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "superlat" or m.startswith("superlat.")]:
            del sys.modules[name]
        start = perf_counter()
        from superlat import cli
        times.append(perf_counter() - start)
    return cli, statistics.median(times)


def setup(workload: str, seed: int, work: Path, problems_dir: Path, count: int):
    """Generate, write and parse the workload SETUP_REPEATS times; return
    the paths of the last copy, the parsed dimensions and the median time."""
    from superlat.forms import GramForm
    from superlat.isometry import IsometryProblem
    from superlat.problem_io import load_problem

    times = []
    for r in range(SETUP_REPEATS):
        start = perf_counter()
        paths = gen.write_workload(workload, seed, count, work / f"setup{r}", problems_dir)
        dims = []
        for path in paths:
            pf = load_problem(str(path))
            IsometryProblem(GramForm(pf.gram), GramForm(pf.target), pf.w, probes=list(pf.probes) if pf.probes else None)
            dims.append(pf.n)
        times.append(perf_counter() - start)
    return paths, dims, statistics.median(times)


def run_round(runner: Runner, checker: Checker, paths, dims, deadline: float, work: Path, stats: dict, tracer=None):
    """One pass over the problems; returns this round's decide and oracle
    totals.  Appends per-call samples to `stats`."""
    decide = oracle_total = 0.0
    for index, (path, n) in enumerate(zip(paths, dims)):
        name = path.stem
        if tracer is not None:
            tracer.problem = index
        out = work / f"{name}.json"
        if out.exists():
            out.unlink()
        oracle = runner.call(["oracle", str(path)], ORACLE_DEADLINE)
        full = runner.call(["factorize", str(path), "--all", "--json", str(out)], deadline)
        first = runner.call(["factorize", str(path)], deadline)
        stats["attempted"] += 3
        oracle_total += oracle.seconds
        decide += full.seconds
        stats["solve"].append(full.seconds)
        stats["witness"].append(first.seconds)
        row = stats["problems"].setdefault(name, {"all": [], "witness": [], "verify": [], "oracle": []})
        row["all"].append(full.seconds if full.code is not None else None)
        row["witness"].append(first.seconds if first.code is not None else None)
        row["oracle"].append(oracle.seconds)
        try:
            stats["failed"] += check_problem(runner, checker, name, n, oracle, full, first, out, deadline, stats, row)
        except (KeyError, IndexError, ValueError, StopIteration, OSError) as exc:
            stats["failed"] += 1
            checker.fail(name, f"unreadable output: {exc!r}")
    return decide, oracle_total


def check_problem(runner, checker, name, n, oracle, full, first, out, deadline, stats, row) -> int:
    """Check one problem's calls of a round against the oracle, run verify
    on a finished --all document; return the number of failed calls."""
    if oracle.code not in (0, 1):
        checker.fail(name, f"oracle did not finish (exit {oracle.code}) {oracle.stderr.strip()}")
        return 1
    expected = oracle_set(oracle)
    failed = 0
    if full.code is None:
        stats["timeouts"] += 1
    elif full.code not in (0, 1):
        checker.fail(name, f"--all exit code {full.code}: {full.stderr.strip()}")
        failed += 1
    elif checker.all_run(name, full, out.read_text(encoding="utf-8"), expected):
        stats["solved"] += 1
        verify = runner.call(["verify", str(out)], deadline)
        stats["attempted"] += 1
        stats["verify"].append(verify.seconds)
        row["verify"].append(verify.seconds)
        failed += not checker.verify_run(name, verify)
    else:
        failed += 1
    if first.code is None:
        stats["timeouts"] += 1
    elif first.code not in (0, 1):
        checker.fail(name, f"witness exit code {first.code}: {first.stderr.strip()}")
        failed += 1
    elif not checker.witness_run(name, first, n, expected):
        failed += 1
    return failed


def check_unreached_pins(checker: Checker, paths) -> None:
    """Pins of problems whose CLI runs all hit the deadline are checked on
    the library's eq1 stage directly, after the timed rounds."""
    from superlat.forms import GramForm
    from superlat.isometry import IsometryProblem, solve_eq1
    from superlat.problem_io import load_problem

    for path in paths:
        if path.stem in PINS and path.stem not in checker.pinned:
            pf = load_problem(str(path))
            problem = IsometryProblem(GramForm(pf.gram), GramForm(pf.target), pf.w)
            canonical = sum(
                next((x > 0 for x in (e.s, *e.coords) if x), True) for e in solve_eq1(problem)
            )
            checker.pin(path.stem, canonical, None)


def layer_metrics(tracer: spans.Tracer, rounds: int, scale: float) -> dict:
    """Per-round averages of every per-layer metric over the traced rounds;
    self times are scaled like the end-to-end times."""
    selfs = tracer.self_times()
    selfs["cli.main"] = sum(v for k, v in selfs.items() if k.startswith("cli.main["))
    c = tracer.counts

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    out = {f"{name}.s": (selfs.get(name, 0.0) * scale / rounds, "s") for name in LAYER_SPANS}
    for key in (
        "isometry.solve_eq1.solutions",
        "isometry.solve_eq3_per_z0.solutions",
        "isometry.filter_eq2.tested",
        "isometry.assemble.tuples",
        "isometry.reconstruct.calls",
        "diophantine.vectors_of_norm.calls",
        "diophantine.vectors_of_norm.vectors",
        "forms.dual_membership.calls",
        "linalg.Mat.matmul.calls",
        "problem_io.document_json.bytes",
    ):
        out[key] = (c[key] / rounds, "bytes" if key.endswith(".bytes") else "count")
    out["isometry.filter_eq2.kept_ratio"] = (ratio("isometry.filter_eq2.kept", "isometry.filter_eq2.tested"), "ratio")
    out["isometry.reconstruct.accept_ratio"] = (ratio("isometry.reconstruct.accepted", "isometry.reconstruct.calls"), "ratio")
    out["isometry.reconstruct.integral_ratio"] = (ratio("isometry.reconstruct.integral", "isometry.reconstruct.accepted"), "ratio")
    out["forms.dual_membership.pass_ratio"] = (ratio("forms.dual_membership.passed", "forms.dual_membership.calls"), "ratio")
    return out


def report_trace(tracer: spans.Tracer, traced: int, rounds, scale: float) -> None:
    """Print the tracing overhead and, per CLI operation, the self and
    inclusive time of each layer along its calls (scaled times)."""
    untraced = rounds[0][0]
    traced_decide = median([decide for decide, _ in rounds[1:]])
    print(f"tracing overhead: traced decide_s {traced_decide:.4f} s - untraced {untraced:.4f} s "
          f"= {traced_decide - untraced:+.4f} s; {len(tracer.spans)} spans")
    for op, members in sorted(tracer.by_root().items()):
        selfs = tracer.self_times(members)
        inclusive = tracer.inclusive_times(members)
        total = sum(selfs.values())
        print(f"{op}: {total * scale / traced:.4f} s/round; per layer self and inclusive time:")
        for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<36} {value * scale / traced:9.4f} s/round {value / total:6.1%}"
                  f"   incl {inclusive[name] / total:6.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    problems_dir = root / "problems"
    if not (root / "src" / "superlat" / "cli.py").is_file() or not problems_dir.is_dir():
        print("error: run from the root of a superlat checkout (src/superlat and problems/ are missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    own_imports = perf_counter() - START
    cli, import_s = import_superlat()
    config = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        paths, dims, prep_s = setup(args.workload, args.seed, work, problems_dir, config["count"])
        calibration = [calibrate() for _ in range(3)]
        checker = Checker()
        stats = {"attempted": 0, "failed": 0, "timeouts": 0, "solved": 0,
                 "solve": [], "witness": [], "verify": [], "problems": {}, "calibration": calibration}
        rounds = []  # (decide_s, oracle_s) of each round
        runner = Runner(cli.main, stats["calibration"])
        begin = perf_counter()
        for index in range(max(MIN_ROUNDS, int(args.seconds // config["round_s"]))):
            if tracer is not None and index == 1:
                # Round 0 ran untraced; the difference is the tracing overhead.
                spans.install(tracer)
                runner = Runner(cli.main, stats["calibration"], tracer)
            rounds.append(run_round(runner, checker, paths, dims, config["deadline"], work, stats, tracer))
        wall = perf_counter() - begin
        if tracer is not None:
            tracer.uninstall()  # the pin check below is not part of a round
        check_unreached_pins(checker, paths)
    finally:
        if tracer is not None:
            tracer.uninstall()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    calls = len(stats["solve"])
    solve_tail, tail_level = tail(stats["solve"])
    # Set-up ran before most calibrations; scale it by the run's median speed.
    scale = CALIBRATION_REF_S / median(stats["calibration"])
    setup_s = (own_imports + import_s + prep_s) * scale
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "decide_s": (median([decide for decide, _ in rounds]), "s"),
        "solve_s.p50": (median(stats["solve"]), "s"),
        "solve_s.tail": (solve_tail, "s"),
        "witness_s.p50": (median(stats["witness"]), "s"),
        "verify_s.p50": (median(stats["verify"]), "s"),
        "oracle_s": (median([oracle for _, oracle in rounds]), "s"),
    }
    end_to_end["solved_frac"] = (stats["solved"] / calls, "fraction")
    end_to_end["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    correct = not checker.errors
    print(f"workload {args.workload}, seed {args.seed}: {len(paths)} problems x {len(rounds)} rounds"
          f"{' (round 0 untraced)' if tracer else ''} in {wall:.1f} s, deadline {config['deadline']} s, "
          f"{stats['timeouts']} timed-out calls")
    print(f"solve_s.tail is p{100 * tail_level:.1f} of {calls} samples")
    print(f"  {'problem':<16} {'--all':>8} {'witness':>8} {'verify':>8} {'oracle':>8}  (median; TO: deadline hit)")
    for name, row in stats["problems"].items():
        cells = []
        for key in ("all", "witness", "verify", "oracle"):
            done = [t for t in row[key] if t is not None]
            cells.append(f"{median(done):8.3f}" if len(done) == len(row[key]) and done else f"{'TO' if row[key] else '-':>8}")
        print(f"  {name:<16} {' '.join(cells)}")
    speeds = [c / CALIBRATION_REF_S for c in stats["calibration"]]
    print(f"times in reference seconds; machine speed (wall s per reference s) median {median(speeds):.3f}, "
          f"range {min(speeds):.3f}-{max(speeds):.3f} over {len(speeds)} calibrations")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<16} {value:.6g} {unit}")
    for error in checker.errors:
        print(f"WRONG {error}")
    if tracer is not None:
        traced = len(rounds) - 1
        metrics = layer_metrics(tracer, traced, scale)
        report_trace(tracer, traced, rounds, scale)
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.json", [p.stem for p in paths])
    else:
        metrics = end_to_end
    print(json.dumps({
        "correct": correct,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
