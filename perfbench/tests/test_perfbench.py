"""Tests of the benchmark's own code: generators, neighbours and spans.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402
from run import tail  # noqa: E402

PROBLEMS = HERE.parent / "problems"


def det(a) -> int:
    """Exact integer determinant by cofactor expansion."""
    if len(a) == 1:
        return a[0][0]
    return sum(
        (-1) ** j * a[0][j] * det(tuple(row[:j] + row[j + 1:] for row in a[1:]))
        for j in range(len(a))
    )


@pytest.mark.parametrize("workload", sorted(gen.EXAMPLES))
def test_same_seed_same_files(workload, tmp_path):
    first = gen.write_workload(workload, 5, 4, tmp_path / "a", PROBLEMS)
    again = gen.write_workload(workload, 5, 4, tmp_path / "b", PROBLEMS)
    other = gen.write_workload(workload, 6, 4, tmp_path / "c", PROBLEMS)
    texts = [p.read_bytes() for p in first]
    assert texts == [p.read_bytes() for p in again]
    assert texts != [p.read_bytes() for p in other]
    assert [p.name for p in first] == [p.name for p in again]


def test_roadmap_generator_is_positive_definite_and_unimodular_pullback():
    rng = random.Random(7)
    for _ in range(20):
        gram = gen.roadmap_form(rng, 4)
        u = gen.elementary_column_ops(rng, 4, 12)
        assert abs(det(u)) == 1
        minors = [det(tuple(row[:k] for row in gram[:k])) for k in range(1, 5)]
        assert all(m > 0 for m in minors)
        assert det(gen.pull_back(gram, u)) == det(gram)


@pytest.mark.parametrize("seed", range(1, 6))
def test_neighbour_is_integral_with_the_same_determinant(seed):
    for problem in gen.neighbour(seed, 6):
        bp = problem.target
        assert det(bp) == det(problem.gram)
        assert all(bp[i][j] == bp[j][i] for i in range(4) for j in range(4))
        assert all(isinstance(x, int) for row in bp for x in row)


def test_probe_block_signs_the_default_probes():
    blocks = {gen.probe_block((0, 2, -2, 1), random.Random(seed)) for seed in range(200)}
    assert len(blocks) == 8
    for block in blocks:
        lines = block.splitlines()
        assert lines[0] == "z0"
        rows = [tuple(abs(int(x)) for x in row.split()) for row in lines[1:]]
        # The anchor's first largest entry is at index 1, so e_1 is dropped.
        assert rows == [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def test_workload_files_parse_and_keep_the_examples(tmp_path):
    sys.path.insert(0, str(HERE.parent / "src"))
    from superlat.problem_io import load_problem

    for path in gen.write_workload("neighbour", 4, 3, tmp_path, PROBLEMS):
        pf = load_problem(str(path))
        assert pf.probes is not None and len(pf.probes) == pf.n - 1
    text = (tmp_path / "quaternary_pair.txt").read_text()
    assert text.startswith((PROBLEMS / "quaternary_pair.txt").read_text())


def test_neighbour_rejects_a_vector_that_defines_none():
    with pytest.raises(ValueError):
        gen.kneser_neighbour(gen.identity(4), (1, 0, 0, 0))


def test_neighbour_of_the_square_lattice():
    # v = (1,1,1,1): L_v is D4 and the neighbour D4 + Z v/2 is unimodular;
    # its HNF basis starts with v/2 - e_2 - e_3 - e_4 of norm 1.
    target = gen.kneser_neighbour(gen.identity(4), (1, 1, 1, 1))
    assert det(target) == 1
    assert target[0][0] == 1


def test_self_time_on_a_synthetic_nested_call():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return None

    def middle():
        tracer.span("leaf", leaf)  # clock reads 2, 3
        tracer.span("leaf", leaf)  # clock reads 4, 5

    def outer():
        tracer.span("middle", middle)  # clock reads 1, 6
        tracer.span("leaf", leaf)  # clock reads 7, 8

    tracer.span("outer", outer)  # clock reads 0, 9
    assert tracer.self_times() == {"outer": 9 - 5 - 1, "middle": 5 - 2, "leaf": 3.0}
    parents = [tracer.names[tracer.spans[p][0]] if p >= 0 else None for _, _, _, p, _ in tracer.spans]
    assert parents == [None, "outer", "middle", "middle", "outer"]


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.span("boom", boom)
    (nid, start, end, parent, _), = tracer.spans
    assert end >= start and parent == -1 and tracer._stack == []


def test_wrap_and_uninstall_restore_the_attribute():
    class Owner:
        def f(self, x):
            return 2 * x

    tracer = spans.Tracer()
    original = Owner.f
    tracer.wrap(Owner, "f", "owner.f", lambda counts, r, a, k: counts.__setitem__("n", counts["n"] + r))
    assert Owner().f(3) == 6 and tracer.counts["n"] == 6
    assert [tracer.names[s[0]] for s in tracer.spans] == ["owner.f"]
    tracer.uninstall()
    assert Owner.f is original


def test_tail_has_ten_samples_beyond_it():
    samples = [float(x) for x in range(40)]
    value, level = tail(samples)
    assert sum(s > value for s in samples) == 10
    assert level == 30 / 40
    assert tail([1.0, 3.0, 2.0]) == (3.0, 1.0)
