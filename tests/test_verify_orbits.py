"""verify multiplies one candidate per orbit of <G, -1>, G the signed
permutations U with U^T B U = B and U w = w, and accepts each other
listed U M and -U M with M's denominator (isometry_denominators).  Its
answers must equal one packed product per matrix
(helpers.reference_isometry_denominators), and with whole_orbits a
matrix whose orbit is not wholly listed must give None
(helpers.reference_whole_orbits, over the group found by integer
products among every signed permutation).  So a document whose candidate list was cut, or
lost one member of an orbit, is rejected.

Selection rule: Random(4646) draws, per document, the candidate
edited (never the first listed member of its orbit), the kind of edit
and the entry, in the order listed below, and no draw is dropped.
"""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    matrix_values,
    reference_isometry_denominators,
    reference_whole_orbits,
    signed_automorphisms_by_products,
)
from superlat.forms import GramForm
from superlat.isometry import IsometryProblem, _signed_automorphisms, find_isometries, isometry_denominators
from superlat.linalg import Mat, Vec
from superlat.problem_io import document_json, load_problem, result_document, verify_document

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
# name: (problem file, anchor override, |G|, candidates listed).
DOCUMENTS = {
    "wilson": ("wilson.txt", None, 48, 384),
    "wilson at (1,1,1,1)": ("wilson.txt", (1, 1, 1, 1), 24, 1152),
    "quaternary_pair": ("quaternary_pair.txt", None, 4, 224),
}
EDITS = 8


def _problem(name: str) -> IsometryProblem:
    path, w, _, _ = DOCUMENTS[name]
    pf = load_problem(str(PROBLEMS / path))
    return IsometryProblem(GramForm(pf.gram), GramForm(pf.target), w or pf.w)


@pytest.fixture(scope="module")
def documents():
    """The --all document of each problem, as the JSON that verify reads."""
    out = {}
    for name in DOCUMENTS:
        problem = _problem(name)
        out[name] = json.loads(document_json(result_document(problem, find_isometries(problem))))
    return out


def _edits(rng: random.Random, matrices: list, firsts: set[int]):
    """EDITS lists, each matrices with one change to a candidate that is
    not the first listed member of its orbit: an entry given another
    value, an entry given another text of its value, or the candidate
    dropped."""
    later = [k for k in range(len(matrices)) if k not in firsts]
    for _ in range(EDITS):
        k, kind = rng.choice(later), rng.choice(("value", "text", "drop"))
        edited = list(matrices)
        if kind == "drop":
            del edited[k]
        else:
            edited[k] = [list(row) for row in edited[k]]
            i, j = rng.randrange(len(edited[k])), rng.randrange(len(edited[k][0]))
            x = Fraction(edited[k][i][j])
            edited[k][i][j] = str(x + Fraction(1, rng.choice((1, 2)))) if kind == "value" else f"{2 * x.numerator}/{2 * x.denominator}"
        yield kind, edited


def test_the_documents_list_whole_orbits(documents):
    for name, (_, _, size, count) in DOCUMENTS.items():
        problem, matrices = _problem(name), [entry["matrix"] for entry in documents[name]["candidates"]]
        group = signed_automorphisms_by_products(problem.source.gram, problem.w)
        assert len(_signed_automorphisms(problem)) == len(group) == size
        assert len(matrices) == count
        assert all(reference_whole_orbits(group, matrices, {})), name


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_orbit_path_matches_one_product_per_matrix(name, documents):
    problem = _problem(name)
    group, orbits = signed_automorphisms_by_products(problem.source.gram, problem.w), {}
    matrices = [entry["matrix"] for entry in documents[name]["candidates"]]
    assert all(reference_whole_orbits(group, matrices, orbits))
    firsts = {}  # the index of the first listed member of each orbit
    for k, value in enumerate(matrix_values(matrices)):
        firsts.setdefault(orbits[value], k)
    kinds = []
    for kind, listed in [("as built", matrices), *_edits(random.Random(4646), matrices, set(firsts.values()))]:
        kinds.append(kind)
        plain = reference_isometry_denominators(_problem(name), listed)
        whole = reference_whole_orbits(group, listed, orbits)
        assert isometry_denominators(_problem(name), listed) == plain, kind
        assert isometry_denominators(_problem(name), listed, whole_orbits=True) == [
            den if w else None for den, w in zip(plain, whole)
        ], kind
        # An edit of a value or a drop leaves an orbit short; a new text
        # of the same value leaves every orbit whole.
        assert all(whole) is (kind in ("as built", "text")), kind
    assert {"value", "text", "drop"} <= set(kinds)


def _wilson_doc(documents, candidates):
    doc = copy.deepcopy(documents["wilson"])
    doc["candidates"] = candidates(doc["candidates"])
    return doc


@pytest.mark.parametrize(
    "cut",
    [
        pytest.param(lambda c: c[:5], id="cut to 5 entries"),
        pytest.param(lambda c: c[:7] + c[8:], id="one dropped from an orbit"),
        pytest.param(lambda c: [], id="cut to []"),
    ],
)
def test_verify_rejects_a_cut_candidate_list(cut, documents):
    assert verify_document(documents["wilson"]) is True
    assert verify_document(_wilson_doc(documents, cut)) is False


def test_verify_rejects_a_witness_that_is_not_listed(documents):
    # Every listed candidate is an integral isometry, but the witness is
    # not among them.
    doc = _wilson_doc(documents, lambda c: [entry for entry in c if entry["matrix"] != c[0]["matrix"]])
    assert doc["certificate"]["witness"]["matrix"] == documents["wilson"]["candidates"][0]["matrix"]
    assert verify_document(doc) is False
    # The witness is compared as values: other texts of them, in the
    # witness or in its listed copy, still match.
    for where in (("certificate", "witness", "matrix"), ("candidates", 0, "matrix")):
        doc = copy.deepcopy(documents["wilson"])
        matrix = doc[where[0]][where[1]][where[2]]
        matrix[0] = [f"{2 * int(x)}/2" for x in matrix[0]]
        assert verify_document(doc) is True, where


def test_verify_rejects_a_cut_no_integral_isometry_list(documents):
    # The certificate lists exactly the top-level matrices, so one
    # orbit-checked list decides both.
    doc = copy.deepcopy(documents["quaternary_pair"])
    doc["candidates"] = doc["candidates"][:5]
    doc["certificate"]["detail"]["candidates"] = [entry["matrix"] for entry in doc["candidates"]]
    assert verify_document(documents["quaternary_pair"]) is True
    assert verify_document(doc) is False


def test_verify_accepts_the_all_document_of_dimension_1():
    # B = B' = [1] at w = 1: only the identity fixes w, so the two
    # candidates, 1 and -1, are one orbit of <G, -1>, read through a
    # signed permutation of one row.
    problem = IsometryProblem(GramForm(Mat([[1]])), GramForm(Mat([[1]])), Vec([1]))
    doc = json.loads(document_json(result_document(problem, find_isometries(problem))))
    assert len(_signed_automorphisms(problem)) == 1
    assert sorted(entry["matrix"] for entry in doc["candidates"]) == [[["-1"]], [["1"]]]
    assert verify_document(doc) is True
