"""End-to-end tests for the CLI: exit codes, output, and documents."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import superlat
from helpers import _ambient
from superlat.cli import main
from superlat.errors import ParseError
from superlat.forms import GramForm
from superlat.isometry import (
    Certificate,
    IsometryProblem,
    family_obstruction,
    find_isometries,
    verify_certificate,
)
from superlat.linalg import Mat, Vec
from superlat.problem_io import parse_problem

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
WILSON_FILE = str(PROBLEMS / "wilson.txt")
QUATERNARY_FILE = str(PROBLEMS / "quaternary_pair.txt")
BINARY_FILE = str(PROBLEMS / "binary_pair.txt")
TERNARY_FILE = str(PROBLEMS / "ternary_diag.txt")


def test_every_exported_name_resolves():
    assert [name for name in superlat.__all__ if not hasattr(superlat, name)] == []


def write(tmp_path: Path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestProblemParsing:
    def test_full_file_with_comments_and_inline_values(self):
        pf = parse_problem(
            """
            # a comment
            n 2
            B
            1 0   # trailing comment
            0 5
            Bprime
            2 1
            1 3
            w 1 0
            z0
            0 1
            """
        )
        assert pf.n == 2
        assert pf.gram == Mat([[1, 0], [0, 5]])
        assert pf.target == Mat([[2, 1], [1, 3]])
        assert pf.w == Vec([1, 0])
        assert pf.probes == (Vec([0, 1]),)

    def test_value_on_next_line_and_rationals(self):
        pf = parse_problem("n\n2\nB\n1/2 0\n0 3/4\n")
        assert pf.gram == Mat([["1/2", 0], [0, "3/4"]])
        assert pf.target is None and pf.w is None and pf.probes is None

    @pytest.mark.parametrize(
        "text",
        [
            "n 2\nB\n1 2\n3 4\n",  # not symmetric
            "n 2\nB\n1 0\n",  # wrong row count
            "n 2\nB\n1 0 0\n0 1 0\n",  # wrong row length
            "n 2\nB\n1 0\n0 1\nw 0 0\n",  # zero anchor
            "n 2\nB\n1 0\n0 1\nw 1\n",  # short anchor
            "n 2\nB\n1 0\n0 1\nw 1/2 0\n",  # non-integer anchor
            "n 2\nB\n1 0\n0 1\nz0\n1\n",  # short probe row
            "n 2\nB\n1 0\n0 1\nB\n1 0\n0 1\n",  # duplicate block
            "1 0\nn 2\n",  # data before any label
            "n 2\nB\n1 x\n0 1\n",  # bad rational
            "n 0\nB\n1\n",  # nonpositive n
            "B\n1 0\n0 1\n",  # missing n
            "n 2\n",  # missing B
            "n 2 2\nB\n1 0\n0 1\n",  # n not a single integer
        ],
    )
    def test_structural_rejections(self, text):
        with pytest.raises(ParseError):
            parse_problem(text)


PAIR = "n 2\nB\n1 0\n0 1\nBprime\n2 1\n1 1\nw 1 0\n"


@pytest.mark.parametrize(
    "argv, files, message",
    [
        (["factorize", "P"], {"P": PAIR.replace("0 1\nBprime", "0\nBprime")}, "B row 2: expected 2 entries, got 1"),
        (["factorize", "P"], {"P": PAIR.replace("2 1\n", "2 1 0\n")}, "Bprime row 1: expected 2 entries, got 3"),
        (["factorize", "P"], {"P": PAIR + "z0\n0 1\n1\n"}, "z0 row 2: expected 2 entries, got 1"),
        (["factorize", "P"], {"P": PAIR + "z0\n0 1/2\n"}, "z0 row 1: expected an integer, got '1/2'"),
        (["decompose", "P", "--phi", "F"], {"P": PAIR, "F": "# phi\n1 0\n\n0 x  # bad\n"}, "line 4: bad rational 'x'"),
        (["factorize", "P"], {"P": PAIR.replace("w 1 0", "w 1")}, "w: expected 2 integers, got 1"),
        (["factorize", "P", "--w", "1,0,0"], {"P": PAIR}, "--w: expected 2 integers, got 3"),
        (["factorize", "P"], {"P": PAIR.replace("w 1 0", "w\n1\n0")}, "w: expected 2 integers on one row"),
        (["decompose", "P", "--phi", "F"], {"P": PAIR, "F": "# no rows\n\n"}, "matrix file holds no rows"),
        # A line that does not start with a label continues the block above.
        (["factorize", "P"], {"P": PAIR.replace("Bprime", "Bprim")}, "B: expected 2 rows, got 5"),
    ],
    ids=["B-row", "Bprime-row", "z0-row", "z0-entry", "phi-entry", "w-block", "w-flag", "w-two-rows", "phi-empty",
         "misspelled-label"],
)
def test_reader_errors_name_the_row_or_line(argv, files, message, tmp_path, capsys):
    paths = {key: write(tmp_path, f"{key}.txt", text) for key, text in files.items()}
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_ragged_phi_file_names_the_short_line(tmp_path, capsys):
    phi = write(tmp_path, "phi.txt", "1 0\n0\n")
    assert main(["decompose", BINARY_FILE, "--w", "1,0", "--phi", phi]) == 2
    assert capsys.readouterr().err == "error: line 2: expected 2 entries, got 1\n"


class TestFactorize:
    def test_wilson_all_solutions(self, capsys):
        assert main(["factorize", WILSON_FILE, "--all"]) == 0
        out = capsys.readouterr().out
        assert "eq1 solutions: 48 raw, 24 canonical" in out
        assert "384 integral" in out
        assert "certificate: IsometricWitness" in out

    def test_wilson_first_witness_default(self, capsys):
        assert main(["factorize", WILSON_FILE]) == 0
        out = capsys.readouterr().out
        assert "witness M =" in out

    def test_binary_obstruction_exit_code(self, capsys):
        assert main(["factorize", BINARY_FILE]) == 1
        assert "ObstructionEq1" in capsys.readouterr().out

    def test_quaternary_no_integral(self, capsys):
        assert main(["factorize", QUATERNARY_FILE, "--all"]) == 1
        out = capsys.readouterr().out
        assert "224 exact, 0 integral" in out
        assert "NoIntegralIsometry" in out

    def test_anchor_override_flag(self, capsys):
        assert main(["factorize", WILSON_FILE, "--w", "0,1,0,0"]) == 0

    def test_anchor_override_reads_entries_as_the_file_does(self, tmp_path, capsys):
        # --w reads each entry as the file's w block does: 2/1 is 2.
        doubled = write(tmp_path, "w.txt", Path(WILSON_FILE).read_text().replace("w 1 0 0 0", "w 2/1 0 0 0"))
        runs = []
        for argv in ([WILSON_FILE, "--w", "2,0,0,0"], [WILSON_FILE, "--w", "2/1,0,0,0"], [doubled]):
            runs.append((main(["factorize", *argv]), capsys.readouterr().out))
        assert runs[0] == runs[1] == runs[2]
        assert main(["factorize", WILSON_FILE, "--w", "1/2,0,0,0"]) == 2
        assert "expected an integer" in capsys.readouterr().err

    def test_missing_target_is_parse_error(self):
        assert main(["factorize", TERNARY_FILE]) == 2

    def test_missing_anchor_is_parse_error(self, tmp_path):
        path = write(tmp_path, "nw.txt", "n 2\nB\n1 0\n0 1\nBprime\n1 0\n0 1\n")
        assert main(["factorize", path]) == 2

    def test_indefinite_form_unsupported(self, tmp_path):
        path = write(
            tmp_path, "indef.txt",
            "n 2\nB\n1 0\n0 -1\nBprime\n1 0\n0 -1\nw 1 0\n",
        )
        assert main(["factorize", path]) == 4

    def test_degenerate_probe_is_invariant_violation(self, tmp_path):
        path = write(
            tmp_path, "probe.txt",
            "n 2\nB\n1 0\n0 1\nBprime\n1 0\n0 1\nw 1 0\nz0\n2 0\n",
        )
        assert main(["factorize", path]) == 3

    def test_empty_probe_block_gives_no_probes(self, tmp_path, capsys):
        # An empty z0 block is n - 1 = 1 probes short, not the default probes.
        path = write(tmp_path, "z0.txt", "n 2\nB\n1 0\n0 1\nBprime\n1 0\n0 1\nw 1 0\nz0\n")
        assert main(["factorize", path]) == 3
        assert capsys.readouterr().err == "invariant violation: need 1 probes, got 0\n"
        path = write(tmp_path, "z0-rank1.txt", "n 1\nB\n2\nBprime\n2\nw 1\nz0\n")
        assert main(["factorize", path]) == 0

    def test_nonexistent_file_is_parse_error(self):
        assert main(["factorize", "/no/such/file.txt"]) == 2

    # An unreadable file is not tested: a process run as root reads it anyway.
    @pytest.mark.parametrize(
        "args",
        [["factorize", "DIR"], ["verify", "DIR"], ["factorize", WILSON_FILE, "--json", "DIR"]],
        ids=["problem-file", "document-file", "json-target"],
    )
    def test_directory_is_parse_error(self, args, tmp_path):
        argv = [str(tmp_path) if arg == "DIR" else arg for arg in args]
        proc = subprocess.run([sys.executable, "-m", "superlat.cli", *argv], capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def _without_timing(text: str) -> str:
    return re.sub(r'"seconds": [^\n]*', '"seconds": _', text)


class TestResultDocuments:
    def test_json_round_trips_through_verify(self, tmp_path, capsys):
        out = str(tmp_path / "wilson.json")
        assert main(["factorize", WILSON_FILE, "--all", "--json", out]) == 0
        capsys.readouterr()
        assert main(["verify", out]) == 0

    def test_negative_result_also_verifies(self, tmp_path, capsys):
        out = str(tmp_path / "quaternary.json")
        assert main(["factorize", QUATERNARY_FILE, "--all", "--json", out]) == 1
        capsys.readouterr()
        assert main(["verify", out]) == 0
        doc = json.loads(Path(out).read_text())
        assert doc["stats"]["integral"] == 0
        assert doc["certificate"]["verdict"] == "NoIntegralIsometry"

    def test_corrupted_candidate_fails_verify(self, tmp_path, capsys):
        out = str(tmp_path / "doc.json")
        main(["factorize", QUATERNARY_FILE, "--all", "--json", out])
        capsys.readouterr()
        doc = json.loads(Path(out).read_text())
        doc["candidates"][0]["matrix"][0][0] = "9"
        Path(out).write_text(json.dumps(doc))
        assert main(["verify", out]) == 1

    def test_corrupted_witness_fails_verify(self, tmp_path, capsys):
        out = str(tmp_path / "doc.json")
        main(["factorize", WILSON_FILE, "--json", out])
        capsys.readouterr()
        doc = json.loads(Path(out).read_text())
        doc["certificate"]["witness"]["matrix"][0][0] = "5"
        Path(out).write_text(json.dumps(doc))
        assert main(["verify", out]) == 1

    @pytest.mark.parametrize("b, bp, verdict", [
        ("1 0\n0 1", "1 0\n0 2", "ObstructionDeterminant"),
        ("1 0\n0 6", "2 0\n0 3", "ObstructionEq1"),
    ])
    def test_obstruction_documents_verify(self, b, bp, verdict, tmp_path, capsys):
        path = write(tmp_path, "p.txt", f"n 2\nB\n{b}\nBprime\n{bp}\nw 1 0\n")
        out = str(tmp_path / "doc.json")
        assert main(["factorize", path, "--json", out]) == 1
        capsys.readouterr()
        assert json.loads(Path(out).read_text())["certificate"]["verdict"] == verdict
        assert main(["verify", out]) == 0

    @pytest.mark.parametrize("verdict", ["ObstructionDeterminant", "ObstructionEq1"])
    def test_witness_document_relabelled_as_an_obstruction_fails(self, verdict, tmp_path, capsys):
        out = str(tmp_path / "doc.json")
        assert main(["factorize", WILSON_FILE, "--all", "--json", out]) == 0
        capsys.readouterr()
        doc = json.loads(Path(out).read_text())
        doc["certificate"]["verdict"] = verdict
        Path(out).write_text(json.dumps(doc))
        assert main(["verify", out]) == 1
        assert capsys.readouterr().out == "verification FAILED\n"

    def test_invalid_json_is_parse_error(self, tmp_path):
        path = write(tmp_path, "broken.json", "{not json")
        assert main(["verify", path]) == 2

    @pytest.mark.parametrize(
        "text",
        ['{"a": ' + "1" * 5000 + "}", "[" * 200_000],
        ids=["integer-over-4300-digits", "nested-past-recursion-limit"],
    )
    def test_json_that_cannot_load_is_parse_error(self, text, tmp_path, capsys):
        # json.loads raises a plain ValueError and a RecursionError here.
        path = write(tmp_path, "unloadable.json", text)
        assert main(["verify", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON")

    def test_non_utf8_files_are_parse_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"n 2\nB\n\xff 0\n0 1\n")
        for argv in (["verify", str(bad)], ["factorize", str(bad)], ["decompose", TERNARY_FILE, "--phi", str(bad)]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text")

    def test_byte_determinism_across_thread_counts(self, tmp_path, monkeypatch, capsys):
        texts = []
        for threads in ("1", "4"):
            monkeypatch.setenv("SUPERLAT_THREADS", threads)
            out = str(tmp_path / f"t{threads}.json")
            assert main(["factorize", QUATERNARY_FILE, "--all", "--json", out]) == 1
            capsys.readouterr()
            texts.append(_without_timing(Path(out).read_text()))
        assert texts[0] == texts[1]

    def test_byte_determinism_across_repeat_runs(self, tmp_path, capsys):
        texts = []
        for tag in ("a", "b"):
            out = str(tmp_path / f"{tag}.json")
            assert main(["factorize", WILSON_FILE, "--all", "--json", out]) == 0
            capsys.readouterr()
            texts.append(_without_timing(Path(out).read_text()))
        assert texts[0] == texts[1]


class TestObstruct:
    def test_direct_two_squares_inconclusive(self, capsys):
        assert main(["obstruct", "--N", "25", "--squares", "2"]) == 1
        assert "Inconclusive" in capsys.readouterr().out

    def test_direct_three_squares_obstruction(self, capsys):
        assert main(["obstruct", "--N", "7", "--squares", "3"]) == 0
        assert "ObstructionThreeSquares" in capsys.readouterr().out

    def test_rank3_family_obstruction(self, capsys):
        assert main(["obstruct", "--family", "rank3", "--m", "3"]) == 0
        out = capsys.readouterr().out
        assert "ObstructionThreeSquares" in out
        assert "reduced = 112" in out

    def test_rank3_off_diagonal_member(self, capsys):
        args = ["obstruct", "--family", "rank3", "--m", "3",
                "--alpha", "60", "--beta", "6", "--gamma", "6"]
        assert main(args) == 0
        assert "reduced = 79" in capsys.readouterr().out

    def test_rank2_family_obstruction(self, capsys):
        args = ["obstruct", "--family", "rank2", "--m", "3", "--n", "1",
                "--alpha", "3", "--beta", "3", "--gamma", "6"]
        assert main(args) == 0
        assert "ObstructionTwoSquares" in capsys.readouterr().out

    def test_rank2_missing_params_is_parse_error(self):
        assert main(["obstruct", "--family", "rank2", "--m", "3"]) == 2

    def test_bad_family_relation_is_invariant_violation(self):
        args = ["obstruct", "--family", "rank2", "--m", "1", "--n", "1",
                "--alpha", "2", "--beta", "0", "--gamma", "2"]
        assert main(args) == 3

    def test_constant_without_squares_is_parse_error(self):
        assert main(["obstruct", "--N", "7"]) == 2

    def test_no_mode_selected_is_parse_error(self):
        assert main(["obstruct"]) == 2

    def test_obstruction_document_verifies(self, tmp_path, capsys):
        out = str(tmp_path / "cert.json")
        assert main(["obstruct", "--family", "rank3", "--m", "3", "--json", out]) == 0
        capsys.readouterr()
        assert main(["verify", out]) == 0

    def test_mislabelled_obstruction_document_fails(self, tmp_path, capsys):
        out = str(tmp_path / "cert.json")
        main(["obstruct", "--N", "25", "--squares", "2", "--json", out])
        capsys.readouterr()
        doc = json.loads(Path(out).read_text())
        doc["certificate"]["verdict"] = "ObstructionTwoSquares"
        Path(out).write_text(json.dumps(doc))
        assert main(["verify", out]) == 1

    @pytest.mark.parametrize(
        "constant, squares, forged",
        [("3", "2", "ObstructionThreeSquares"), ("7", "3", "ObstructionTwoSquares")],
    )
    def test_obstruction_of_the_other_kind_fails(self, tmp_path, capsys, constant, squares, forged):
        # The constant is not a sum of `squares` squares, so the document's
        # own verdict is an obstruction; the other kind is not what it shows.
        out = str(tmp_path / "cert.json")
        assert main(["obstruct", "--N", constant, "--squares", squares, "--json", out]) == 0
        capsys.readouterr()
        doc = json.loads(Path(out).read_text())
        doc["certificate"]["verdict"] = forged
        Path(out).write_text(json.dumps(doc))
        assert main(["verify", out]) == 1

    @pytest.mark.parametrize(
        "args, forge",
        [
            # A rank-3 member whose constant (96) is a sum of three squares,
            # relabelled as obstructed with a constant that is not.
            (["--family", "rank3", "--m", "1"],
             {"verdict": "ObstructionThreeSquares", "constant": 7}),
            # The constant no longer matches the family parameters.
            (["--family", "rank3", "--m", "3"], {"constant": 7 * 16}),
            (["--family", "rank2", "--m", "3", "--n", "1", "--alpha", "3", "--beta", "3",
              "--gamma", "6"], {"m": 1}),
            (["--family", "rank3", "--m", "3"], {"m": "3"}),
            (["--family", "rank3", "--m", "3"], {"kind": "four_squares"}),
            (["--family", "rank3", "--m", "3"], {"extra": 1}),
            # Equal in value to the true fields, but not JSON integers.
            (["--family", "rank3", "--m", "3"], {"constant": 145152.0}),
            (["--family", "rank3", "--m", "3"], {"squares": 3.0}),
        ],
        ids=["relabelled", "constant", "parameter", "string-parameter", "unknown-kind", "extra-field",
             "float-constant", "float-squares"],
    )
    def test_forged_family_document_fails(self, tmp_path, capsys, args, forge):
        out = str(tmp_path / "cert.json")
        main(["obstruct", *args, "--json", out])
        capsys.readouterr()
        doc = json.loads(Path(out).read_text())
        assert main(["verify", out]) == 0
        cert = doc["certificate"]
        for key, value in forge.items():
            (cert if key == "verdict" else cert["detail"])[key] = value
        Path(out).write_text(json.dumps(doc))
        assert main(["verify", out]) == 1


@pytest.mark.parametrize("value", ["3", True, 3.0, None])
def test_family_certificate_with_a_non_integer_parameter_fails(value):
    cert = family_obstruction("three_squares_rank3", m=3)
    assert verify_certificate(cert, None)
    forged = Certificate(cert.verdict, detail={**cert.detail, "m": value})
    assert verify_certificate(forged, None) is False


@pytest.mark.parametrize(
    "constant, squares, field, value",
    [
        ("3", "2", "constant", 3.0),
        ("1", "2", "constant", True),
        ("7", "3", "squares", 3.0),
        ("2", "2", "constant", 2.5),
    ],
    ids=["two-squares-float", "inconclusive-bool", "three-squares-float-squares", "inconclusive-fraction"],
)
def test_squares_document_with_a_non_integer_field_fails(tmp_path, capsys, constant, squares, field, value):
    # The verdict re-derived from a float or bool is the recorded one, so
    # only the JSON type tells these documents from true ones.
    out = str(tmp_path / "cert.json")
    main(["obstruct", "--N", constant, "--squares", squares, "--json", out])
    capsys.readouterr()
    assert main(["verify", out]) == 0
    doc = json.loads(Path(out).read_text())
    doc["certificate"]["detail"][field] = value
    Path(out).write_text(json.dumps(doc))
    assert main(["verify", out]) == 1


class TestRankOne:
    @pytest.mark.parametrize("w", ["1", "2"])
    def test_factorize_finds_both_isometries(self, tmp_path, capsys, w):
        path = write(tmp_path, "rank1.txt", f"n 1\nB\n2\nBprime\n2\nw {w}\n")
        assert main(["oracle", path]) == 0
        assert capsys.readouterr().out == "brute-force isometries: 2\n  -1\n  1\n"
        for mode in (["--all"], []):
            out = str(tmp_path / "doc.json")
            assert main(["factorize", path, *mode, "--json", out]) == 0
            capsys.readouterr()
            doc = json.loads(Path(out).read_text())
            cert = doc["certificate"]
            assert cert["verdict"] == "IsometricWitness"
            assert cert["witness"]["matrix"] == [["-1"]]
            want = [[["-1"]], [["1"]]] if mode else [[["-1"]]]
            assert [c["matrix"] for c in doc["candidates"]] == want
            assert main(["verify", out]) == 0

    def test_empty_kernel(self):
        problem = IsometryProblem(GramForm(Mat([[2]])), GramForm(Mat([[2]])), Vec([1]))
        assert problem.kernel_gram == () and _ambient(problem, (0,)) == (0,)
        # No rank-1 pair with equal determinants fails eq1; a negative eq1
        # target stands in for one.
        problem.eq1_target = -1
        cert = find_isometries(problem).certificate
        assert cert.verdict == "ObstructionEq1"
        assert cert.detail == {"norm": 2, "target": -1, "kernel_gram": []}
        assert verify_certificate(cert, problem)


class TestOracle:
    def test_identity_automorphisms(self, tmp_path, capsys):
        path = write(tmp_path, "id2.txt", "n 2\nB\n1 0\n0 1\nBprime\n1 0\n0 1\nw 1 0\n")
        assert main(["oracle", path]) == 0
        out = capsys.readouterr().out
        assert "brute-force isometries: 8" in out

    def test_empty_set_with_bound(self, capsys):
        assert main(["oracle", BINARY_FILE, "--bound", "4"]) == 1
        assert "brute-force isometries: 0" in capsys.readouterr().out

    @pytest.mark.parametrize("bound, code", [("-1", 2), ("-7", 2), ("0", 1)])
    def test_negative_bound_is_parse_error(self, bound, code, capsys):
        # Exit 1 would certify that no isometry exists; a bound below 0 is
        # malformed input.  --bound 0 admits only the zero matrix.
        assert main(["oracle", WILSON_FILE, "--bound", bound]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == ""
            assert captured.err == f"error: --bound must be at least 0, got {bound}\n"
        else:
            assert captured.out == "brute-force isometries: 0\n"

    def test_wilson_oracle_count(self, capsys):
        assert main(["oracle", WILSON_FILE]) == 0
        assert "brute-force isometries: 384" in capsys.readouterr().out

    def test_non_integral_form_exits_3(self, tmp_path, capsys):
        # Read entry by entry with int(), [[1, 1/2], [1/2, 1]] would list
        # 8 matrices, diag(1, -1) among them; its double has 12 isometries.
        half = "1 1/2\n1/2 1\n"
        path = write(tmp_path, "half.txt", f"n 2\nB\n{half}Bprime\n{half}w 1 0\n")
        assert main(["oracle", path]) == 3
        assert main(["factorize", path]) == 3
        assert "brute-force isometries" not in capsys.readouterr().out
        scaled = write(tmp_path, "a2.txt", "n 2\nB\n2 1\n1 2\nBprime\n2 1\n1 2\nw 1 0\n")
        assert main(["oracle", scaled]) == 0
        assert "brute-force isometries: 12" in capsys.readouterr().out

    def test_negative_target_diagonal_exits_1(self, tmp_path, capsys):
        # No column of M has B-norm -1: the oracle finds nothing, and
        # factorize stops at eq1, both with exit 1.
        path = write(tmp_path, "neg.txt", "n 2\nB\n1 0\n0 1\nBprime\n-1 0\n0 -1\nw 1 0\n")
        assert main(["oracle", path]) == 1
        assert capsys.readouterr().out == "brute-force isometries: 0\n"
        assert main(["factorize", path]) == 1
        assert "ObstructionEq1" in capsys.readouterr().out

    @pytest.mark.parametrize("b, bp", [("1 1\n1 1\n", "1 0\n0 1\n"), ("1 0\n0 1\n", "1 1\n1 1\n")])
    def test_degenerate_form_exits_3(self, b, bp, tmp_path, capsys):
        path = write(tmp_path, "deg.txt", f"n 2\nB\n{b}Bprime\n{bp}w 1 0\n")
        assert main(["oracle", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invariant violation: Gram matrix is degenerate\n"

    def test_indefinite_source_exits_4(self, tmp_path, capsys):
        path = write(tmp_path, "indef.txt", "n 2\nB\n1 2\n2 1\nBprime\n1 0\n0 1\nw 1 0\n")
        assert main(["oracle", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "unsupported: pivot 1 is -3\n"

    @pytest.mark.parametrize("bp", ["1 2\n2 1\n", "0 1\n1 0\n"])
    def test_indefinite_target_exits_1(self, bp, tmp_path, capsys):
        # M^T B M is positive semidefinite for positive definite B, so no M
        # exists.  The diagonal is non-negative, so the oracle enumerates
        # the column shells and finds no pair of rows that meets B'.
        path = write(tmp_path, "indef.txt", f"n 2\nB\n1 0\n0 1\nBprime\n{bp}w 1 0\n")
        assert main(["oracle", path]) == 1
        assert capsys.readouterr().out == "brute-force isometries: 0\n"


class TestDecomposeAndGradeBasis:
    def test_identity_decomposition(self, capsys):
        assert main(["decompose", TERNARY_FILE]) == 0
        out = capsys.readouterr().out
        assert "wt = 1" in out
        assert "a = (0, 0, 0)" in out
        assert "b = (0, 0, 0)" in out
        assert "reassembly residual = 0" in out

    def test_explicit_phi_file(self, tmp_path, capsys):
        phi = write(tmp_path, "phi.txt", "0 1 0\n1 0 0\n2 0 1\n")
        assert main(["decompose", TERNARY_FILE, "--phi", phi]) == 0
        out = capsys.readouterr().out
        assert "reassembly residual = 0" in out

    def test_phi_shape_mismatch_is_parse_error(self, tmp_path):
        phi = write(tmp_path, "phi.txt", "1 0\n0 1\n")
        assert main(["decompose", TERNARY_FILE, "--phi", phi]) == 2

    def test_anchor_override_comma_form(self, capsys):
        assert main(["decompose", TERNARY_FILE, "--w", "1,1,1"]) == 0
        assert "reassembly residual = 0" in capsys.readouterr().out

    def test_isotropic_anchor_is_invariant_violation(self, tmp_path):
        path = write(tmp_path, "hyp.txt", "n 2\nB\n0 1\n1 0\nw 1 0\n")
        assert main(["decompose", path]) == 3

    def test_grade_basis_dimensions(self, capsys):
        assert main(["grade-basis", TERNARY_FILE]) == 0
        out = capsys.readouterr().out
        assert "even dimension = 5" in out
        assert "odd dimension = 4" in out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "superlat.cli", "obstruct", "--N", "7", "--squares", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ObstructionThreeSquares" in proc.stdout
