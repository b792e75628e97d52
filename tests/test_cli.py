"""Command-line surface tests.

Each case drives cli.main with an argv list and asserts on captured output
plus the exit-status contract: 0 success, 1 mathematical mismatch, 2 usage
or parse errors.  An autouse fixture points the cache at a temp directory
so runs never touch the working tree.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath import mp

from mzv import cli, conjectures, engine, numeric


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("MZV_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# word-algebra commands

def test_shuffle_examples(capsys):
    code, out, _ = run(capsys, "shuffle", "01", "01")
    assert code == 0 and out.strip() == "4*0011 + 2*0101"
    code, out, _ = run(capsys, "shuffle", "", "01")
    assert code == 0 and out.strip() == "01"
    code, out, _ = run(capsys, "shuffle", "01", "1")
    assert code == 0 and out.strip() == "2*011 + 101"


def test_shuffle_rejects_bad_letters(capsys):
    code, _, err = run(capsys, "shuffle", "02", "01")
    assert code == 2 and err.startswith("error:")


def test_stuffle(capsys):
    code, out, _ = run(capsys, "stuffle", "2", "3")
    assert code == 0 and out.strip() == "z(5) + z(2,3) + z(3,2)"


def test_reg(capsys):
    code, out, _ = run(capsys, "reg", "101")
    assert code == 0 and out.strip() == "-2*011"


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "0101")
    assert code == 0 and out.strip() == "1/2*01·01 - 2*0011"


def test_records_mode(capsys):
    code, out, _ = run(capsys, "--records", "shuffle", "01", "01")
    assert code == 0
    assert out.splitlines() == ["term 0011 4", "term 0101 2"]


# stdout of the term printers, text then --records, as recorded
TERM_STDOUT = [
    (["shuffle", "01", "011"], "6*00111 + 3*01011 + 01101\n",
     "term 00111 6\nterm 01011 3\nterm 01101 1\n"),
    (["reg", "1101"], "3*0111\n", "term 0111 3\n"),
    (["stuffle", "2,1", "3"],
     "z(2,4) + z(5,1) + z(2,1,3) + z(2,3,1) + z(3,2,1)\n",
     "term 2,4 1\nterm 5,1 1\nterm 2,1,3 1\nterm 2,3,1 1\n"
     "term 3,2,1 1\n"),
    (["decompose", "001011"], "001011\n", "term 001011 1\n"),
    (["decompose", "1100"],
     "1/4*1\u00b71\u00b70\u00b70 - 01\u00b71\u00b70 + 011\u00b70 "
     "+ 001\u00b71 - 0011\n",
     "term 0.0.1.1 1/4\nterm 0.01.1 -1\nterm 0.011 1\nterm 001.1 1\n"
     "term 0011 -1\n"),
    # the empty key prints as "" under --records
    (["reg", ""], "1\n", 'term "" 1\n'),
    (["shuffle", "", ""], "1\n", 'term "" 1\n'),
    (["decompose", ""], "1\n", 'term "" 1\n'),
]


@pytest.mark.parametrize("argv,text,records", TERM_STDOUT)
def test_term_printers_stdout_is_pinned(capsys, argv, text, records):
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, "--records", *argv) == (0, records, "")


# ---------------------------------------------------------------------------
# rank and counting reports

def test_knt(capsys):
    code, out, _ = run(capsys, "knt", "--degree", "5")
    assert code == 0 and "match" in out


def test_knt_reads_and_caches_the_tables(capsys, tmp_path):
    code, out, _ = run(capsys, "--cache-dir", str(tmp_path), "knt",
                       "--degree", "6")
    assert (code, out) == (
        0, "degree 6: restricted rank 14, full rank 14 -> match\n")
    names = sorted(p.name for p in tmp_path.glob("degree-*.table"))
    assert names == [f"degree-0{n}.table" for n in range(2, 7)]
    assert run(capsys, "--prefer", "lex", "knt", "--degree", "6") == \
        (code, out, "")


def test_dims(capsys):
    code, out, _ = run(capsys, "dims", "--max", "6")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5  # header + degrees 3..6
    assert all(line.endswith("yes") for line in lines[1:])


def test_dims_records(capsys):
    code, out, _ = run(capsys, "--records", "dims", "--max", "5")
    assert code == 0
    assert out.splitlines() == ["dims 3 2 1 1 1 1", "dims 4 4 3 1 1 1",
                                "dims 5 8 6 2 2 1"]


def test_n23(capsys):
    code, out, _ = run(capsys, "n23", "--max", "9")
    assert code == 0
    assert "(2,2,2,3)" in out


# stdout and exit code of `--records` reports, as recorded; a record with
# no words keeps the space before its empty word list
RECORDS_STDOUT = [
    (["knt", "--degree", "5"], 0, "knt 5 6 6 1\n"),
    (["verify", "--mode", "symbolic", "z(2,1)=z(3)"], 0, "symbolic 1\n"),
    (["verify", "--mode", "symbolic", "z(2,1)=2*z(3)"], 1, "symbolic 0\n"),
    (["n23", "--max", "9"], 0,
     "n23 2 1 2\nn23 3 1 3\nn23 4 0 \nn23 5 1 2,3\nn23 6 0 \n"
     "n23 7 1 2,2,3\nn23 8 1 2,3,3\nn23 9 1 2,2,2,3\n"),
    (["cache", "--rebuild", "--degree", "4"], 0,
     "table degree-02.table\ntable degree-03.table\n"
     "table degree-04.table\n"),
]


@pytest.mark.parametrize("argv,code,records", RECORDS_STDOUT)
def test_records_stdout_is_pinned(capsys, argv, code, records):
    assert run(capsys, "--records", *argv) == (code, records, "")


def test_bk_annotates_weight_two(capsys):
    code, out, _ = run(capsys, "bk", "--max-weight", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].split()[:3] == ["2", "1", "1"]
    assert "product starts at weight 3" in lines[1]


def test_bk_records_skip_annotation(capsys):
    code, out, _ = run(capsys, "--records", "bk", "--max-weight", "9")
    assert code == 0
    assert out.splitlines() == ["bk 3 1 1", "bk 5 1 1", "bk 7 1 1",
                                "bk 8 2 1", "bk 9 1 1"]


def test_bk_reports_violations_and_a_failed_reconstruction(capsys,
                                                            monkeypatch):
    real = conjectures.bk_counts
    monkeypatch.setattr(conjectures, "bk_counts", lambda n: real(n)._replace(
        violations=((4, 2, Fraction(-1, 2)),)))
    monkeypatch.setattr(conjectures, "bk_reconstruct", lambda table: False)
    code, out, _ = run(capsys, "bk", "--max-weight", "5")
    assert code == 1
    assert out.splitlines()[-2:] == [
        "violation at weight 4 depth 2: -1/2",
        "re-exponentiation does not reproduce the series"]
    assert run(capsys, "--records", "bk", "--max-weight", "5") == (
        1, "bk 3 1 1\nbk 5 1 1\nviolation 4 2 -1/2\n", "")


# stdout of `--records bk --max-weight 30`, one n,k:count per line
BK_RECORDS_TO_30 = """
3,1:1 5,1:1 7,1:1 8,2:1 9,1:1 10,2:1 11,1:1 11,3:1 12,2:1 12,4:1 13,1:1
13,3:2 14,2:2 14,4:1 15,1:1 15,3:2 15,5:1 16,2:2 16,4:3 17,1:1 17,3:4
17,5:2 18,2:2 18,4:5 18,6:1 19,1:1 19,3:5 19,5:5 20,2:3 20,4:7 20,6:3
21,1:1 21,3:6 21,5:9 21,7:1 22,2:3 22,4:11 22,6:7 23,1:1 23,3:8 23,5:15
23,7:4 24,2:3 24,4:16 24,6:14 24,8:1 25,1:1 25,3:10 25,5:23 25,7:11
26,2:4 26,4:20 26,6:27 26,8:5 27,1:1 27,3:11 27,5:36 27,7:23 27,9:2
28,2:4 28,4:27 28,6:45 28,8:16 29,1:1 29,3:14 29,5:50 29,7:48 29,9:7
30,2:4 30,4:35 30,6:73 30,8:37 30,10:2
"""


def test_bk_records_to_weight_30_are_pinned(capsys):
    code, out, err = run(capsys, "--records", "bk", "--max-weight", "30")
    want = "".join("bk {} {} {}\n".format(*t.replace(":", ",").split(","))
                   for t in BK_RECORDS_TO_30.split())
    assert (code, out, err) == (0, want, "")


def test_freeness(capsys):
    code, out, _ = run(capsys, "freeness", "--degree", "5")
    assert code == 0 and "PASS" in out and "(5)" in out


# `--records freeness --degree n` as the rational cascade printed it: depth
# order on tables cached to weight 11, lex order on tables built in memory
FREENESS_RECORDS = {
    "depth": ["2 1 1 2", "3 1 1 3", "4 1 0 ", "5 1 1 5", "6 1 0 ", "7 1 1 7",
              "8 1 1 6,2", "9 1 1 9", "10 1 1 8,2", "11 1 2 11 8,1,2"],
    "lex": ["2 1 1 2", "3 1 1 2,1", "4 1 0 ", "5 1 1 2,1,1,1", "6 1 0 ",
            "7 1 1 2,1,1,1,1,1", "8 1 1 2,1,2,1,1,1", "9 1 1 2,1,1,1,1,1,1,1",
            "10 1 1 2,1,1,2,1,1,1,1",
            "11 1 2 2,1,1,1,1,1,1,1,1,1 2,1,2,1,1,2,1,1"],
}


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    root = tmp_path_factory.mktemp("tables")
    assert cli.main(["--cache-dir", str(root), "cache", "--rebuild",
                     "--degree", "11"]) == 0
    return root


@pytest.mark.parametrize("prefer", sorted(FREENESS_RECORDS))
def test_freeness_records_are_pinned(capsys, tables, prefer):
    source = ["--cache-dir", str(tables)] if prefer == "depth" else \
        ["--prefer", prefer]
    got = [run(capsys, *source, "--records", "freeness", "--degree", str(n))
           for n in range(2, 12)]
    assert got == [(0, f"freeness {line}\n", "")
                   for line in FREENESS_RECORDS[prefer]]


def test_freeness_failure_names_the_product_pivots(capsys, monkeypatch):
    failed = engine.FreenessReport(5, False, ("00001",), (((2,), (3,)),))
    monkeypatch.setattr(engine, "check_polynomial_freeness",
                        lambda n, cache=None: failed)
    assert run(capsys, "freeness", "--degree", "5") == (
        1, "degree 5: FAIL, 1 new generator(s): (5)\n"
           "pivots on product columns: z(2)*z(3)\n", "")
    assert run(capsys, "--records", "freeness", "--degree", "5") == (
        1, "freeness 5 0 1 5\n", "")


# ---------------------------------------------------------------------------
# verify and rewrite

def test_verify_pass_both_modes(capsys):
    code, out, _ = run(capsys, "verify",
                       "z(2,3) = 9/2*z(5) - 2*z(2)*z(3)")
    assert code == 0
    assert "symbolic: PASS" in out and "numeric: PASS" in out


def test_verify_failure_prints_residual(capsys):
    code, out, _ = run(capsys, "verify", "z(2,3) = z(5)",
                       "--mode", "symbolic")
    assert code == 1
    assert "residual = 7/2*z(5) - 2*z(2)*z(3)" in out


def test_verify_numeric_failure(capsys):
    code, out, _ = run(capsys, "verify", "z(2,3) = z(5)",
                       "--mode", "numeric", "--tol", "1e-6")
    assert code == 1 and "numeric: FAIL" in out


def test_verify_numeric_resolves_tiny_differences(capsys):
    # the sides differ by 1e-20*z(3); the sum must keep enough digits to see it
    code, out, _ = run(capsys, "verify",
                       "z(2,1) = 100000000000000000001/100000000000000000000"
                       "*z(3)", "--mode", "numeric", "--tol", "1e-30")
    assert code == 1
    assert "numeric: FAIL  |lhs - rhs| = 1.202e-20 > 1.0e-30" in out


def test_verify_numeric_takes_coefficients_beyond_float_range(capsys,
                                                             monkeypatch):
    # the error budget scales with the coefficients, here far above 1.8e308;
    # z(2) comes out to 400 digits, which stays out of the shared cache
    monkeypatch.setattr(numeric, "_value_cache", {})
    big = "9" * 400
    assert run(capsys, "verify", f"{big}*z(2) = {big}*z(2)") == (
        0, "symbolic: PASS\nnumeric: PASS  |lhs - rhs| = 0.0 <= 1.0e-6\n",
        "")
    assert run(capsys, "verify", "--mode", "numeric", f"z(2) = {big}*z(2)") \
        == (1, "numeric: FAIL  |lhs - rhs| = 1.645e+400 > 1.0e-6\n", "")


@pytest.mark.parametrize("mode", [[], ["--mode", "numeric"]])
def test_verify_numeric_target_beyond_the_digit_ceiling(capsys, mode):
    # the error budget asks for about 3007 digits, past numeric.MAX_DIGITS;
    # the default mode prints the symbolic verdict first
    big = "9" * 3000
    code, out, err = run(capsys, "verify", *mode, f"{big}*z(2,1) = {big}*z(3)")
    assert (code, out) == (2, "" if mode else "symbolic: PASS\n")
    assert err == "error: could not reach target 2.5e-3007 for (2, 1)\n"


def test_verify_numeric_failure_within_tol_counts_the_error(capsys,
                                                            monkeypatch):
    # the sides differ by 1e-6*z(3); each factor comes back off by its full
    # bound, so the computed difference alone lies within tol
    sign = {(3,): 1, (2, 1): -1}

    def off_by_bound(comp, target):
        with mp.workdps(60):
            value = mp.zeta(3) + sign[tuple(comp)] * mp.mpf(target)
        return numeric.NumericValue(tuple(comp), value, mp.mpf(target))

    monkeypatch.setattr(numeric, "mzv_numeric", off_by_bound)
    argv = ["verify", "z(3) = 1000001/1000000*z(2,1)", "--mode", "numeric",
            "--tol", "1e-6"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == "numeric: FAIL  |lhs - rhs| + error bound = " \
        "7.021e-7 + 5.0e-7 > 1.0e-6\n"
    code, out, _ = run(capsys, "--records", *argv)
    assert code == 1 and out == "numeric 0 7.021e-7\n"


@pytest.mark.parametrize("tol, shown", [pytest.param(t, s, id=t) for t, s in [
    ("nan", "nan"), ("+nan", "nan"), ("inf", "+inf"), ("-inf", "-inf"),
    ("infinity", "+inf"), ("Infinity", "+inf"), ("-infinity", "-inf"),
    ("0", "0.0"), ("-1", "-1.0"),
]])
@pytest.mark.parametrize("argv", [
    ["numeric", "--comp", "2"],
    ["verify", "z(2)*z(3) = z(5)", "--mode", "numeric"],
    ["verify", "z(2,3) = 9/2*z(5) - 2*z(2)*z(3)"],
])
def test_bad_tolerance_is_usage_error(capsys, argv, tol, shown):
    # in the default --mode both, no symbolic verdict is printed first;
    # float() reads "infinity" and "+nan", which mpf does not, and they are
    # reported as the infinity or nan they spell
    assert run(capsys, *argv, f"--tol={tol}") == (
        2, "", f"error: tolerance must be finite and positive, got {shown}\n")


def test_verify_without_one_equals_sign_is_usage_error(capsys):
    assert run(capsys, "verify", "z(2)") == (
        2, "", "error: an identity needs exactly one '='\n")


def test_verify_mixed_weight_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "z(2) = z(3)")
    assert code == 2 and "weight" in err


@pytest.mark.parametrize("argv", [
    ["rewrite", "1_1"],
    ["numeric", "--comp", "2_0"],
    ["rewrite", "+2"],
    ["verify", "--mode", "symbolic",
     "z(\N{ARABIC-INDIC DIGIT TWO},3) = 9/2*z(5) - 2*z(2)*z(3)"],
], ids=["underscore", "numeric-underscore", "plus-sign", "arabic-indic"])
def test_an_index_is_ascii_digits_and_commas(capsys, argv):
    # int() and the regex \d accept more than an index written in [0-9]
    code, out, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error:")
    assert out == "" and "Traceback" not in err


def test_verify_parse_error_position(capsys):
    code, _, err = run(capsys, "verify", "z(2,3) = 9/2*")
    assert code == 2 and "position" in err


def test_rewrite(capsys):
    code, out, _ = run(capsys, "rewrite", "2,3")
    assert code == 0 and out.strip() == "9/2*z(5) - 2*z(2)*z(3)"


def test_rewrite_non_admissible(capsys):
    code, _, err = run(capsys, "rewrite", "1,2")
    assert code == 2 and "admissible" in err


def test_prefer_lex_rewrite(capsys):
    code, out, _ = run(capsys, "--prefer", "lex", "rewrite", "3")
    assert code == 0 and out.strip() == "z(2,1)"


# ---------------------------------------------------------------------------
# numeric

def test_numeric_value(capsys):
    code, out, _ = run(capsys, "numeric", "--comp", "2", "--tol", "1e-10")
    assert code == 0
    assert out.startswith("z(2) = 1.6449340668")


def test_numeric_records(capsys):
    code, out, _ = run(capsys, "--records", "numeric", "--comp", "2,1")
    assert code == 0
    assert out.split()[:2] == ["numeric", "2,1"]
    assert out.split()[2].startswith("1.2020569")


# stdout of `numeric --comp c --tol t`, text then --records, as recorded
# before the series moved to fixed-point arithmetic
NUMERIC_STDOUT = [
    ("2,1,2", "1e-12",
     "z(2,1,2) = 0.7115661975505724320969738061 ± 1.92e-30\n",
     "numeric 2,1,2 0.7115661975505724320969738061 1.92e-30\n"),
    ("2", "1e-6",
     "z(2) = 1.644934066848226436472415 ± 1.89e-27\n",
     "numeric 2 1.644934066848226436472415 1.89e-27\n"),
    ("2,3", "1e-8",
     "z(2,3) = 0.7115661975505724320969738 ± 2.38e-27\n",
     "numeric 2,3 0.7115661975505724320969738 2.38e-27\n"),
    ("3,1", "1e-18",
     "z(3,1) = 0.270580808427784547879000924135 ± 1.27e-32\n",
     "numeric 3,1 0.270580808427784547879000924135 1.27e-32\n"),
    ("2,1", "1e-30",
     "z(2,1) = 1.2020569031595942853997381615114499908 ± 2.2e-40\n",
     "numeric 2,1 1.2020569031595942853997381615114499908 2.2e-40\n"),
    ("2,1,1", "1e-30",
     "z(2,1,1) = 1.0823232337111381915160036965411679028 ± 2.08e-40\n",
     "numeric 2,1,1 1.0823232337111381915160036965411679028 2.08e-40\n"),
    ("6,2", "1e-15",
     "z(6,2) = 0.0178197404168359883626595302487 ± 1.02e-32\n",
     "numeric 6,2 0.0178197404168359883626595302487 1.02e-32\n"),
    ("10", "1e-30",
     "z(10) = 1.000994575127818085337145958900319017 ± 2.0e-40\n",
     "numeric 10 1.000994575127818085337145958900319017 2.0e-40\n"),
    ("5,2,2,1", "1e-20",
     "z(5,2,2,1) = 0.0000690159842266899601204718010959 ± 1.0e-32\n",
     "numeric 5,2,2,1 0.0000690159842266899601204718010959 1.0e-32\n"),
    ("4,1,1,1", "1e-24",
     "z(4,1,1,1) = 0.0041231651524325355320233157631038 ± 1.0e-34\n",
     "numeric 4,1,1,1 0.0041231651524325355320233157631038 1.0e-34\n"),
    ("3,2,2,3", "1e-27",
     "z(3,2,2,3) = 0.0024420345760065525874212843896003503 ± 1.0e-37\n",
     "numeric 3,2,2,3 0.0024420345760065525874212843896003503 1.0e-37\n"),
    ("2,1,1,1,1,1", "1e-15",
     "z(2,1,1,1,1,1) = 1.00834927738192282683979754985 ± 2.19e-32\n",
     "numeric 2,1,1,1,1,1 1.00834927738192282683979754985 2.19e-32\n"),
    # the series at dps 118, cal 1020, amax 78
    ("2,1,2", "1e-100",
     "z(2,1,2) = "
     "0.7115661975505724320969738060864026120925612044383392364922"
     "22496457686085745058265115425234463600798964102965 ± 1.71e-110\n",
     "numeric 2,1,2 "
     "0.7115661975505724320969738060864026120925612044383392364922"
     "22496457686085745058265115425234463600798964102965 1.71e-110\n"),
    ("3,1,2", "1e-100",
     "z(3,1,2) = "
     "0.0792213975652071659990328100778010916742438485100519378715"
     "012234950244530447925382085028868364889472644686636 ± 1.08e-110\n",
     "numeric 3,1,2 "
     "0.0792213975652071659990328100778010916742438485100519378715"
     "012234950244530447925382085028868364889472644686636 1.08e-110\n"),
    ("2,1,1,1,2", "1e-100",
     "z(2,1,1,1,2) = "
     "0.6587533875711093581412522186346254271044356998380703541143"
     "38479461207811236216454435465656617420951550569802 ± 1.66e-110\n",
     "numeric 2,1,1,1,2 "
     "0.6587533875711093581412522186346254271044356998380703541143"
     "38479461207811236216454435465656617420951550569802 1.66e-110\n"),
]


@pytest.mark.parametrize("comp,tol,text,records", NUMERIC_STDOUT)
def test_numeric_stdout_is_pinned(capsys, monkeypatch, comp, tol, text,
                                  records):
    monkeypatch.setattr(numeric, "_value_cache", {})
    assert run(capsys, "numeric", "--comp", comp, "--tol", tol) == \
        (0, text, "")
    monkeypatch.setattr(numeric, "_value_cache", {})
    assert run(capsys, "--records", "numeric", "--comp", comp,
               "--tol", tol) == (0, records, "")


def test_numeric_stdout_of_a_second_attempt_is_pinned(capsys, monkeypatch):
    # the first attempt reports a bound above the target, so the value and
    # bound printed come from the second attempt's parameters
    calls = []
    compute = numeric._compute

    def first_attempt_misses(*args):
        calls.append(args[1:])
        value, bound = compute(*args)
        return (value, mp.mpf(1)) if len(calls) == 1 else (value, bound)

    monkeypatch.setattr(numeric, "_compute", first_attempt_misses)
    for argv, out in [
            ([], "z(2,3) = 0.7115661975505724320969738060864026 "
                 "± 1.71e-36\n"),
            (["--records"], "numeric 2,3 0.7115661975505724320969738060864026 "
                            "1.71e-36\n")]:
        monkeypatch.setattr(numeric, "_value_cache", {})
        calls.clear()
        assert run(capsys, *argv, "numeric", "--comp", "2,3",
                   "--tol", "1e-20") == (0, out, "")
        assert calls == [numeric._params(20), numeric._params(26)]


@pytest.mark.parametrize("argv", [
    ["numeric", "--comp", "3,2"],
    ["verify", "z(2)*z(3) = z(5)", "--mode", "numeric"],
])
def test_unreachable_target_is_usage_error(capsys, monkeypatch, argv):
    # every attempt leaves an error bound above the target
    monkeypatch.setattr(numeric, "_value_cache", {})
    monkeypatch.setattr(numeric, "_compute",
                        lambda *args: (mp.mpf(1), mp.mpf(1)))
    code, out, err = run(capsys, *argv, "--tol", "1e-8")
    assert code == 2 and err.startswith("error: could not reach target")
    assert out == "" and "Traceback" not in err


def test_tolerance_below_the_float_range(capsys, monkeypatch):
    # --tol is read in mpf from its text, so 1e-400 is not taken for 0; z(2)
    # to 400 digits stays out of the shared cache
    monkeypatch.setattr(numeric, "_value_cache", {})
    code, out, err = run(capsys, "numeric", "--comp", "2", "--tol", "1e-400")
    with mp.workdps(420):
        want = mp.nstr(mp.pi ** 2 / 6, 400)[:-1]
    assert (code, err) == (0, "") and out.startswith(f"z(2) = {want}")
    assert mp.mpf(out.split()[-1]) <= mp.mpf("1e-400")
    # 1e-1001 asks for more than numeric.MAX_DIGITS
    assert run(capsys, "numeric", "--comp", "2", "--tol", "1e-1001") == \
        (2, "", "error: could not reach target 1e-1001 for (2,)\n")
    # the per-factor target is an mpf, printed to 15 digits whatever the
    # working precision
    assert run(capsys, "verify", "--mode", "numeric", "z(2) = z(2)",
               "--tol", "1e-1001") == \
        (2, "", "error: could not reach target 2.5e-1002 for (2,)\n")


@pytest.mark.parametrize("argv", [
    ["numeric", "--comp", "2"],
    ["verify", "z(2) = z(2)", "--mode", "symbolic"],
])
def test_tolerance_that_is_not_a_number_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as e:
        cli.main([*argv, "--tol", "abc"])
    assert e.value.code == 2
    assert "argument --tol: not a number: 'abc'" in capsys.readouterr().err


def test_verify_numeric_mode_ignores_the_ceiling(capsys):
    # --ceiling bounds the relation engine, which only the symbolic check runs
    assert run(capsys, "verify", "--mode", "numeric", "z(13) = z(13)") == \
        (0, "numeric: PASS  |lhs - rhs| = 0.0 <= 1.0e-6\n", "")
    for mode in ([], ["--mode", "both"], ["--mode", "symbolic"]):
        code, out, err = run(capsys, "verify", *mode, "z(13) = z(13)")
        assert (code, out) == (2, "") and "exceeds the ceiling 12" in err


# ---------------------------------------------------------------------------
# ceiling and cache

def test_ceiling_refusal(capsys):
    code, _, err = run(capsys, "dims", "--max", "14")
    assert code == 2 and "ceiling" in err
    code, _, err = run(capsys, "rewrite", "7,6")
    assert code == 2 and "ceiling" in err


def test_ceiling_can_be_moved(capsys):
    code, out, _ = run(capsys, "--ceiling", "6", "rewrite", "2,4")
    assert code == 0 and "z(2)*z(2)*z(2)" in out
    code, _, _ = run(capsys, "--ceiling", "5", "rewrite", "2,4")
    assert code == 2


def _child(*args):
    """A fresh interpreter on this checkout's mzv, with output captured."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_repeated_calls_print_what_each_call_prints_alone(capsys):
    # main reuses one parser per process; no top-level flag of one call may
    # carry over to the next
    calls = [
        ["--records", "freeness", "--degree", "5"],
        ["freeness", "--degree", "5"],
        ["--prefer", "lex", "freeness", "--degree", "5"],
        ["freeness", "--degree", "5"],
        ["--ceiling", "13", "rewrite", "2,3"],
        ["rewrite", "11,2"],
    ]
    alone = []
    for argv in calls:
        proc = _child("-m", "mzv.cli", *argv)
        alone.append((proc.returncode, proc.stdout, proc.stderr))
    assert [run(capsys, *argv) for argv in calls] == alone
    assert alone[0][1] == "freeness 5 1 1 5\n"
    assert alone[2][1] == "degree 5: PASS, 1 new generator(s): (2,1,1,1)\n"
    assert alone[3][1] == "degree 5: PASS, 1 new generator(s): (5)\n"
    assert alone[5][0] == 2 and "exceeds the ceiling 12" in alone[5][2]


# ---------------------------------------------------------------------------
# start-up: only the numeric oracle loads mpmath

# runs each argv of the JSON list in sys.argv[1] through cli.main, then
# prints which heavy modules are loaded, first after the import alone
_PROBE = """
import json, sys
from mzv import cli
def loaded():
    return [m for m in ("mpmath", "dataclasses", "inspect")
            if m in sys.modules]
seen = [[None, loaded()]]
for argv in json.loads(sys.argv[1]):
    seen.append([cli.main(argv), loaded()])
print(json.dumps(seen))
"""

IDENTITY = "z(2,3) = 9/2*z(5) - 2*z(2)*z(3)"


def _probe(tmp_path, *calls):
    proc = _child("-c", _PROBE, json.dumps(
        [["--cache-dir", str(tmp_path), *argv] for argv in calls]))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_only_the_numeric_oracle_loads_mpmath(tmp_path):
    seen = _probe(tmp_path,
                  ["cache", "--rebuild", "--degree", "5"],
                  ["rewrite", "2,3"],
                  ["verify", IDENTITY, "--mode", "symbolic"],
                  ["dims", "--max", "5"],
                  ["freeness", "--degree", "5"],
                  ["n23", "--max", "6"],
                  ["bk", "--max-weight", "8"],
                  ["numeric", "--comp", "2"])
    assert seen == [[None, []]] + [[0, []]] * 7 + [[0, ["mpmath"]]]
    # the default mode checks numerically after the symbolic check
    assert _probe(tmp_path, ["verify", IDENTITY]) == \
        [[None, []], [0, ["mpmath"]]]


def test_grammars_are_compiled_on_first_use(tmp_path):
    proc = _child("-c", """
import sys
from mzv import cli, engine, store
def compiled():
    return [f.cache_info().currsize
            for f in (store._grammar, engine._gen_grammar)]
seen = [compiled()]
for argv in (["numeric", "--comp", "2"], ["cache", "--rebuild", "--degree", "5"],
             ["rewrite", "2,3"]):
    cli.main(["--cache-dir", sys.argv[1], *argv])
    seen.append(compiled())
print(seen)
""", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    # a build writes tables without parsing any; a load parses them
    assert proc.stdout.splitlines()[-1] == "[[0, 0], [0, 0], [0, 0], [1, 1]]"


def test_bad_tolerance_in_a_fresh_process_prints_only_the_error():
    # the default mode checks the tolerance, importing mpmath to do so,
    # before the symbolic check can print its verdict
    proc = _child("-m", "mzv.cli", "verify", IDENTITY, "--tol", "nan")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: tolerance must be finite and positive, got nan\n")


def test_package_exports_the_numeric_oracle_on_demand():
    proc = _child("-c", """
import sys
import mzv
assert "mpmath" not in sys.modules
from mzv import identity_values, mzv_numeric
assert mzv_numeric is mzv.numeric.mzv_numeric
assert identity_values is mzv.numeric.identity_values
ns = {}
exec("from mzv import *", ns)
assert set(mzv.__all__) <= set(ns), set(mzv.__all__) - set(ns)
assert ns["mzv_numeric"]((2,), 1e-6).value > 1.64
try:
    mzv.no_such_name
except AttributeError:
    print("ok")
""")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_package_resolves_the_numeric_oracle_lazily():
    import mzv
    assert mzv.mzv_numeric is numeric.mzv_numeric
    assert mzv.identity_values is numeric.identity_values
    with pytest.raises(AttributeError):
        mzv.no_such_name


def test_ceiling_hard_maximum():
    with pytest.raises(SystemExit) as e:
        cli.main(["--ceiling", "20", "dims", "--max", "3"])
    assert e.value.code == 2


def test_cache_path_uses_environment(capsys, isolated_cache):
    code, out, _ = run(capsys, "cache", "--path")
    assert code == 0 and out.strip() == str(isolated_cache)


def test_cache_flag_beats_environment(capsys, tmp_path):
    other = tmp_path / "elsewhere"
    code, out, _ = run(capsys, "--cache-dir", str(other), "cache", "--path")
    assert code == 0 and out.strip() == str(other)


def test_cache_requires_an_action(capsys):
    code, _, err = run(capsys, "cache")
    assert code == 2 and "rebuild" in err


def test_cache_rebuild_is_deterministic(capsys, isolated_cache):
    code, out, _ = run(capsys, "cache", "--rebuild", "--degree", "6")
    assert code == 0 and "rebuilt 5 table file(s)" in out
    first = {p.name: p.read_bytes()
             for p in isolated_cache.glob("degree-*.table")}
    assert len(first) == 5
    code, _, _ = run(capsys, "cache", "--rebuild", "--degree", "6")
    assert code == 0
    second = {p.name: p.read_bytes()
              for p in isolated_cache.glob("degree-*.table")}
    assert first == second


def test_cache_rebuild_rejects_nondefault_preference(capsys):
    code, _, err = run(capsys, "--prefer", "lex", "cache", "--rebuild")
    assert code == 2 and "preference" in err


def test_cache_rebuild_that_writes_nothing_is_an_error(capsys, tmp_path):
    # a regular file as the cache directory: every write fails
    target = tmp_path / "not-a-directory"
    target.write_text("")
    code, out, err = run(capsys, "--cache-dir", str(target), "cache",
                         "--rebuild", "--degree", "4")
    assert code == 2 and out == "" and err.startswith("error:")
    assert all(f"degree-0{n}.table" in err for n in (2, 3, 4))


def test_rewrite_populates_cache(capsys, isolated_cache):
    run(capsys, "rewrite", "2,3")
    names = sorted(p.name for p in isolated_cache.glob("degree-*.table"))
    assert names == [f"degree-0{n}.table" for n in range(2, 6)]


def test_prefer_lex_never_persists(capsys, isolated_cache):
    run(capsys, "--prefer", "lex", "rewrite", "2,3")
    assert not isolated_cache.exists()


# ---------------------------------------------------------------------------
# malformed arguments: every one is refused before any computation starts

_GOOD_PART = st.integers(1, 4).map(str)
_BAD_PART = st.sampled_from(["", "0", "-1", "-12", "x", "2.5", "1e3", " "])
# an index with at least one empty, zero, negative or non-integer part
_BAD_INDEX = st.builds(lambda a, bad, b: ",".join(a + [bad] + b),
                       st.lists(_GOOD_PART, max_size=3), _BAD_PART,
                       st.lists(_GOOD_PART, max_size=3))
# a positional that starts with '-' would be read as an option
_BAD_INDEX_ARG = _BAD_INDEX.filter(lambda s: not s.startswith("-"))
_BAD_WORD = st.text("01 2ax", min_size=1, max_size=6).filter(
    lambda w: w.strip("01"))
_BAD_TOL = st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "-1e-9"])
_BAD_SIDE = st.one_of(
    st.sampled_from(["", "z(", "z()", "z(2,)", "z(,2)", "z 2", "y(2)", "2*",
                     "1/0*z(5)", "1/*z(5)", "z(2)(3)", "z(2)**z(3)", "+"]),
    st.builds("z({},,{})".format, st.integers(1, 9), st.integers(1, 9)),
    st.builds("z({},{})".format, st.integers(-9, 0), st.integers(1, 9)),
    st.builds("{}*z({}".format, st.integers(1, 9), st.integers(2, 9)),
)
_GOOD_SIDE = st.sampled_from(["z(5)", "z(2,3)", "9/2*z(5) - 2*z(2)*z(3)"])
_BAD_IDENTITY = st.one_of(
    st.builds("{} = {}".format, _BAD_SIDE, _GOOD_SIDE | _BAD_SIDE),
    st.builds("{} = {}".format, _GOOD_SIDE, _BAD_SIDE),
    _GOOD_SIDE,
    st.builds("{0} = {0} = {0}".format, _GOOD_SIDE),
)
_MODE = st.sampled_from([[], ["--mode", "symbolic"], ["--mode", "numeric"],
                         ["--mode", "both"]])


def _degree_args(command, flag, low, ceiling=True):
    """command with its weight flag below low, or above the ceiling."""
    bad = st.integers(-10**6, low - 1).map(
        lambda d: command + [f"{flag}={d}"])
    if ceiling:
        bad |= st.builds(
            lambda c, d: [f"--ceiling={c}", *command, f"{flag}={c + d}"],
            st.integers(2, 16), st.integers(1, 10**6))
    return bad


_MALFORMED = st.one_of(
    st.builds(lambda w, u: ["shuffle", w, u], _BAD_WORD,
              st.sampled_from(["01", ""])),
    st.builds(lambda w: ["shuffle", "01", w], _BAD_WORD),
    st.builds(lambda w: ["reg", w], _BAD_WORD),
    st.builds(lambda w: ["decompose", w], _BAD_WORD),
    st.builds(lambda c: ["stuffle", c, "2"], _BAD_INDEX_ARG),
    st.builds(lambda c: ["stuffle", "2", c], _BAD_INDEX_ARG),
    st.builds(lambda c: ["rewrite", c], _BAD_INDEX_ARG),
    st.builds(lambda c: ["rewrite", f"1,{c}"], st.integers(1, 4)),
    st.builds(lambda w: ["rewrite", str(w)], st.integers(13, 10**6)),
    st.builds(lambda c: ["numeric", f"--comp={c}"], _BAD_INDEX),
    st.builds(lambda t: ["numeric", "--comp", "2", f"--tol={t}"], _BAD_TOL),
    st.builds(lambda i, m: ["verify", i, *m], _BAD_IDENTITY, _MODE),
    st.builds(lambda t, m: ["verify", "z(2)*z(3) = z(5)", f"--tol={t}", *m],
              _BAD_TOL, _MODE.filter(lambda m: "symbolic" not in m)),
    _degree_args(["freeness"], "--degree", 2),
    _degree_args(["knt"], "--degree", 3),
    _degree_args(["dims"], "--max", 3),
    _degree_args(["cache", "--rebuild"], "--degree", 2),
    _degree_args(["n23"], "--max", 2, ceiling=False),
    _degree_args(["bk"], "--max-weight", 3, ceiling=False),
    st.just(["cache"]),
    st.just(["--prefer", "lex", "cache", "--rebuild"]),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_MALFORMED)
def test_malformed_arguments_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error:"), (argv, err)
    assert out == "" and "Traceback" not in err
