"""Tests of the benchmark's own pieces: input generator, references, checks
and span arithmetic.  They import nothing from mzv.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf, zeta

import checks
import inputs
import run
import session
import tracing

BENCH = Path(__file__).resolve().parent
EXPECTED = json.loads((BENCH / "expected.json").read_text())
REFS = EXPECTED["refs"]


def _ref(c) -> mpf:
    return mpf(REFS[",".join(map(str, c))])


def _side(side) -> mpf:
    total = mpf(0)
    for coeff, mono in side:
        term = mpf(coeff.numerator) / coeff.denominator
        for f in mono:
            term *= _ref(f)
        total += term
    return total


def test_stuffle_small_cases():
    assert inputs.stuffle((2,), (3,)) == {(2, 3): 1, (3, 2): 1, (5,): 1}
    assert inputs.stuffle((2,), (2,)) == {(2, 2): 2, (4,): 1}
    ident = inputs.stuffle_identity((2,), (3,))
    assert ident.text() == "z(2)*z(3) = z(5) + z(2,3) + z(3,2)"
    assert ident.true


def test_duality_is_an_involution_on_admissible_words():
    assert inputs.dual((3,)) == (2, 1)
    assert inputs.dual((2, 1)) == (3,)
    for w in range(2, 11):
        for c in inputs.compositions(w):
            d = inputs.dual(c)
            assert sum(d) == w and d[0] >= 2
            assert inputs.dual(d) == c


def test_compositions_count_every_admissible_index():
    for w in range(2, 13):
        assert len(inputs.compositions(w)) == 2 ** (w - 2)


def test_perturbed_identity_is_false():
    ident = inputs.duality_identity((3,))
    assert not inputs.perturb(ident, Fraction(3, 2)).true
    assert inputs.perturb(ident, Fraction(3, 2)).text() == "3/2*z(3) = z(2,1)"


def test_sequences_depend_only_on_seed_and_session():
    a = [c.argv for c in inputs.lookup_commands(7, 2)]
    assert a == [c.argv for c in inputs.lookup_commands(7, 2)]
    assert a != [c.argv for c in inputs.lookup_commands(8, 2)]
    assert a != [c.argv for c in inputs.lookup_commands(7, 3)]
    b = [c.argv for c in inputs.oracle_commands(7, REFS, 2)]
    assert b == [c.argv for c in inputs.oracle_commands(7, REFS, 2)]
    assert b != [c.argv for c in inputs.oracle_commands(7, REFS, 3)]


def test_oracle_numeric_commands_are_distinct():
    for seed in range(5):
        cmds = inputs.oracle_commands(seed, REFS)
        comps = [c.comp for c in cmds if c.kind == "numeric"]
        assert len(set(comps)) == len(comps)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lookup_mix(seed):
    cmds = inputs.lookup_commands(seed)
    verifies = [c for c in cmds if c.kind == "verify_symbolic"]
    false = sum(c.expect_exit == 1 for c in verifies)
    assert false == round(inputs.LOOKUP_FALSE_SHARE * len(verifies))
    assert {c.weight for c in cmds} == set(inputs.LOOKUP_MIX)


def test_references_agree_with_mpmath_and_the_algebra():
    with mp.workdps(60):
        for w in range(2, inputs.ORACLE_MAX_WEIGHT + 1):
            assert abs(_ref((w,)) - zeta(w)) < mpf(10) ** -40
        pool = set(inputs.oracle_pool())
        for a in pool:
            for b in pool:
                if len(a) + len(b) <= inputs.ORACLE_MAX_DEPTH and \
                        sum(a) + sum(b) <= inputs.ORACLE_MAX_WEIGHT:
                    ident = inputs.stuffle_identity(a, b)
                    assert abs(_side(ident.lhs) - _side(ident.rhs)) < \
                        mpf(10) ** -40, ident.text()
            if inputs.dual(a) in pool:
                assert abs(_ref(a) - _ref(inputs.dual(a))) < mpf(10) ** -40


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_oracle_false_identities_miss_by_far_more_than_tol(seed):
    cmds = inputs.oracle_commands(seed, REFS)
    assert max(c.weight for c in cmds) <= inputs.ORACLE_MAX_WEIGHT
    assert min(c.tol for c in cmds) < 1e-15
    for c in cmds:
        if c.kind != "verify_numeric":
            continue
        # rebuild the identity from its text through the reference values
        lhs, rhs = c.argv[3].split(" = ")
        with mp.workdps(60):
            gap = abs(_text_value(lhs) - _text_value(rhs))
            if c.expect_exit == 0:
                assert gap < mpf(10) ** -40
            else:
                assert 100 * c.tol <= gap <= 1e6 * c.tol


def _text_value(side: str) -> mpf:
    total = mpf(0)
    for term in side.split(" + "):
        coeff = mpf(1)
        if not term.startswith("z("):
            head, term = term.split("*", 1)
            num, _, den = head.partition("/")
            coeff = mpf(int(num)) / int(den or 1)
        for f in term.split("*"):
            coeff *= _ref(tuple(int(x) for x in f[2:-1].split(",")))
        total += coeff
    return total


def test_checker_arithmetic():
    assert checks.recurrence_dims(12)[3:] == [1, 1, 2, 2, 3, 4, 5, 7, 9, 12]
    assert [checks.lyndon_23_count(p) for p in range(2, 13)] == \
        [1, 1, 0, 1, 0, 1, 1, 1, 1, 2, 2]


def test_reference_work_is_fixed():
    assert session.reference_work() == session.reference_work()


def test_commands_are_scaled_by_the_reference_blocks_around_them():
    ref = run.REF_S
    report = {"ref_s": [ref, 3 * ref, ref],
              "results": [{"seconds": 2.0, "ref": 0},
                          {"seconds": 4.0, "ref": 1}]}
    run._normalize(report)
    # both commands ran at half the reference pace
    assert [r["norm_s"] for r in report["results"]] == [1.0, 2.0]
    assert report["norm_wall_s"] == 3.0
    assert report["pace"] == pytest.approx(3 / 5)


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, None],
             ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None],
             ["b", 5.0, 6.0, 0, None]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_recursive_spans_count_once_in_inclusive_time():
    spans = [["engine.echelonize", 0.0, 10.0, -1, None],
             ["engine.echelonize", 1.0, 4.0, 0, None],
             ["linalg.rref", 5.0, 9.0, 0, {"unlabeled": False, "bits": 7}]]
    m = tracing.layer_metrics({"spans": spans, "memos": {}, "missing": []})
    assert m["engine.echelonize_self_s"] == 6.0
    assert m["linalg.rref_s"] == 4.0
    assert m["linalg.rref_resolve_s"] == 0
    assert m["linalg.max_coeff_bits"] == 7


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    memos = {"words.shuffle_memo_entries": 0, "words.stuffle_memo_entries": 0,
             "lyndon.radford_memo_entries": 0, "lyndon.expand_memo_entries": 0}
    names = set(tracing.layer_metrics(
        {"spans": [], "memos": memos, "missing": []}))
    names.add("trace.overhead_s")
    assert names == {m["name"] for m in spec["per_layer"]}
