"""Floating-point oracle tests.

References are classical closed forms computed with mpmath at 60 digits,
well beyond every bound requested here, so a reported bound that fails to
cover the observed error is a genuine defect and not reference noise.
"""

import json
from collections import defaultdict
from fractions import Fraction
from math import ceil, comb, log10
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mp, mpf, pi, zeta, workdps

from mzv import numeric
from mzv.conjectures import euler_even_zeta
from mzv.engine import Identity, parse_generator_poly
from mzv.numeric import (NumericValue, identity_values, mzv_numeric,
                         numeric_check)
from mzv.words import LinComb, stuffle

EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"


def ref(expr_dps60):
    with workdps(60):
        return mpf(expr_dps60())


def ref_error(r):
    """Error of a reference r computed at 60 digits, about 10^-59 |r|."""
    return mpf("1e-59") * abs(r)


# classical values: Euler for single even arguments, ζ(2,1)=ζ(3),
# ζ(3,1)=π⁴/360, ζ(2,2)=π⁴/120, ζ(2,1,1)=ζ(4)
REFERENCES = {
    (2,): lambda: pi ** 2 / 6,
    (3,): lambda: zeta(3),
    (4,): lambda: pi ** 4 / 90,
    (5,): lambda: zeta(5),
    (6,): lambda: pi ** 6 / 945,
    (8,): lambda: pi ** 8 / 9450,
    (2, 1): lambda: zeta(3),
    (3, 1): lambda: pi ** 4 / 360,
    (2, 2): lambda: pi ** 4 / 120,
    (2, 1, 1): lambda: pi ** 4 / 90,
}


def test_values_against_closed_forms(monkeypatch):
    monkeypatch.setattr(numeric, "_value_cache", {})
    for comp, make in REFERENCES.items():
        r = ref(make)
        for target in (1e-6, 1e-10, 1e-14):
            nv = mzv_numeric(comp, target)
            assert nv.abs_error_bound <= mpf(target), comp
            assert abs(nv.value - r) <= nv.abs_error_bound + ref_error(r), \
                (comp, target)


def test_bound_honesty_at_high_precision(monkeypatch):
    monkeypatch.setattr(numeric, "_value_cache", {})
    for s in (2, 4, 6, 8):
        with workdps(60):
            r = mpf(euler_even_zeta(s).numerator) \
                / euler_even_zeta(s).denominator * pi ** s
        nv = mzv_numeric((s,), 1e-20)
        assert abs(nv.value - r) <= nv.abs_error_bound + ref_error(r)


def test_a_huge_part_takes_no_powers():
    # past the working precision every term m >= 2 rounds to 0, so a part
    # of 10**20 returns at once with the value and bound of 10**5
    big, small = mzv_numeric((10**20,)), mzv_numeric((10**5,))
    assert (big.value, big.abs_error_bound) == \
        (small.value, small.abs_error_bound)
    # both sides of the cutoff, s = 154 at the default target
    for s in (100, 152, 153, 154, 155, 200):
        nv = mzv_numeric((s,))
        with workdps(60):
            assert abs(nv.value - zeta(s)) <= nv.abs_error_bound, s


def test_refinement_is_monotone():
    prev = None
    target = mpf(1e-4)
    for _ in range(12):
        nv = mzv_numeric((2, 3), target)
        assert nv.abs_error_bound <= target
        if prev is not None:
            assert abs(nv.value - prev.value) <= \
                prev.abs_error_bound + nv.abs_error_bound
        prev = nv
        target /= 4


def test_depth_three_with_interior_one():
    # ζ(2,1,2) converges; only the leading exponent must exceed one
    nv = mzv_numeric((2, 1, 2), 1e-10)
    assert 0 < nv.value < 2


def test_stuffle_consistency_numeric():
    pairs = [((2,), (2,)), ((2,), (3,)), ((2, 1), (2,)), ((2, 2), (2,)),
             ((3,), (2, 1))]
    for a, b in pairs:
        prod = stuffle(LinComb.term(a), LinComb.term(b))
        lhs = LinComb.term((a, b))
        rhs = LinComb.zero()
        for comp, c in prod.items():
            rhs = rhs + c * LinComb.term((comp,))
        iv = identity_values(Identity(lhs, rhs), 1e-8)
        assert iv.ok, (a, b, iv.diff)


def test_identity_values_on_rewrite_identity():
    ident = Identity(parse_generator_poly("z(2,3)"),
                     parse_generator_poly("9/2*z(5) - 2*z(2)*z(3)"))
    iv = identity_values(ident, 1e-6)
    assert iv.ok
    assert iv.diff < mpf("1e-12")
    assert numeric_check(ident, 1e-6)


def test_verdict_counts_the_error_spent(monkeypatch):
    # z(3) = z(2,1), so the two sides differ by exactly 1e-6*z(3), 1.2 tol.
    # Each factor comes back off by its full bound, in the direction that
    # shrinks the difference to about 0.7 tol: only diff + error tells.
    ident = Identity(parse_generator_poly("z(3)"),
                     parse_generator_poly("1000001/1000000*z(2,1)"))
    sign = {(3,): 1, (2, 1): -1}

    def off_by_bound(comp, target):
        with workdps(60):
            value = zeta(3) + sign[tuple(comp)] * mpf(target)
        return NumericValue(tuple(comp), value, mpf(target))

    monkeypatch.setattr(numeric, "mzv_numeric", off_by_bound)
    assert not numeric_check(ident, 1e-6)
    iv = identity_values(ident, 1e-6)
    assert iv.diff <= iv.tol < iv.diff + iv.err


def test_identity_values_detects_false_identity():
    ident = Identity(parse_generator_poly("z(2,3)"),
                     parse_generator_poly("9/2*z(5)"))
    assert not numeric_check(ident, 1e-6)


def test_constant_identity():
    ident = Identity(parse_generator_poly("2"), parse_generator_poly("2"))
    assert numeric_check(ident, 1e-6)


def test_value_cache_serves_tighter_bound():
    tight = mzv_numeric((2,), 1e-18)
    loose = mzv_numeric((2,), 1e-6)
    assert loose.abs_error_bound <= tight.abs_error_bound
    assert loose.value == tight.value


def test_sub_float_tolerance():
    # 1e-400 underflows a float; the target is taken as an mpf throughout
    tiny = mpf("1e-400")
    nv = mzv_numeric((2,), tiny)
    assert nv.abs_error_bound <= tiny
    with workdps(420):
        assert abs(nv.value - pi ** 2 / 6) <= nv.abs_error_bound


@pytest.mark.parametrize("tol", [float(f"1e-{e}") for e in
                                 (6, 9, 12, 15, 18, 21, 24, 27, 30)]
                         + [0.5, 2.0, 1e-320])
def test_digits_agree_with_float_arithmetic(tol):
    expected = int(ceil(-log10(tol))) if tol < 1 else 1
    assert numeric._digits(mpf(tol)) == expected


def test_bounds_are_honest_against_the_recorded_references(monkeypatch):
    # 50-digit references for weight <= 10, depth <= 4
    monkeypatch.setattr(numeric, "_value_cache", {})
    refs = json.loads(EXPECTED.read_text())["refs"]
    assert len(refs) == 255
    for key, text in refs.items():
        nv = mzv_numeric(tuple(int(s) for s in key.split(",")), 1e-30)
        assert nv.abs_error_bound <= mpf(1e-30), key
        with workdps(60):
            assert abs(nv.value - mpf(text)) <= nv.abs_error_bound, key


@pytest.mark.parametrize("k, tol", [(20, 1e-20), (29, 1e-20), (40, 1e-6)])
def test_a_chain_of_ones_against_duality(monkeypatch, k, tol):
    # duality gives ζ(2,{1}^k) = ζ(k+2); each part 1 adds a log power,
    # whose cancellation the working precision must cover
    monkeypatch.setattr(numeric, "_value_cache", {})
    nv = mzv_numeric((2,) + (1,) * k, tol)
    r = ref(lambda: zeta(k + 2))
    assert nv.abs_error_bound <= mpf(tol)
    assert abs(nv.value - r) <= nv.abs_error_bound + ref_error(r)


def test_split_chain_of_ones_against_duality_and_stuffle(monkeypatch):
    # duality gives ζ(2,1^i,2,1^j) = ζ(j+2,i+2), and the stuffle of ζ(i+2)
    # and ζ(j+2) sums the two orders: at (i, j) = (0, 19) the parts equal
    # to 1 are one chain of 19, after or before the second 2
    monkeypatch.setattr(numeric, "_value_cache", {})
    nvs = [mzv_numeric(c, 1e-20) for c in ((2, 2) + (1,) * 19,
                                           (2,) + (1,) * 19 + (2,))]
    r = ref(lambda: zeta(2) * zeta(21) - zeta(23))
    with workdps(60):
        err = abs(sum(nv.value for nv in nvs) - r)
        assert err <= sum(nv.abs_error_bound for nv in nvs) + ref_error(r)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        mzv_numeric((1, 2))
    with pytest.raises(ValueError):
        mzv_numeric((2, 0))
    with pytest.raises(ValueError):
        mzv_numeric("21")
    with pytest.raises(ValueError):
        mzv_numeric((2,), 0.0)
    with pytest.raises(ValueError):
        mzv_numeric((2,), -1e-6)


def test_result_recordkeeping():
    nv = mzv_numeric((2, 3), 1e-8)
    assert nv.comp == (2, 3)
    assert nv.abs_error_bound > 0


# {(inverse_power, log_power): coefficient}; small coefficients make terms
# from different sources cancel often
_EXPANSION = st.dictionaries(
    st.tuples(st.integers(0, 8), st.integers(0, 5)),
    st.integers(-6, 6).filter(bool),
    max_size=30)


@given(_EXPANSION)
@example({(1, 0): 3, (1, 1): 2})    # the n^-3 terms cancel: 2*3 - 1*3*2 = 0
@example({(0, 0): 5})               # a constant has no derivative
def test_second_derivative_in_one_pass(E):
    assert numeric._deriv2(E) == numeric._deriv(numeric._deriv(E))


def _shift_reference(E, amax):
    """E(n-1) re-expanded exactly in Fractions, each coefficient rounded
    once: c n^-a log(n)^p becomes c sum_b C(a+b-1, b) n^-(a+b) times
    sum_q C(p, q) log(n)^(p-q) s^q, with s = log(1 - 1/n) = -sum_d n^-d/d."""
    s = {d: Fraction(-1, d) for d in range(1, amax + 1)}
    exact = defaultdict(Fraction)
    for (a, p), coeff in E.items():
        s_q = {0: Fraction(1)}          # s^q, {inverse power: coefficient}
        for q in range(p + 1):
            for d, v in s_q.items():
                for b in range(amax - a - d + 1):
                    # (1 - 1/n)^-a; for a = 0 only b = 0 is nonzero
                    binom = comb(a + b - 1, b) if b else 1
                    exact[a + d + b, p - q] += coeff * comb(p, q) * v * binom
            nxt = defaultdict(Fraction)
            for d1, v1 in s_q.items():
                for d2, v2 in s.items():
                    if d1 + d2 <= amax:
                        nxt[d1 + d2] += v1 * v2
            s_q = nxt
    return {key: x for key, f in exact.items()
            if (x := numeric._rdiv(f.numerator, f.denominator))}


@given(st.dictionaries(st.tuples(st.integers(0, 8), st.integers(0, 5)),
                       st.integers(-2 ** 80, 2 ** 80).filter(bool),
                       max_size=12),
       st.integers(-2, 14))
@example({}, 5)
@example({(0, 0): 5 << 64}, 5)      # a constant shifts to itself
@example({(6, 1): 7 << 64}, 4)      # every key lies beyond amax
@example({(0, 1): 3 << 64}, -1)
def test_shift_is_the_exact_re_expansion_rounded_once(E, amax):
    assert numeric._shift(E, amax) == _shift_reference(E, amax)
