"""Regularization and relation-system tests."""

import hashlib
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzv.linalg import rank
from mzv.regularize import (
    KNT_W0_SET,
    double_shuffle_relation,
    full_system,
    knt_system,
    reg,
    x1_decompose,
)
from mzv.words import (
    LinComb,
    comp_to_word,
    format_word_poly,
    h1_words,
    h2_words,
    in_h2,
    shuffle,
    stuffle,
    word_poly,
    word_to_comp,
)


# ---------------------------------------------------------------------------
# x1 decomposition

def test_x1_decompose_101():
    d = x1_decompose(word_poly("101"))
    assert len(d.coefficients) == 2
    assert d.coefficients[0] == LinComb.term("011", -2)
    assert d.coefficients[1] == word_poly("01")


def test_x1_decompose_h2_is_constant():
    p = LinComb({"01": 1, "0011": Fraction(-3, 2)})
    d = x1_decompose(p)
    assert d.coefficients == (p,)


def test_x1_decompose_11():
    d = x1_decompose(word_poly("11"))
    assert d.coefficients == (LinComb.zero(), LinComb.zero(),
                              LinComb.term("", Fraction(1, 2)))


def test_x1_decompose_rejects_non_h1():
    with pytest.raises(ValueError):
        x1_decompose(word_poly("10"))


def test_x1_reconstruction_exhaustive():
    # unique expansion reconstructs the input, all H1 words to length 9
    for n in range(1, 10):
        for w in h1_words(n):
            assert x1_decompose(word_poly(w)).reconstruct() == word_poly(w)


# H1 polynomials: 1-4 words 1^k u of at most 10 letters, u an H2 word or
# empty, with rational coefficients
_h2_upto_10 = [""] + [w for n in range(2, 11) for w in h2_words(n)]


def _h1_word_with_ones(k):
    tails = [u for u in _h2_upto_10 if k + len(u) <= 10]
    return st.sampled_from(tails).map(lambda u: "1" * k + u)


h1_poly_st = st.dictionaries(
    st.integers(0, 10).flatmap(_h1_word_with_ones),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    min_size=1, max_size=4).map(LinComb)


@given(h1_poly_st)
@settings(max_examples=60, deadline=None)
def test_x1_decompose_polynomials(p):
    d = x1_decompose(p)
    assert d.reconstruct() == p
    for c in d.coefficients:
        assert all(in_h2(v) for v in c.support())


def test_shuffle_power_of_x1():
    # reconstruct and x1_decompose both use x1^(sh i) = i! 1^i
    power = LinComb.term("")
    for i in range(8):
        assert power == LinComb.term("1" * i, factorial(i))
        power = shuffle(power, word_poly("1"))


def test_x1_coefficients_in_h2():
    for n in range(1, 9):
        for w in h1_words(n):
            for c in x1_decompose(word_poly(w)).coefficients:
                assert all(in_h2(v) for v in c.support())


# ---------------------------------------------------------------------------
# reg

def test_reg_101():
    assert reg(word_poly("101")) == LinComb.term("011", -2)


def test_reg_fixes_h2():
    p = LinComb({"0011": 2, "01": Fraction(5, 7)})
    assert reg(p) == p


def test_reg_11_vanishes():
    assert reg(word_poly("11")) == LinComb.zero()


def test_reg_matches_recorded_output():
    # every H1 word through length 14; the digest was recorded from the
    # x1-expansion elimination, a computation independent of the closed form
    text = "".join(f"{w} {format_word_poly(reg(word_poly(w)))}\n"
                   for n in range(1, 15) for w in h1_words(n))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "514f58e201fb5258901f9c0f4b41550286ad3abf5bcd0f43eee8f3431dc7bfa3")


h1_word_st = st.integers(1, 6).flatmap(
    lambda n: st.sampled_from(h1_words(n)))


@given(h1_word_st)
@settings(max_examples=50, deadline=None)
def test_reg_idempotent(w):
    assert reg(reg(word_poly(w))) == reg(word_poly(w))


@given(h1_word_st, h1_word_st)
@settings(max_examples=40, deadline=None)
def test_reg_shuffle_homomorphism(u, v):
    pu, pv = word_poly(u), word_poly(v)
    assert reg(shuffle(pu, pv)) == shuffle(reg(pu), reg(pv))


# ---------------------------------------------------------------------------
# double shuffle rows

def test_relation_01_01():
    # encodes zeta(4) = 4 zeta(3,1)
    r = double_shuffle_relation("01", "01")
    assert r == LinComb({"0011": 4, "0001": -1})


def test_relation_01_1():
    # encodes Euler's zeta(2,1) = zeta(3)
    r = double_shuffle_relation("01", "1")
    assert r == LinComb({"011": 1, "001": -1})


def test_relation_001_1_homogeneous_h2():
    r = double_shuffle_relation("001", "1")
    assert r
    assert all(len(w) == 4 and in_h2(w) for w in r.support())


def test_relation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        double_shuffle_relation("11", "1")
    with pytest.raises(ValueError):
        double_shuffle_relation("01", "10")
    with pytest.raises(ValueError):
        double_shuffle_relation("", "1")


def relation_by_lincomb_algebra(w1, w0):
    """Test oracle: reg of shuffle minus stuffle, summed as LinCombs."""
    st = stuffle(LinComb.term(word_to_comp(w1)),
                 LinComb.term(word_to_comp(w0)))
    return reg(shuffle(word_poly(w1), word_poly(w0))
               - LinComb({comp_to_word(c): m for c, m in st.items()}))


@pytest.mark.parametrize("n", range(3, 10))
def test_system_rows_are_the_double_shuffle_relations(n):
    # the pairs in the order knt_system and full_system emit their rows
    knt_pairs = [(w1, w0) for w0 in KNT_W0_SET for w1 in h2_words(n - len(w0))]
    full_pairs = [(w1, w0) for k in range(1, n - 1) for w0 in h1_words(k)
                  for w1 in h2_words(n - k) if not in_h2(w0) or w1 <= w0]
    for system, pairs in ((knt_system, knt_pairs), (full_system, full_pairs)):
        rows = system(n).rows
        assert len(rows) == len(pairs)
        for row, (w1, w0) in zip(rows, pairs):
            assert type(row) is dict
            assert all(type(v) is int for v in row.values())
            want = relation_by_lincomb_algebra(w1, w0)
            assert row == double_shuffle_relation(w1, w0) == want


def test_rows_homogeneous_h2():
    for n in (4, 5, 6):
        for m in (knt_system(n), full_system(n)):
            for row in m.rows:
                for w in row:
                    assert w in m.column_labels
                    assert in_h2(w) and len(w) == n


def test_knt_column_counts():
    assert knt_system(4).column_labels == ["0001", "0011", "0101", "0111"]
    assert len(knt_system(6).column_labels) == 16


def test_weight_two_systems_have_no_rows():
    for m in (knt_system(2), full_system(2)):
        assert (m.column_labels, m.rows) == (["01"], [])
    for system in (knt_system, full_system):
        with pytest.raises(ValueError):
            system(1)


def test_w0_set():
    assert set(KNT_W0_SET) == {"1", "01", "001", "011"}


def test_knt_ranks_small():
    assert rank(knt_system(3)) == 1
    assert rank(knt_system(4)) == 3
    assert rank(knt_system(5)) == 6
    assert rank(knt_system(7)) == 29


def test_full_ranks_small():
    assert rank(full_system(3)) == 1
    assert rank(full_system(4)) == 3
    assert rank(full_system(5)) == 6


def test_rank_bounds():
    for n in range(3, 8):
        rk = rank(knt_system(n))
        rf = rank(full_system(n))
        assert rk <= rf <= 2 ** (n - 2) - 1
