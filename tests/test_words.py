"""Word algebra tests: encoding, shuffle, stuffle.

The shuffle product is checked against a brute-force interleaving oracle
(enumerate positions for the letters of u among len(u)+len(v) slots), the
stuffle against a direct recursive oracle without memoization.
"""

import operator
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzv import words
from mzv.words import (
    LinComb,
    all_words,
    comp_poly,
    comp_to_word,
    comp_weight,
    concat,
    format_comp_poly,
    format_word_poly,
    h1_words,
    h2_words,
    in_h1,
    in_h2,
    is_admissible,
    parse_comp,
    shuffle,
    stuffle,
    word_poly,
    word_to_comp,
)


# ---------------------------------------------------------------------------
# oracles

def shuffle_oracle(u: str, v: str) -> dict[str, int]:
    """Enumerate all C(len(u)+len(v), len(u)) interleavings directly."""
    n = len(u) + len(v)
    acc: dict[str, int] = {}
    for slots in combinations(range(n), len(u)):
        w = [""] * n
        ui = iter(u)
        for i in slots:
            w[i] = next(ui)
        vi = iter(v)
        for i in range(n):
            if not w[i]:
                w[i] = next(vi)
        s = "".join(w)
        acc[s] = acc.get(s, 0) + 1
    return acc


def stuffle_oracle(a: tuple, b: tuple) -> dict[tuple, int]:
    if not a:
        return {b: 1}
    if not b:
        return {a: 1}
    acc: dict[tuple, int] = {}
    for c, m in stuffle_oracle(a[1:], b).items():
        k = (a[0],) + c
        acc[k] = acc.get(k, 0) + m
    for c, m in stuffle_oracle(a, b[1:]).items():
        k = (b[0],) + c
        acc[k] = acc.get(k, 0) + m
    for c, m in stuffle_oracle(a[1:], b[1:]).items():
        k = (a[0] + b[0],) + c
        acc[k] = acc.get(k, 0) + m
    return acc


words_st = st.text(alphabet="01", min_size=0, max_size=5)
comps_st = st.lists(st.integers(min_value=1, max_value=4),
                    min_size=0, max_size=3).map(tuple)


# ---------------------------------------------------------------------------
# encoding

def test_comp_to_word_basics():
    assert comp_to_word(()) == ""
    assert comp_to_word((2,)) == "01"
    assert comp_to_word((2, 1)) == "011"
    assert comp_to_word((3,)) == "001"
    assert comp_to_word((2, 3)) == "01001"
    assert comp_to_word((1, 2)) == "101"


def test_word_to_comp_roundtrip():
    for n in range(0, 7):
        for w in h1_words(n) if n else [""]:
            assert comp_to_word(word_to_comp(w)) == w


def test_word_to_comp_rejects_non_h1():
    with pytest.raises(ValueError):
        word_to_comp("10")


def test_h_spaces():
    assert in_h1("") and in_h2("")
    assert in_h1("1") and not in_h2("1")
    assert in_h2("01") and in_h1("01")
    assert not in_h1("10") and not in_h2("10")
    for n in range(2, 8):
        hw = h2_words(n)
        assert len(hw) == 2 ** (n - 2)
        assert all(in_h2(w) for w in hw)
        assert set(hw) <= set(h1_words(n))
    assert len(h1_words(5)) == 16


def test_admissible_iff_h2():
    for n in range(1, 8):
        for w in h1_words(n):
            assert is_admissible(word_to_comp(w)) == in_h2(w)


def test_weight_depth_match_word_stats():
    for n in range(1, 7):
        for w in h1_words(n):
            c = word_to_comp(w)
            assert comp_weight(c) == len(w)
            assert len(c) == w.count("1")


def test_parse_comp():
    assert parse_comp("2,1,3") == (2, 1, 3)
    with pytest.raises(ValueError):
        parse_comp("2,,3")
    with pytest.raises(ValueError):
        parse_comp("2,0")


# ---------------------------------------------------------------------------
# LinComb

def test_lincomb_arithmetic():
    p = LinComb.term("a", Fraction(1, 2)) + LinComb.term("b", 3)
    q = LinComb.term("a", Fraction(1, 2))
    assert (p - q)["b"] == 3
    assert (p - q)["a"] == 0
    assert 2 * q == LinComb.term("a", 1)
    assert q - q == LinComb.zero()
    assert not (q - q)
    assert (-p)["b"] == -3


def test_lincomb_map_linear_merges():
    p = LinComb.term("x", 1) + LinComb.term("y", 2)
    r = p.map_linear(lambda k: LinComb.term("z", 1))
    assert r == LinComb.term("z", 3)


def test_lincomb_missing_key_reads_zero_and_is_not_stored():
    p = LinComb.term("a", 2)
    assert p["zz"] == 0 and "zz" not in p
    assert len(p) == 1


def test_lincomb_holds_only_nonzero_coefficients():
    assert LinComb({"a": 0, "b": Fraction(0), "c": 3}) == {"c": 3}
    assert not LinComb.term("a", 0)
    p = LinComb({"a": 1, "b": -2})
    assert not 0 * p and not p - p


# the loops LinComb.__add__, map_linear and product each ran before they
# went through LinComb.sum, kept as the oracles of its values and key order

def add_term(d: dict, k, c) -> None:
    s = d.get(k, 0) + c
    if s:
        d[k] = s
    else:
        d.pop(k, None)


def sum_oracle(terms) -> dict:
    d: dict = {}
    for k, c in terms:
        add_term(d, k, c)
    return d


def map_linear_oracle(p, f) -> dict:
    d: dict = {}
    for k, c in p.items():
        for k2, c2 in f(k).items():
            add_term(d, k2, c * c2)
    return d


def product_oracle(p, q, mul) -> dict:
    d: dict = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            c = c1 * c2
            for k, mult in mul(k1, k2).items():
                add_term(d, k, c * mult)
    return d


# coefficients that cancel one another, and 0
cancel_st = st.sampled_from([-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-1, 2)])


def lincomb_st(keys):
    return st.lists(st.tuples(keys, cancel_st), max_size=4).map(LinComb.sum)


@given(st.lists(st.tuples(st.sampled_from("abc"), cancel_st), max_size=12))
@example([("a", 1), ("b", 1), ("a", -1), ("a", 2)])
@settings(max_examples=300, deadline=None)
def test_sum_folds_as_the_loops_did(terms):
    got = LinComb.sum(terms)
    assert type(got) is LinComb
    assert list(got.items()) == list(sum_oracle(terms).items())


def test_sum_puts_a_cancelled_key_back_at_the_end():
    terms = [("a", 1), ("b", 1), ("a", -1), ("a", 2)]
    assert list(LinComb.sum(terms).items()) == [("b", 1), ("a", 2)]
    p, q = LinComb.term("a", 1) + LinComb.term("b", 1), LinComb.term("a", -1)
    assert list((p + q + LinComb.term("a", 2)).items()) == [("b", 1), ("a", 2)]


@given(lincomb_st(st.sampled_from("abc")),
       st.fixed_dictionaries({k: lincomb_st(st.sampled_from("xyz"))
                              for k in "abc"}))
@settings(max_examples=200, deadline=None)
def test_map_linear_folds_as_its_loop_did(p, images):
    got = p.map_linear(images.__getitem__)
    assert list(got.items()) == list(
        map_linear_oracle(p, images.__getitem__).items())


@given(lincomb_st(words_st), lincomb_st(words_st),
       lincomb_st(comps_st), lincomb_st(comps_st))
# cancel keys and add them back: 0101 in the shuffle, (2,1,1), (1,2,1) and
# (1,1,2) in the stuffle
@example(LinComb({"01": 1, "10": 1}), LinComb({"01": -1, "10": 2}),
         LinComb({(2,): 1, (1, 1): 1}), LinComb({(2,): 1, (1, 1): -1}))
@settings(max_examples=150, deadline=None)
def test_product_folds_as_its_loop_did(p, q, a, b):
    for got, want in [
            (shuffle(p, q), product_oracle(p, q, words._shuffle_words)),
            (concat(p, q), product_oracle(p, q, lambda u, v: {u + v: 1})),
            (stuffle(a, b), product_oracle(a, b, words._stuffle_comps))]:
        assert type(got) is LinComb
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("mutate", [
    lambda p: operator.setitem(p, "a", 2),
    lambda p: operator.delitem(p, "a"),
    lambda p: p.update({"b": 1}),
    lambda p: p.pop("a"),
    lambda p: p.popitem(),
    lambda p: p.setdefault("b", 1),
    lambda p: p.clear(),
    lambda p: operator.ior(p, {"b": 1}),
], ids=["setitem", "delitem", "update", "pop", "popitem", "setdefault",
        "clear", "ior"])
def test_lincomb_mutators_raise(mutate):
    p = LinComb.term("a", 1)
    with pytest.raises(TypeError):
        mutate(p)
    assert p == {"a": 1}


# ---------------------------------------------------------------------------
# shuffle

def test_shuffle_z2_z2():
    # z(2)*z(2) under shuffle: 2*0101 + 4*0011
    r = shuffle(word_poly("01"), word_poly("01"))
    assert r == LinComb({"0101": 2, "0011": 4})


def test_shuffle_unit():
    p = word_poly("0101", Fraction(7, 3))
    assert shuffle(p, word_poly("")) == p
    assert shuffle(word_poly(""), p) == p


@given(words_st, words_st)
@settings(max_examples=60, deadline=None)
def test_shuffle_matches_interleaving_oracle(u, v):
    got = shuffle(word_poly(u), word_poly(v))
    assert dict(got.items()) == shuffle_oracle(u, v)


@given(words_st, words_st)
@settings(max_examples=40, deadline=None)
def test_shuffle_commutes(u, v):
    assert shuffle(word_poly(u), word_poly(v)) == shuffle(
        word_poly(v), word_poly(u))


@given(words_st, words_st, words_st)
@settings(max_examples=25, deadline=None)
def test_shuffle_associates(u, v, w):
    pu, pv, pw = word_poly(u), word_poly(v), word_poly(w)
    assert shuffle(shuffle(pu, pv), pw) == shuffle(pu, shuffle(pv, pw))


def test_shuffle_total_count():
    # number of interleavings is the binomial coefficient
    from math import comb
    r = shuffle(word_poly("0001"), word_poly("011"))
    assert sum(r[w] for w in r.support()) == comb(7, 3)


def test_shuffle_preserves_h2():
    for u in h2_words(3):
        for v in h2_words(4):
            r = shuffle(word_poly(u), word_poly(v))
            assert all(in_h2(w) for w in r.support())


# ---------------------------------------------------------------------------
# stuffle

def test_stuffle_z2_z2():
    # z(2)*z(2) = 2 z(2,2) + z(4)
    r = stuffle(comp_poly((2,)), comp_poly((2,)))
    assert r == LinComb({(2, 2): 2, (4,): 1})


def test_stuffle_z1_z2():
    r = stuffle(comp_poly((1,)), comp_poly((2,)))
    assert r == LinComb({(1, 2): 1, (2, 1): 1, (3,): 1})


def test_stuffle_z2_z3():
    r = stuffle(comp_poly((2,)), comp_poly((3,)))
    assert r == LinComb({(2, 3): 1, (3, 2): 1, (5,): 1})


@given(comps_st, comps_st)
@settings(max_examples=60, deadline=None)
def test_stuffle_matches_oracle(a, b):
    got = stuffle(comp_poly(a), comp_poly(b))
    assert dict(got.items()) == stuffle_oracle(a, b)


@given(comps_st, comps_st, comps_st)
@settings(max_examples=25, deadline=None)
def test_stuffle_associates(a, b, c):
    pa, pb, pc = comp_poly(a), comp_poly(b), comp_poly(c)
    assert stuffle(stuffle(pa, pb), pc) == stuffle(pa, stuffle(pb, pc))


@given(comps_st, comps_st)
@settings(max_examples=40, deadline=None)
def test_stuffle_preserves_weight(a, b):
    n = comp_weight(a) + comp_weight(b)
    r = stuffle(comp_poly(a), comp_poly(b))
    assert all(comp_weight(c) == n for c in r.support())


def test_each_product_fills_only_its_own_memo(monkeypatch):
    # the two products share one recursion, but the benchmark counts the
    # entries of their memos apart
    monkeypatch.setattr(words, "_shuffle_memo", {})
    monkeypatch.setattr(words, "_stuffle_memo", {})
    shuffle(word_poly("011"), word_poly("01"))
    assert words._shuffle_memo and not words._stuffle_memo
    words._shuffle_memo.clear()
    stuffle(comp_poly((2, 1)), comp_poly((2,)))
    assert words._stuffle_memo and not words._shuffle_memo


# ---------------------------------------------------------------------------
# concat and printing

def test_concat():
    r = concat(word_poly("01"), word_poly("1"))
    assert r == word_poly("011")


def test_format_word_poly_canonical_order():
    p = LinComb({"0101": 2, "0011": 4})
    assert format_word_poly(p) == "4*0011 + 2*0101"
    q = LinComb({"01": 1, "0011": Fraction(-1, 2), "": Fraction(3, 4)})
    assert format_word_poly(q) == "3/4 + 01 - 1/2*0011"
    assert format_word_poly(LinComb.zero()) == "0"


def test_format_comp_poly():
    p = LinComb({(2, 2): 2, (4,): 1})
    assert format_comp_poly(p) == "z(4) + 2*z(2,2)"


def format_terms_reference(pairs):
    """_format_terms through Fraction's abs, < and str."""
    if not pairs:
        return "0"
    out = []
    for text, c in pairs:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if not text:
            body = str(mag)
        elif mag == 1:
            body = text
        else:
            body = f"{mag}*{text}"
        if not out:
            out.append(body if sign == "+" else "-" + body)
        else:
            out.append(f" {sign} {body}")
    return "".join(out)


_coefficients = st.one_of(
    st.integers(-10**30, 10**30),
    st.sampled_from([1, -1, Fraction(1), Fraction(-1), Fraction(4, 2)]),
    st.fractions().filter(lambda q: q.denominator > 1))


@given(st.lists(st.tuples(st.sampled_from(["", "01", "z(2)*z(3)"]),
                          _coefficients), max_size=5))
# a negative first term, n/d, and the empty monomial
@example([("z(5)", Fraction(-9, 2)), ("", Fraction(3, 4)), ("01", -1)])
@settings(max_examples=200, deadline=None)
def test_format_terms_matches_the_fraction_body(pairs):
    assert words._format_terms(pairs) == format_terms_reference(pairs)
