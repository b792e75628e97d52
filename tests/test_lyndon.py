"""Lyndon word tests.

lyndon_words is checked against a brute rotation filter, cfl_factor against
the defining property (nonincreasing Lyndon factors whose concatenation is
the word), and radford_decompose against round-trip expansion and against
radford_reference, the rational cascade it replaced, as is integer_radford
on int and Fraction input.  is_lyndon and standard_factorization are read
off cfl_factor, so the Lyndon property is checked by its definition
(lyndon_by_definition), never through cfl_factor.
"""

import heapq
import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, gcd, lcm, prod

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzv import lyndon
from mzv.lyndon import (
    bracket,
    cfl_factor,
    expand,
    format_lyndon_monomial,
    format_lyndon_poly,
    integer_radford,
    is_lyndon,
    lyndon_words,
    monomial_expand,
    radford_decompose,
    radford_decompose_poly,
    residual_derivation,
    right_residual,
    standard_factorization,
)
from mzv.words import LinComb, all_words, h2_words, shuffle, word_poly


def brute_lyndon(n: int) -> list[str]:
    out = []
    for w in all_words(n):
        if all(w < w[i:] + w[:i] for i in range(1, n)):
            out.append(w)
    return out


def lyndon_by_definition(w: str) -> bool:
    # nonempty and strictly smaller than each proper right factor
    return bool(w) and all(w < w[i:] for i in range(1, len(w)))


words_st = st.text(alphabet="01", min_size=1, max_size=8)


def test_is_lyndon_basics():
    assert is_lyndon("0")
    assert is_lyndon("1")
    assert is_lyndon("01")
    assert is_lyndon("001")
    assert is_lyndon("011")
    assert not is_lyndon("")
    assert not is_lyndon("10")
    assert not is_lyndon("00")
    assert not is_lyndon("0101")
    assert not is_lyndon("0110")


def test_is_lyndon_matches_definition_exhaustive():
    words = [w for n in range(13) for w in all_words(n)]
    words += ["".join(t) for n in range(9)
              for t in itertools.product("23", repeat=n)]
    for w in words:
        assert is_lyndon(w) == lyndon_by_definition(w), w


def test_lyndon_words_against_brute():
    for n in range(1, 10):
        got = lyndon_words(n)
        assert got == brute_lyndon(n)
        assert got == sorted(got)


def test_lyndon_words_below_length_one():
    # all_words(-1) raises, so the filter needs its guard
    assert lyndon_words(0) == lyndon_words(-1) == []


def test_lyndon_counts():
    # necklace-counting values for a binary alphabet
    expected = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30, 9: 56,
                10: 99, 11: 186, 12: 335}
    for n, cnt in expected.items():
        assert len(lyndon_words(n)) == cnt


def test_cfl_examples():
    assert cfl_factor("0101") == ["01", "01"]
    assert cfl_factor("10") == ["1", "0"]
    assert cfl_factor("0011") == ["0011"]
    assert cfl_factor("011010") == ["011", "01", "0"]
    assert cfl_factor("") == []


@given(words_st)
@settings(max_examples=150, deadline=None)
def test_cfl_property(w):
    fac = cfl_factor(w)
    assert "".join(fac) == w
    assert all(lyndon_by_definition(f) for f in fac)
    assert all(fac[i] >= fac[i + 1] for i in range(len(fac) - 1))


@given(words_st)
@settings(max_examples=100, deadline=None)
def test_cfl_of_lyndon_is_itself(w):
    if lyndon_by_definition(w):
        assert cfl_factor(w) == [w]


def test_standard_factorization():
    assert standard_factorization("01") == ("0", "1")
    assert standard_factorization("001") == ("0", "01")
    assert standard_factorization("011") == ("01", "1")
    assert standard_factorization("00101") == ("001", "01")
    u, v = standard_factorization("0010011")
    assert u + v == "0010011"
    assert is_lyndon(u) and is_lyndon(v)
    assert u < v


def test_standard_factorization_exhaustive():
    # v is the longest proper suffix that is Lyndon by the definition
    for n in range(2, 13):
        for w in lyndon_words(n):
            i = next(i for i in range(1, n) if lyndon_by_definition(w[i:]))
            assert standard_factorization(w) == (w[:i], w[i:]), w


def test_monomial_expand_leading_term():
    # leading word of the expansion of ("01","01") is 0101 with coeff 2!
    e = monomial_expand(("01", "01"))
    assert max(e.support(), key=lambda w: (len(w), w)) == "0101"
    assert e["0101"] == 2
    assert e == shuffle(word_poly("01"), word_poly("01"))
    # the triangularity radford_decompose_poly reads its pivot from: w is
    # the largest word of its CFL monomial's expansion, with coefficient the
    # product of the factor multiplicities' factorials
    for n in range(12):
        for w in all_words(n):
            fac = cfl_factor(w)
            e = monomial_expand(tuple(sorted(fac)))
            assert max(e.support(), key=lambda u: (len(u), u)) == w
            assert e[w] == prod(factorial(m) for m in Counter(fac).values())


def test_radford_single_words():
    d = radford_decompose("0011")
    assert d == LinComb.term(("0011",), 1)
    d2 = radford_decompose("0101")
    assert d2 == LinComb({("01", "01"): Fraction(1, 2), ("0011",): -2})
    assert radford_decompose("001") == LinComb.term(("001",), 1)
    assert radford_decompose("10") == LinComb({("0", "1"): 1, ("01",): -1})


@given(st.lists(st.tuples(words_st, st.fractions(-3, 3, max_denominator=6)),
                min_size=0, max_size=4))
@settings(max_examples=60, deadline=None)
def test_radford_roundtrip(pairs):
    p = LinComb.zero()
    for w, c in pairs:
        p = p + LinComb.term(w, c)
    d = radford_decompose_poly(p)
    assert expand(d) == p


def radford_reference(p: LinComb) -> LinComb:
    """Test oracle: the rational cascade, one Fraction per written
    coefficient and a Chen-Fox-Lyndon factorization per pop."""
    result = {}
    den = lcm(1, *(c.denominator for c in p.values()))
    work = {w: int(c * den) for w, c in p.items()}
    heap = [(-len(w), -int(w or "0", 2), w) for w in work]
    heapq.heapify(heap)
    while heap:
        w = heapq.heappop(heap)[2]
        c = work.get(w, 0)
        if not c:
            continue
        mono = tuple(reversed(cfl_factor(w)))
        expansion = monomial_expand(mono)
        lead = expansion[w]
        g = lead // gcd(c, lead)
        if g > 1:
            den *= g
            c *= g
            for k in work:
                work[k] *= g
        result[mono] = Fraction(c, den * lead)
        q = c // lead
        for w2, c2 in expansion.items():
            s = work.get(w2, 0)
            if not s:
                heapq.heappush(heap, (-len(w2), -int(w2, 2), w2))
            s -= q * c2
            if s:
                work[w2] = s
            else:
                del work[w2]
    return LinComb._raw(result)


rational_word_polys = st.lists(
    st.tuples(st.text(alphabet="01", max_size=8),
              st.fractions(-3, 3, max_denominator=6)),
    max_size=4).map(LinComb.sum)


@given(rational_word_polys)
@example(LinComb.zero())
@example(LinComb.term("", Fraction(-5, 3)))
@example(LinComb.term("011000"))  # D grows twice: 3! at 011000, 2 at 010100
@example(LinComb({"011000": Fraction(1, 5), "0101": Fraction(2, 7), "": 1}))
@settings(max_examples=150, deadline=None)
def test_radford_matches_the_rational_reference(p):
    got, want = radford_decompose_poly(p), radford_reference(p)
    assert got == want
    assert list(got) == list(want)      # the same monomial order too


def test_integer_radford_raises_d_where_a_lead_does_not_divide():
    # 011000 factors as 011.0.0.0, lead 3! = 6; the cascade then reaches
    # 010100 = 01.01.0.0, lead 2! 2! = 4, with a numerator whose gcd with 4
    # is 2, so D = 6 * 2, and the numerator written first is rescaled
    p = {"011000": 1}
    den, num = integer_radford(p)
    assert den == 12 and p == {"011000": 1}
    assert all(isinstance(q, int) for q in num.values())
    assert LinComb._raw({m: Fraction(q, den) for m, q in num.items()}) == \
        radford_reference(word_poly("011000"))
    assert num[("0", "0", "0", "011")] == 2     # 1/6, written over 6, then 12
    assert integer_radford({}) == (1, {})


# plain dicts of int and Fraction coefficients, zeros kept, the empty word
# and words of every length up to 8 allowed
mixed_word_dicts = st.dictionaries(
    st.text(alphabet="01", max_size=8),
    st.integers(-4, 4) | st.fractions(-3, 3, max_denominator=6),
    max_size=4)


@given(mixed_word_dicts)
@example({})
@example({"": Fraction(-5, 3), "1": 0})
# a freeness rule row: the rule 0101 -> 3/4 0001 of weight 4, head -1
@example({"0101": -1, "0001": Fraction(3, 4)})
# D = 5 from the input's lcm, times 3! at 011000, times 2 at 010100
@example({"011000": Fraction(1, 5)})
@settings(max_examples=150, deadline=None)
def test_integer_radford_takes_rationals(p):
    given_p = dict(p)
    den, num = integer_radford(p)
    assert p == given_p
    assert den % lcm(*(c.denominator for c in p.values())) == 0
    assert all(isinstance(q, int) and q for q in num.values())
    got = {m: Fraction(q, den) for m, q in num.items()}
    assert got == radford_reference(LinComb(p))


def test_duval_runs_once_per_word(monkeypatch):
    # the expansion memo is keyed by word, so cascades that pop the same
    # words again factor none of them twice
    calls = Counter()
    factor = lyndon.cfl_factor
    monkeypatch.setattr(lyndon, "_expand_memo", {})
    monkeypatch.setattr(lyndon, "cfl_factor",
                        lambda w: calls.update([w]) or factor(w))
    for _ in range(2):
        for w in all_words(7):
            radford_decompose(w)
    assert set(calls) == set(lyndon._expand_memo)
    assert set(calls.values()) == {1}
    assert monomial_expand(("01", "01")) == lyndon._expand_memo["0101"][1]


@given(words_st)
@settings(max_examples=60, deadline=None)
def test_radford_monomials_sorted(w):
    for mono in radford_decompose(w).support():
        assert tuple(sorted(mono)) == mono
        assert all(lyndon_by_definition(f) for f in mono)


def test_h2_words_have_h2_factors():
    # CFL factors of an H2 word are themselves H2 Lyndon words
    for n in range(2, 9):
        for w in h2_words(n):
            for f in cfl_factor(w):
                assert f[0] == "0" and f[-1] == "1"


def test_formatting():
    assert format_lyndon_monomial(("01", "0011", "01")) == "0011·01·01"
    p = LinComb({("01", "01"): Fraction(1, 2), ("0011",): -2})
    assert format_lyndon_poly(p) == "1/2*01·01 - 2*0011"


# ---------------------------------------------------------------------------
# bracket and residuals

def test_bracket_letters_and_01():
    assert bracket("0") == word_poly("0")
    assert bracket("1") == word_poly("1")
    assert bracket("01") == LinComb({"01": 1, "10": -1})


def test_bracket_001():
    assert bracket("001") == LinComb({"001": 1, "010": -2, "100": 1})


@given(st.integers(2, 6))
@settings(max_examples=10, deadline=None)
def test_bracket_homogeneous_unit_leading(n):
    for l in lyndon_words(n):
        b = bracket(l)
        assert all(len(w) == n for w in b.support())
        assert b[l] == 1


def test_right_residual_examples():
    assert right_residual(word_poly("0101"), word_poly("01")) == word_poly("01")
    p = LinComb({"011": Fraction(2, 3), "0101": -1})
    assert right_residual(p, word_poly("")) == p
    assert right_residual(word_poly("01"), word_poly("1")) == LinComb.zero()


def test_residual_derivation_examples():
    assert residual_derivation(word_poly("01"), "01") == word_poly("")
    assert residual_derivation(word_poly(""), "011") == LinComb.zero()


def test_residual_derivation_leibniz_exhaustive():
    # derivation property against shuffle for all |l| <= 4, |u|+|v| <= 7
    ls = [l for n in range(1, 5) for l in lyndon_words(n)]
    for total in range(0, 8):
        for a in range(0, total + 1):
            for u in all_words(a):
                pu = word_poly(u)
                for v in all_words(total - a):
                    pv = word_poly(v)
                    s = shuffle(pu, pv)
                    for l in ls:
                        lhs = residual_derivation(s, l)
                        rhs = shuffle(residual_derivation(pu, l), pv) + \
                            shuffle(pu, residual_derivation(pv, l))
                        assert lhs == rhs


def test_radford_roundtrip_exhaustive():
    # decomposition followed by expansion is the identity, lengths 0..10
    for n in range(0, 11):
        for w in all_words(n):
            assert expand(radford_decompose(w)) == word_poly(w)


def test_radford_triangular_leading_monomial():
    # the CFL monomial of w itself always appears in the decomposition
    for n in range(1, 9):
        for w in all_words(n):
            mono = tuple(sorted(cfl_factor(w)))
            assert radford_decompose(w)[mono] != 0
