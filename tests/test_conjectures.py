"""Counting-side tests.

Independent oracles: Bernoulli numbers against power-series inversion of
(e^t-1)/t, even zeta coefficients against the classical closed forms,
necklace counts against direct Lyndon enumeration (and that enumeration
against the definition), the bigraded table against re-exponentiation of the
defining series and against the subtractive recursion, and the binomial-power
product against repeated multiplication.
"""

from fractions import Fraction
import itertools
from math import factorial, gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzv import conjectures
from mzv.conjectures import (
    _ONE,
    BkTable,
    _product,
    _series_mul,
    bernoulli,
    bk_counts,
    bk_reconstruct,
    dim_bridge,
    euler_even_zeta,
    mobius,
    n23_counts,
    two_three_lyndon,
    verify_zagier,
    zagier_dims,
)
from mzv.engine import echelonize_degree
from mzv.linalg import rank
from mzv.regularize import knt_system
from mzv.store import TableStore
from mzv.words import LinComb

DIMS_TO_12 = [1, 0, 1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 12]
N_TO_16 = [0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 5]


# ---------------------------------------------------------------------------
# dimension recurrence

def test_dims_frozen_values():
    assert zagier_dims(12) == DIMS_TO_12


def test_dims_satisfy_recurrence():
    d = zagier_dims(20)
    for n in range(3, 21):
        assert d[n] == d[n - 2] + d[n - 3]


def test_verify_zagier_rows():
    rows = verify_zagier(8)
    assert [r.degree for r in rows] == list(range(3, 9))
    for r in rows:
        assert r.words == 2 ** (r.degree - 2)
        assert r.dim == r.words - r.rank
        assert r.zagier == DIMS_TO_12[r.degree]
        assert r.match


def test_verify_zagier_ranks_match_the_relation_systems():
    # the table-derived ranks against an elimination that reads no table
    for r in verify_zagier(8, TableStore()):
        assert r.rank == rank(knt_system(r.degree))


def test_verify_zagier_reads_the_store_order():
    # rows come from the store's own tables; the dimensions do not depend
    # on the basis order
    lex = TableStore(preference="lex")
    echelonize_degree(8, lex)
    assert verify_zagier(8, lex) == verify_zagier(8, TableStore())


# ---------------------------------------------------------------------------
# Bernoulli numbers and even zeta coefficients

def test_bernoulli_frozen():
    expect = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
              Fraction(-1, 30), Fraction(0), Fraction(1, 42), Fraction(0),
              Fraction(-1, 30)]
    assert [bernoulli(n) for n in range(9)] == expect
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_odd_vanish():
    assert all(bernoulli(n) == 0 for n in range(3, 30, 2))


def test_bernoulli_generating_function():
    # invert A(t) = (e^t - 1)/t = sum t^k/(k+1)! ; coefficients of the
    # inverse must equal B_n/n!
    S = 20
    a = [Fraction(1, factorial(k + 1)) for k in range(S + 1)]
    b = [Fraction(1)]
    for n in range(1, S + 1):
        b.append(-sum(a[k] * b[n - k] for k in range(1, n + 1)))
    for n in range(S + 1):
        assert b[n] == bernoulli(n) / factorial(n)


def test_euler_even_zeta_frozen():
    assert euler_even_zeta(2) == Fraction(1, 6)
    assert euler_even_zeta(4) == Fraction(1, 90)
    assert euler_even_zeta(6) == Fraction(1, 945)
    assert euler_even_zeta(8) == Fraction(1, 9450)
    assert euler_even_zeta(10) == Fraction(1, 93555)


def test_euler_even_zeta_positive():
    assert all(euler_even_zeta(s) > 0 for s in range(2, 40, 2))


def test_euler_even_zeta_rejects_odd():
    with pytest.raises(ValueError):
        euler_even_zeta(3)


# ---------------------------------------------------------------------------
# necklace counts over {2,3}

def test_mobius_frozen():
    assert [mobius(n) for n in range(1, 13)] == \
        [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_mobius_multiplicative():
    for m in range(1, 41):
        for n in range(1, 41):
            if gcd(m, n) == 1:
                assert mobius(m * n) == mobius(m) * mobius(n)


def test_n23_counts_frozen():
    assert n23_counts(16) == N_TO_16


def test_two_three_words_frozen():
    tl = two_three_lyndon(13)
    assert tl[2] == [(2,)]
    assert tl[3] == [(3,)]
    assert tl[4] == []
    assert tl[5] == [(2, 3)]
    assert tl[7] == [(2, 2, 3)]
    assert tl[8] == [(2, 3, 3)]
    assert tl[9] == [(2, 2, 2, 3)]
    assert tl[10] == [(2, 2, 3, 3)]
    assert tl[11] == [(2, 3, 3, 3), (2, 2, 2, 2, 3)]
    assert tl[12] == [(2, 2, 2, 3, 3), (2, 2, 3, 2, 3)]
    assert tl[13] == [(2, 2, 3, 3, 3), (2, 3, 2, 3, 3), (2, 2, 2, 2, 2, 3)]


def test_two_three_counts_match_enumeration():
    # 50 is what CI pins through `n23 --max 50`; 60 holds too, but builds
    # 1.5 M words in about 400 MiB
    counts = n23_counts(50)
    tl = two_three_lyndon(50)
    for p in range(2, 51):
        assert len(tl[p]) == counts[p], p


def test_two_three_words_match_the_definition():
    # every {2,3} composition of weight <= m, kept when it is smaller than
    # each of its proper right factors
    def lyndon(c):
        return all(c < c[i:] for i in range(1, len(c)))

    brute: dict[int, list[tuple[int, ...]]] = {}
    for length in range(1, 13):
        for c in itertools.product((2, 3), repeat=length):
            if sum(c) <= 24 and lyndon(c):
                brute.setdefault(sum(c), []).append(c)
    for m in range(25):
        want = {p: sorted(brute.get(p, []), key=lambda c: (len(c), c))
                for p in range(2, m + 1)}
        assert two_three_lyndon(m) == want, m


def test_two_three_entries_are_lyndon():
    tl = two_three_lyndon(14)
    for p, comps in tl.items():
        for c in comps:
            assert sum(c) == p
            assert set(c) <= {2, 3}
            w = "".join(str(d) for d in c)
            assert all(w < w[i:] + w[:i] for i in range(1, len(w)))


# ---------------------------------------------------------------------------
# the binomial-power product

FACTOR_KEYS = st.tuples(st.integers(0, 5), st.integers(0, 4)).filter(any)


@given(st.dictionaries(FACTOR_KEYS, st.integers(0, 5), max_size=3),
       st.integers(0, 14))
@settings(max_examples=80, deadline=None)
@example({(0, 2): 1, (4, 0): 3}, 12)
def test_product_against_repeated_multiplication(powers, cap):
    oracle = _ONE
    for (n, k), e in powers.items():
        for _ in range(e):
            oracle = _series_mul(oracle, LinComb({(0, 0): 1, (n, k): -1}), cap)
    assert _product(powers, cap) == oracle


@given(st.dictionaries(FACTOR_KEYS, st.integers(1, 5), min_size=1,
                       max_size=3),
       st.integers(0, 14))
@settings(max_examples=80, deadline=None)
@example({(0, 2): 2, (3, 0): 1, (2, 1): 4}, 12)
def test_negative_powers_invert_positive_ones(powers, cap):
    inverse = _product({f: -e for f, e in powers.items()}, cap)
    assert _series_mul(_product(powers, cap), inverse, cap) == _ONE
    # and one factor at a time, including those with n = 0 or k = 0
    for f, e in powers.items():
        one = _series_mul(_product({f: e}, cap), _product({f: -e}, cap), cap)
        assert one == _ONE, f


# ---------------------------------------------------------------------------
# bigraded counts

BK_TO_16 = {
    (3, 1): 1, (5, 1): 1, (7, 1): 1, (8, 2): 1, (9, 1): 1, (10, 2): 1,
    (11, 1): 1, (11, 3): 1, (12, 2): 1, (12, 4): 1, (13, 1): 1, (13, 3): 2,
    (14, 2): 2, (14, 4): 1, (15, 1): 1, (15, 3): 2, (15, 5): 1,
    (16, 2): 2, (16, 4): 3,
}


def test_bk_frozen_table():
    table = bk_counts(16)
    assert table.violations == ()
    assert dict(table.values) == BK_TO_16


def test_bk_row_sums_equal_necklace_counts():
    table = bk_counts(16)
    counts = n23_counts(16)
    for n in range(3, 17):
        total = sum(d for (m, _), d in table.values.items() if m == n)
        assert total == counts[n], n


def test_bk_reconstruction():
    for w in (9, 12, 16, 40):
        assert bk_reconstruct(bk_counts(w))


@given(st.dictionaries(st.tuples(st.integers(1, 6), st.integers(1, 4)),
                       st.integers(1, 6), max_size=3),
       st.integers(1, 14))
@settings(max_examples=60, deadline=None)
def test_bk_reconstruct_binomial_factor(values, cap):
    # oracle: multiply (1 - x^n y^k) into the product d times
    oracle = LinComb.term((0, 0))
    for (n, k), d in sorted(values.items()):
        factor = LinComb({(0, 0): 1, (n, k): -1})
        for _ in range(d):
            oracle = _series_mul(oracle, factor, cap)
    # bk_reconstruct is True iff its product equals _bk_series(cap)
    with mock.patch.object(conjectures, "_bk_series", lambda c: oracle):
        assert bk_reconstruct(BkTable(cap, values, ()))


def bk_counts_by_recursion(max_weight):
    # the subtraction D_{n,k} = c_{n,k} - sum_{1 < j | gcd} D_{n/j,k/j} / j,
    # solved in order of n and k
    c = conjectures._neg_log1p(conjectures._bk_series(max_weight) - _ONE,
                               max_weight)
    values, exact, violations = {}, {}, []
    for n in range(1, max_weight + 1):
        for k in range(1, max_weight + 1):
            d = Fraction(c[(n, k)])
            g = gcd(n, k)
            for j in range(2, g + 1):
                if g % j == 0:
                    d -= Fraction(exact.get((n // j, k // j), 0), j)
            exact[(n, k)] = d
            if d.denominator != 1 or d < 0:
                violations.append((n, k, d))
            if d.denominator == 1 and d:
                values[(n, k)] = int(d)
    return values, tuple(violations)


SERIES_TERMS = st.dictionaries(
    st.tuples(st.integers(1, 4), st.integers(0, 4)),
    st.fractions(-3, 3, max_denominator=4).filter(bool), max_size=4)


@given(SERIES_TERMS, st.integers(3, 8))
@settings(max_examples=60, deadline=None)
@example({(1, 1): Fraction(1, 2)}, 8)
@example({(1, 1): -1, (2, 2): Fraction(-2, 3), (2, 1): 1}, 8)
def test_bk_counts_agrees_with_the_recursion_on_any_series(terms, cap):
    series = _ONE + LinComb(terms)
    with mock.patch.object(conjectures, "_bk_series", lambda c: series):
        table = bk_counts(cap)
        assert (table.values, table.violations) == bk_counts_by_recursion(cap)


def test_bk_counts_reports_negative_and_non_integral_counts():
    # -log(1 + x y / 2) = -x y / 2 + x^2 y^2 / 8 - ..., so D_{1,1} = -1/2
    # and D_{2,2} = 1/8 + 1/4 = 3/8
    series = _ONE + LinComb({(1, 1): Fraction(1, 2)})
    with mock.patch.object(conjectures, "_bk_series", lambda c: series):
        table = bk_counts(4)
    assert table.values == {}
    assert table.violations[:2] == ((1, 1, Fraction(-1, 2)),
                                     (2, 2, Fraction(3, 8)))
    assert not bk_reconstruct(BkTable(4, {(1, 1): -1}, ()))


def test_bk_reconstruction_detects_tampering():
    table = bk_counts(9)
    forged = dict(table.values)
    forged[(9, 1)] = 2
    assert not bk_reconstruct(BkTable(9, forged, ()))


# ---------------------------------------------------------------------------
# bridge between the two counting conjectures

def test_dim_bridge_to_12():
    product, dims = dim_bridge(12)
    assert product == dims == DIMS_TO_12


def test_dim_bridge_to_60():
    product, dims = dim_bridge(60)
    assert product == dims


def test_dim_bridge_prefix_consistency():
    p8, d8 = dim_bridge(8)
    p12, _ = dim_bridge(12)
    assert p12[: len(p8)] == p8
    assert d8 == DIMS_TO_12[:9]
