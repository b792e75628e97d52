"""Counting-side tests.

Independent oracles: Bernoulli numbers against power-series inversion of
(e^t-1)/t, even zeta coefficients against the classical closed forms,
necklace counts against direct Lyndon enumeration, and the bigraded table
against re-exponentiation of the defining series.
"""

from fractions import Fraction
from math import factorial, gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzv import conjectures
from mzv.conjectures import (
    BkTable,
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
    counts = n23_counts(16)
    tl = two_three_lyndon(16)
    for p in range(2, 17):
        assert len(tl[p]) == counts[p], p


def test_two_three_entries_are_lyndon():
    tl = two_three_lyndon(14)
    for p, comps in tl.items():
        for c in comps:
            assert sum(c) == p
            assert set(c) <= {2, 3}
            w = "".join(str(d) for d in c)
            assert all(w < w[i:] + w[:i] for i in range(1, len(w)))


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


def test_dim_bridge_prefix_consistency():
    p8, d8 = dim_bridge(8)
    p12, _ = dim_bridge(12)
    assert p12[: len(p8)] == p8
    assert d8 == DIMS_TO_12[:9]
