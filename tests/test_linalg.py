"""Exact linear algebra tests.

rank is cross-checked against a brute-force determinant-minor oracle for
matrices with at most 8 columns, per the module contract; rref against a
dense Fraction Gauss-Jordan oracle, with entries large enough that the
first primes do not lift the result.
"""

from fractions import Fraction
from itertools import combinations
from math import isqrt
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzv import linalg
from mzv.linalg import (SparseMatrix, _certify, _eliminate, _lift, _mqrr,
                        _primes, integer_rref, rank, rref)


# ---------------------------------------------------------------------------
# oracle

def det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    for j in range(n):
        if rows[0][j]:
            piv = rows[0][j]
            sub = []
            for r in rows[1:]:
                sub.append([r[k] - r[j] * rows[0][k] / piv
                            for k in range(n) if k != j])
            sign = -1 if j % 2 else 1
            return sign * piv * det(sub)
    return Fraction(0)


def rank_oracle(m: SparseMatrix) -> int:
    n_cols = len(m.column_labels)
    dense = [[Fraction(r.get(c, 0)) for c in range(n_cols)] for r in m.rows]
    best = 0
    for k in range(min(len(dense), n_cols), 0, -1):
        for ri in combinations(range(len(dense)), k):
            for ci in combinations(range(n_cols), k):
                sub = [[dense[i][j] for j in ci] for i in ri]
                if det(sub):
                    return k
    return best


def rref_oracle(m: SparseMatrix, order: list[int], p: int | None = None):
    """Dense Gauss-Jordan over Fraction, or over the integers mod p when p
    is given: {pivot: row}, pivots in scan order."""
    def red(v):
        return v if p is None else v % p

    work = [[Fraction(r.get(c, 0)) if p is None else r.get(c, 0) % p
             for c in range(len(m.column_labels))] for r in m.rows]
    done: list[tuple[int, list[Fraction]]] = []
    for c in order:
        i = next((i for i, r in enumerate(work) if r[c]), None)
        if i is None:
            continue
        prow = work.pop(i)
        inv = 1 / prow[c] if p is None else pow(prow[c], -1, p)
        prow = [red(v * inv) for v in prow]
        work = [[red(v - r[c] * pv) for v, pv in zip(r, prow)]
                for r in work]
        done = [(c2, [red(v - r[c] * pv) for v, pv in zip(r, prow)])
                for c2, r in done]
        done.append((c, prow))
    return {c: {k: v for k, v in enumerate(r) if v} for c, r in done}


def from_dense(rows, n_cols) -> SparseMatrix:
    return SparseMatrix(list(range(n_cols)),
                        [{c: v for c, v in enumerate(r) if v} for r in rows])


matrices_st = st.integers(1, 4).flatmap(
    lambda nc: st.lists(
        st.lists(st.fractions(min_value=-3, max_value=3,
                              max_denominator=4),
                 min_size=nc, max_size=nc),
        min_size=0, max_size=5).map(lambda rows: from_dense(rows, nc)))


# ---------------------------------------------------------------------------
# rref basics

def test_identity_any_order():
    m = from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        assert list(rref(m.rows, order)) == order


def test_zero_matrix():
    m = from_dense([[0, 0], [0, 0]], 2)
    assert rref(m.rows, [0, 1]) == {} and rank(m) == 0


def test_dependent_rows():
    m = from_dense([[1, 2], [2, 4]], 2)
    assert rref(m.rows, [0, 1]) == {0: {0: 1, 1: 2}}


def test_pivot_normalized_and_cleared():
    m = from_dense([[2, 1, 1], [4, 1, 0]], 3)
    e = rref(m.rows, [0, 1, 2])
    for c, row in e.items():
        assert next(iter(row.items())) == (c, 1)
        for c2, row2 in e.items():
            if c2 != c:
                assert c not in row2


def test_col_order_changes_pivots_not_rank():
    m = from_dense([[1, 1, 0], [0, 1, 1]], 3)
    assert list(rref(m.rows, [0, 1, 2])) == [0, 1]
    assert list(rref(m.rows, [2, 1, 0])) == [2, 1]


def test_unlucky_first_prime():
    p0 = next(_primes())
    # equal rows mod p0, independent over Q
    e = rref(from_dense([[1, 1], [1, 1 + p0]], 2).rows, [0, 1])
    assert list(e.items()) == [(0, {0: 1}), (1, {1: 1})]
    # p0 divides the first row's content and the second row's denominator
    m = from_dense([[p0, 2 * p0, 0], [0, 1, Fraction(1, p0)]], 3)
    e = rref(m.rows, [0, 1, 2])
    assert list(e.items()) == [(0, {0: 1, 2: Fraction(-2, p0)}),
                               (1, {1: 1, 2: Fraction(1, p0)})]


def test_rejects_bad_col_order():
    rows = [{"a": 1, "b": 2}]
    with pytest.raises(ValueError, match="twice"):
        rref(rows, ["a", "b", "a"])
    # a row label the order does not list, even with coefficient 0
    for row in ({"a": 1, "c": 2}, {"a": 1, "c": 0}):
        with pytest.raises(ValueError, match="'c' is not in the column"):
            rref([row], ["a", "b"])


def test_exact_cancellation_leaves_a_multiple_of_p():
    # the normalized pivot row is (1, (p+1)/2), so the rows below it keep
    # -p and -2p at column 1 until they are reduced
    m = from_dense([[2, 1], [2, 1], [4, 2]], 2)
    assert rref(m.rows, [0, 1]) == {0: {0: 1, 1: Fraction(1, 2)}}


def test_prime_sequence():
    ps = list(_primes())
    assert ps[:3] == [2**89 - 1, 2**127 - 1, 2**521 - 1]
    assert all(q == 2**e - 1 for q, e in zip(ps, linalg._MERSENNE_EXPONENTS))
    assert len(ps) == len(linalg._MERSENNE_EXPONENTS)
    assert all(a < b for a, b in zip(ps, ps[1:]))


def test_rref_raises_when_the_primes_run_out(monkeypatch):
    # at 2^89 - 1, 1/2^50 = 2^39, below sqrt(p) = 2^44.5: both passes read
    # it as an integer, which the certificate rejects
    monkeypatch.setattr(linalg, "_MERSENNE_EXPONENTS", (89,))
    with pytest.raises(ArithmeticError):
        rref([{0: 2**50, 1: 1}], [0, 1])


def test_shared_denominator_lifts_past_the_per_entry_bound(monkeypatch):
    # 3^40 is past 2^44, where a lift of each entry on its own with
    # |a|, b <= sqrt(p/2) stops at 2^89 - 1, but the numerators over the
    # common denominator 3^40 are 1 and 7
    monkeypatch.setattr(linalg, "_MERSENNE_EXPONENTS", (89,))
    rows = [{0: 3**40, 2: 1}, {1: 3**40, 2: 7}]
    assert list(rref(rows, [0, 1, 2]).items()) == \
        [(0, {0: 1, 2: Fraction(1, 3**40)}),
         (1, {1: 1, 2: Fraction(7, 3**40)})]
    assert integer_rref(rows, [0, 1, 2]) == \
        (3**40, {0: {0: 3**40, 2: 1}, 1: {1: 3**40, 2: 7}})


def test_each_prime_lifts_on_its_own(monkeypatch):
    # at a Mersenne prime 2^e - 1, 1/2^60 = 2^(e-60), which the first pass
    # reads as a small integer; the second reads 1/2^k only for
    # 2^k <= sqrt(p/2), 2^44 at 2^89 - 1 and 2^53 at 2^107 - 1.  Their
    # product would lift 1/2^60, but no pass combines two primes' residues
    row = {0: 2**60, 1: 1}
    monkeypatch.setattr(linalg, "_MERSENNE_EXPONENTS", (89, 107))
    with pytest.raises(ArithmeticError):
        rref([row], [0, 1])
    monkeypatch.setattr(linalg, "_MERSENNE_EXPONENTS", (89, 127))
    assert rref([row], [0, 1]) == {0: {0: 1, 1: Fraction(1, 2**60)}}


def test_second_pass_reads_an_alias_at_the_same_prime(monkeypatch):
    # 1/2^40 = 2^49 mod 2^89 - 1: the first pass reads the integer 2^49,
    # which the certificate rejects; 2^49 is above sqrt(p), so the second
    # pass hands it to MQRR, which reads 1/2^40
    p = 2**89 - 1
    row = {0: 2**40, 1: 1}
    echelon = _eliminate([row], [0, 1], p)
    assert _lift(echelon, p, p >> (linalg._G + 1)) == (1, {0: {1: 2**49}})
    assert _lift(echelon, p, isqrt(p)) == (2**40, {0: {1: 1}})
    monkeypatch.setattr(linalg, "_MERSENNE_EXPONENTS", (89,))
    primes = []
    monkeypatch.setattr(linalg, "_eliminate", lambda rows, order, q: (
        primes.append(q) or _eliminate(rows, order, q)))
    assert rref([row], [0, 1]) == {0: {0: 1, 1: Fraction(1, 2**40)}}
    assert primes == [p]


@given(st.sampled_from([61, 89, 107, 127, 521]).flatmap(
    lambda e: st.tuples(st.just(e), st.integers(1, isqrt(2**e - 1) - 1),
                        st.sampled_from([1, -1]))))
@example((61, isqrt(2**61 - 1) - 1, -1))
@example((521, isqrt(2**521 - 1) - 1, 1))
@settings(max_examples=100, deadline=None)
def test_mqrr_reads_a_residue_below_sqrt_p_as_an_integer(case):
    # the premise of the second pass: reading such an entry as an integer
    # loses nothing MQRR would read
    e, s, sign = case
    p = 2**e - 1
    assert _mqrr(sign * s % p, p) == 1


def test_one_denominator_bounds_the_product_of_denominators(monkeypatch):
    # 1/3^24 and 1/5^16, each near 2^38, need D = 3^24 * 5^16, about 2^75,
    # past what 2^89 - 1 reads over D (2^72); 2^127 - 1 reads 2^110
    rows = [{0: 3**24, 2: 1}, {1: 5**16, 2: 1}]
    monkeypatch.setattr(linalg, "_MERSENNE_EXPONENTS", (89,))
    with pytest.raises(ArithmeticError):
        rref(rows, [0, 1, 2])
    monkeypatch.setattr(linalg, "_MERSENNE_EXPONENTS", (89, 127))
    assert rref(rows, [0, 1, 2]) == {0: {0: 1, 2: Fraction(1, 3**24)},
                                     1: {1: 1, 2: Fraction(1, 5**16)}}


int_rows_st = st.integers(1, 5).flatmap(
    lambda nc: st.tuples(
        st.lists(st.lists(st.one_of(st.integers(-3, 3),
                                    st.sampled_from([7, -14, 21])),
                          min_size=nc, max_size=nc),
                 min_size=0, max_size=6),
        st.permutations(range(nc))))


@given(int_rows_st)
# the shortest row holding column 0 has 7 there, so mod 7 a longer row is
# the pivot; the last row vanishes mod 7 altogether
@example(([[7, 1, 0, 0], [2, 3, 1, 0], [1, 4, 5, 2], [14, 0, 21, 0]],
          [0, 1, 2, 3]))
# mod 7 column 0 has holders but no candidate, so its entries are deleted;
# the second row is then a dependent one, emptied at column 1, and the last
# vanishes mod 7 entry by entry
@example(([[7, 1, 0], [14, 2, 0], [0, 0, 3], [7, 0, 14]], [0, 1, 2]))
# square and of full rank: no free column, so back-substitution packs
# nothing
@example(([[1, 2, 0], [0, 1, 3], [2, 0, 1]], [0, 1, 2]))
# one row: every column after its pivot is free
@example(([[3, 1, 4, 1, 5, 6]], [0, 1, 2, 3, 4, 5]))
# tall, with one free column: the first pivot row holds the later pivot
# columns 1 and 2
@example(([[1, 1, 1, 9], [0, 1, 1, 7], [0, 0, 1, 4], [2, 3, 3, 25],
           [1, 2, 2, 16]], [0, 1, 2, 3]))
# the first pivot row's tail holds only the later pivot columns 1..8, each
# of which holds 6 at the free column 9: mod 7 the packed slot sums
# 8 * (7 - 1) * 6 = 288 before its one reduction, past a one-byte slot
@example(([[1] * 9 + [0]] + [[int(k == i) for k in range(9)] + [6]
                             for i in range(1, 9)], list(range(10))))
@settings(max_examples=100, deadline=None)
def test_eliminate_matches_gauss_jordan_mod_p(case):
    # entries 7, -14 and 21 vanish mod 7 in the lazy rows
    dense, order = case
    m = from_dense(dense, len(order))
    for p in (7, next(_primes())):
        echelon = _eliminate([dict(r) for r in m.rows], order, p)
        for row in echelon.values():
            assert all(0 < v < p for v in row.values())
        assert [(c, {c: 1, **row}) for c, row in echelon.items()] == \
            list(rref_oracle(m, order, p).items())


@given(int_rows_st, st.data())
@settings(max_examples=100, deadline=None)
def test_row_order_is_free(case, data):
    # the pivot of a column depends on the row order, its RREF does not:
    # the echelon mod p and the lift over Q come out equal
    dense, order = case
    rows = from_dense(dense, len(order)).rows
    shuffled = data.draw(st.permutations(rows))
    for p in (7, next(_primes())):
        assert _eliminate([dict(r) for r in shuffled], order, p) == \
            _eliminate([dict(r) for r in rows], order, p)
    assert integer_rref(shuffled, order) == integer_rref(rows, order)


# ---------------------------------------------------------------------------
# properties

@given(matrices_st)
@settings(max_examples=50, deadline=None)
def test_rank_matches_minor_oracle(m):
    assert rank(m) == rank_oracle(m)


@given(matrices_st, st.randoms())
@settings(max_examples=40, deadline=None)
def test_rank_invariances(m, rng):
    r = rank(m)
    rows = list(m.rows)
    rng.shuffle(rows)
    scaled = []
    for row in rows:
        k = Fraction(rng.choice([1, 2, 3, -1, -5]), rng.choice([1, 2, 7]))
        scaled.append({c: k * v for c, v in row.items()})
    m2 = SparseMatrix(m.column_labels, scaled)
    assert rank(m2) == r
    order = list(m.column_labels)
    rng.shuffle(order)
    assert len(rref(m.rows, order)) == r


big_matrices_st = st.integers(1, 5).flatmap(
    lambda nc: st.tuples(
        st.lists(
            st.lists(st.one_of(st.just(0),
                               st.integers(2**90, 2**100),
                               st.integers(-2**100, -2**90),
                               st.fractions(min_value=-9, max_value=9,
                                            max_denominator=9)),
                     min_size=nc, max_size=nc),
            min_size=0, max_size=5).map(lambda rows: from_dense(rows, nc)),
        st.permutations(range(nc))))


@given(big_matrices_st)
# 1/2^90 aliases to a power of two at every prime, so the first pass
# certifies nowhere, and the second does at 2^521 - 1
@example((from_dense([[2**90, 1]], 2), [0, 1]))
@settings(max_examples=60, deadline=None)
def test_rref_matches_gauss_jordan_oracle(case):
    m, order = case
    assert list(rref(m.rows, order).items()) == \
        list(rref_oracle(m, order).items())


# str and tuple labels mixed in one order: rref never compares two labels
labels_st = st.one_of(st.text(max_size=3),
                      st.tuples(st.integers(0, 3), st.text(max_size=2)))


@given(big_matrices_st, st.data())
@settings(max_examples=60, deadline=None)
def test_labelled_rref_is_the_integer_rref_relabelled(case, data):
    m, order = case
    labels = data.draw(st.lists(labels_st, min_size=len(order),
                                max_size=len(order), unique=True))
    rows = [{labels[c]: v for c, v in r.items()} for r in m.rows]
    e = rref(m.rows, order)
    le = rref(rows, [labels[c] for c in order])
    assert [(k, list(r.items())) for k, r in le.items()] == \
        [(labels[c], [(labels[k], v) for k, v in r.items()])
         for c, r in e.items()]


@given(int_rows_st)
# mod 3 the column-0 entry vanishes, so the certificate meets a free column
# no rule mentions; mod 7 the pivot lands on column 0, a worse pivot set,
# and the certificate rejects its lift too
@example(([[3, -14]], [1, 0]))
@settings(max_examples=150, deadline=None)
def test_rref_with_small_primes_matches_gauss_jordan_oracle(case):
    # with the primes 3, 7, 31, 127, 8191, ..., each tried on its own, worse
    # pivot sets and lifts the certificate rejects are common; patch, not
    # monkeypatch, since Hypothesis rejects function-scoped fixtures
    dense, order = case
    m = from_dense(dense, len(order))
    want = list(rref_oracle(m, order).items())
    with patch.object(linalg, "_MERSENNE_EXPONENTS",
                      (2, 3, 5, 7, 13, 17, 19, 31, 61, 89)):
        assert list(rref(m.rows, order).items()) == want


def test_certificate_rejects_a_lift_not_in_reduced_echelon_form():
    # e_1 + e_0 spans the row as e_0 + e_1 does, but its pivot 1 comes after
    # its entry at column 0: only the echelon check tells it from the RREF
    # (over the common denominator 2: numerators 2 for the entries 1)
    rows = [{0: 1, 1: 1}]
    assert _certify(rows, 2, {0: {1: 2}})
    assert not _certify(rows, 2, {1: {0: 2}})


def certify_reference(rows, den, num):
    """The certificate with one dict update per free column: the rows
    R_c = e_c + sum_f num[c][f]/den e_f are in reduced echelon form for the
    column order 0, 1, 2, ..., and every raw row is orthogonal to the
    kernel vector den e_f - sum_c num[c][f] e_c of each free column f."""
    free = set()
    for c, row in num.items():
        for f in row:
            if f in num or f < c:
                return False
        free.update(row)
    for r in rows:
        acc = {}
        for c, v in r.items():
            row = num.get(c)
            if row is not None:
                for f, w in row.items():
                    acc[f] = acc.get(f, 0) - v * w
            elif c in free:
                acc[c] = acc.get(c, 0) + v * den
            else:
                return False    # a free column no rule mentions: kernel e_c
        if any(acc.values()):
            return False
    return True


@st.composite
def lifts_st(draw):
    """(rows, den, num): integer rows and their certified lift, or that lift
    off by one, with an entry dropped, or with +2^j at one free column of a
    row and -1 at the next (j near the packed slot width).  The rows are
    the raw ones or the RREF's own, more or fewer than the free
    columns."""
    nc = draw(st.integers(1, 7))
    dense = draw(st.lists(st.lists(st.integers(-3, 3), min_size=nc,
                                   max_size=nc), min_size=1, max_size=7))
    rows = [r for r in from_dense(dense, nc).rows if r]
    den, ech = integer_rref(rows, range(nc))
    num = {c: {k: v for k, v in row.items() if k != c}
           for c, row in ech.items()}
    if draw(st.booleans()):
        rows = list(ech.values())
    entries = [(c, f) for c, row in num.items() for f in row]
    pairs = [(c, f, f2) for c, row in num.items()
             for f, f2 in zip(sorted(row), sorted(row)[1:])]
    kind = draw(st.sampled_from(["exact", "den", "entry", "drop", "carry"]))
    if kind == "den":
        den += draw(st.sampled_from([1, -1]))
    elif kind in ("entry", "drop") and entries:
        c, f = draw(st.sampled_from(entries))
        if kind == "drop":
            del num[c][f]
        else:
            num[c][f] += draw(st.sampled_from([1, -1]))
    elif kind == "carry" and pairs:
        c, f, f2 = draw(st.sampled_from(pairs))
        big = max(den, *(abs(v) for row in num.values() for v in row.values()))
        width = (big.bit_length() + 2 + max(
            sum(map(abs, r.values())) for r in rows).bit_length())
        num[c][f] += 1 << draw(st.integers(max(width - 4, 0), width + 4))
        num[c][f2] -= 1
    return rows, den, num


@given(lifts_st())
# one row over three free columns: more free columns than rows, so the
# certificate packs the raw rows
@example(([{0: 2, 1: 4, 2: 6, 3: 2}], 1, {0: {1: 2, 2: 3, 3: 1}}))
# an RREF over the free columns 2 and 3, off by +2^8 at column 2 and -1 at
# column 3 of its first row: in slots 8 bits wide the two errors would
# cancel
@example(([{0: 1, 2: 1, 3: 2}, {1: 1, 2: 3, 3: 1}], 1,
          {0: {2: 1 + 2**8, 3: 1}, 1: {2: 3, 3: 1}}))
# a raw row on column 1, which no row of R mentions: its kernel vector is
# den e_1, and both certificates reject the row
@example(([{0: 1, 1: 1}], 1, {0: {}}))
@settings(max_examples=300, deadline=None)
def test_packed_certificate_matches_the_dict_certificate(lift):
    rows, den, num = lift
    assert _certify(rows, den, num) == certify_reference(rows, den, num)


@given(matrices_st)
@settings(max_examples=40, deadline=None)
def test_rref_idempotent(m):
    order = list(m.column_labels)
    e = rref(m.rows, order)
    assert list(rref(e.values(), order).items()) == list(e.items())


@given(matrices_st, st.data())
@settings(max_examples=60, deadline=None)
def test_rref_of_an_rref_in_another_order(m, data):
    # the RREF of a row space is unique for a column order, so it does not
    # matter which echelon form of the same rows the elimination starts from
    o1 = data.draw(st.permutations(m.column_labels))
    o2 = data.draw(st.permutations(m.column_labels))
    direct = list(rref(m.rows, o2).items())
    assert list(rref(rref(m.rows, o1).values(), o2).items()) == direct


@given(matrices_st)
@settings(max_examples=40, deadline=None)
def test_row_space_preserved(m):
    # every original row reduces to zero against the echelon rows
    order = list(m.column_labels)
    e = rref(m.rows, order)
    for row in m.rows:
        work = {c: Fraction(v) for c, v in row.items()}
        for c in order:
            if c in work and c in e:
                k = work[c]
                for c2, v in e[c].items():
                    s = work.get(c2, 0) - k * v
                    if s:
                        work[c2] = s
                    else:
                        work.pop(c2, None)
        assert not work
