"""LinComb.product against the bilinear loops it replaced.

shuffle, stuffle, concat, the generator product gp_mul, the right residual
and the truncated product of the counting series are each one call of
LinComb.product.  The hand-written loops they used before are kept here as
oracles and compared term by term, in iteration order, on small random
polynomials with Fraction coefficients, and on products built so that terms
cancel.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mzv.conjectures import _series_mul
from mzv.engine import canonical_monomial, gp_mul
from mzv.lyndon import right_residual
from mzv.words import (
    LinComb,
    _shuffle_words,
    _stuffle_comps,
    concat,
    shuffle,
    stuffle,
)

# ---------------------------------------------------------------------------
# oracles


def shuffle_loop(p, q):
    d = {}
    for u, cu in p.items():
        for v, cv in q.items():
            c = cu * cv
            for w, mult in _shuffle_words(u, v).items():
                s = d.get(w, 0) + c * mult
                if s:
                    d[w] = s
                else:
                    del d[w]
    return d


def stuffle_loop(p, q):
    d = {}
    for a, ca in p.items():
        for b, cb in q.items():
            c = ca * cb
            for r, mult in _stuffle_comps(a, b).items():
                s = d.get(r, 0) + c * mult
                if s:
                    d[r] = s
                else:
                    del d[r]
    return d


def concat_loop(p, q):
    d = {}
    for u, cu in p.items():
        for v, cv in q.items():
            w = u + v
            s = d.get(w, 0) + cu * cv
            if s:
                d[w] = s
            else:
                del d[w]
    return d


def gp_mul_loop(p, q):
    d = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = canonical_monomial(m1 + m2)
            s = d.get(m, 0) + c1 * c2
            if s:
                d[m] = s
            elif m in d:
                del d[m]
    return d


def right_residual_loop(p, q):
    d = {}
    for v, cv in q.items():
        k = len(v)
        for u, cu in p.items():
            if u.startswith(v):
                w = u[k:]
                s = d.get(w, 0) + cu * cv
                if s:
                    d[w] = s
                else:
                    del d[w]
    return d


def series_mul_loop(a, b, nx, ny):
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            i, j = i1 + i2, j1 + j2
            if i > nx or j > ny:
                continue
            k = (i, j)
            s = out.get(k, 0) + v1 * v2
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out


# ---------------------------------------------------------------------------
# strategies

coeffs = st.sampled_from([1, -1, 2, -2]) | st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))


def polys(keys):
    return st.dictionaries(keys, coeffs, max_size=4).map(LinComb)


words = st.text("01", max_size=4)
comps = st.lists(st.integers(1, 3), max_size=3).map(tuple)
monos = st.lists(st.sampled_from([(2,), (3,), (2, 1)]),
                 max_size=2).map(canonical_monomial)
degrees = st.tuples(st.integers(0, 4), st.integers(0, 4))


def same(got, want):
    # equal terms in the same iteration order
    return list(got.items()) == list(want.items())


def cat(p, q):
    return LinComb(concat_loop(p, q))


@given(polys(words), polys(words), polys(words))
@settings(max_examples=150, deadline=None)
def test_word_products_match_their_loops(p, q, r):
    # (p + q)(p - q) under a commutative product: the cross terms cancel
    for a, b in ((p, q), (p + q, p - q)):
        assert same(shuffle(a, b), shuffle_loop(a, b))
    # (p - pq)(qr + r): the two pqr terms cancel
    for a, b in ((p, q), (p - cat(p, q), cat(q, r) + r)):
        assert same(concat(a, b), concat_loop(a, b))
    # the residual of (p + q)r by p - q: pr by p cancels qr by q
    for a, b in ((p, q), (cat(p + q, r), p - q)):
        assert same(right_residual(a, b), right_residual_loop(a, b))


@given(polys(comps), polys(comps))
@settings(max_examples=100, deadline=None)
def test_stuffle_matches_its_loop(p, q):
    for a, b in ((p, q), (p + q, p - q)):
        assert same(stuffle(a, b), stuffle_loop(a, b))


@given(polys(monos), polys(monos))
@settings(max_examples=100, deadline=None)
def test_gp_mul_matches_its_loop(p, q):
    for a, b in ((p, q), (p + q, p - q)):
        assert same(gp_mul(a, b), gp_mul_loop(a, b))


@given(polys(degrees), polys(degrees), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_series_product_matches_its_loop(p, q, cap):
    for a, b in ((p, q), (p + q, p - q)):
        assert same(_series_mul(a, b, cap), series_mul_loop(a, b, cap, cap))


def test_products_cancel():
    # (x0 - x0x0) . (x0x1 + x1): the two x0x0x1 terms cancel
    a = LinComb({"0": 1, "00": -1})
    b = LinComb({"01": 1, "1": 1})
    assert concat(a, b) == LinComb({"01": 1, "0001": -1})
    assert same(concat(a, b), concat_loop(a, b))
    # (z(2) + z(3)) (z(3) - z(2)): the two z(2) z(3) terms cancel
    z2, z3 = LinComb.term(((2,),)), LinComb.term(((3,),))
    assert gp_mul(z2 + z3, z3 - z2) == \
        LinComb({((3,), (3,)): 1, ((2,), (2,)): -1})
