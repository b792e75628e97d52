"""Shuffle regularization and the double-shuffle relation systems.

H1 is a polynomial algebra over H2 in the single variable x1 (under shuffle),
so every H1 polynomial p has a unique expansion p = sum_i c_i sh 1^(sh i)
with all c_i in H2.  reg projects onto c_0.  Subtracting the stuffle product
from the shuffle product of the same pair of zeta arguments and applying reg
yields a linear combination of admissible words whose zeta-image vanishes;
collecting those rows per weight gives the relation matrices the engine
reduces.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .linalg import SparseMatrix
from .words import (
    LinComb,
    Word,
    comp_to_word,
    h1_words,
    h2_words,
    in_h1,
    in_h2,
    shuffle,
    stuffle,
    word_poly,
    word_to_comp,
)

__all__ = [
    "X1Decomposition",
    "x1_decompose",
    "reg",
    "double_shuffle_relation",
    "knt_system",
    "full_system",
    "KNT_W0_SET",
]

# fixed by the sufficiency conjecture: x1, x0x1, x0^2 x1, x0 x1^2, in
# (length, word) order, the order knt_system emits its rows in
KNT_W0_SET = ("1", "01", "001", "011")


class X1Decomposition(NamedTuple):
    """coefficients[i] is the H2 polynomial multiplying x1^(sh i)."""
    coefficients: tuple[LinComb, ...]

    def reconstruct(self) -> LinComb:
        # x1^(sh i) = i! 1^i
        total = LinComb.zero()
        for i, c in enumerate(self.coefficients):
            total = total + shuffle(c, LinComb.term("1" * i, factorial(i)))
        return total


def _leading_ones(w: Word) -> int:
    return len(w) - len(w.lstrip("1"))


def x1_decompose(p: LinComb) -> X1Decomposition:
    """Unique expansion of an H1 polynomial as sum_i c_i sh x1^(sh i).

    Strips maximal leading-1 blocks: for w = 1^k u with u in H2 or empty,
    u sh 1^k-word = w + terms with fewer than k leading ones, and the 1^k
    word equals (1/k!) x1^(sh k).  Each pass removes the current maximal k,
    so the loop terminates.
    """
    for w in p.support():
        if not in_h1(w):
            raise ValueError(f"word not in H1: {w!r}")
    buckets: dict[int, LinComb] = {}
    work = p
    while work:
        k = max(_leading_ones(w) for w in work.support())
        if k == 0:
            buckets[0] = work
            break
        q = LinComb._raw({w[k:]: c for w, c in work.items()
                          if _leading_ones(w) == k})
        buckets[k] = Fraction(1, factorial(k)) * q
        work = work - shuffle(q, word_poly("1" * k))
    m = max(buckets) if buckets else 0
    coeffs = tuple(buckets.get(i, LinComb.zero()) for i in range(m + 1))
    return X1Decomposition(coeffs)


def reg(p: LinComb) -> LinComb:
    """Constant term of the x1 expansion; identity on H2 polynomials."""
    return x1_decompose(p).coefficients[0]


def double_shuffle_relation(w1: Word, w0: Word) -> LinComb:
    """reg of (shuffle minus stuffle) for the pair (w1, w0).

    w1 must be a nonempty H2 word, w0 a nonempty H1 word.  The result is
    supported on H2 words of length |w1| + |w0| and its zeta-image vanishes.
    """
    if not w1 or not in_h2(w1):
        raise ValueError(f"w1 must be a nonempty H2 word: {w1!r}")
    if not w0 or not in_h1(w0):
        raise ValueError(f"w0 must be a nonempty H1 word: {w0!r}")
    sh = shuffle(word_poly(w1), word_poly(w0))
    stconv = stuffle(LinComb.term(word_to_comp(w1)),
                     LinComb.term(word_to_comp(w0)))
    # comp_to_word is one-to-one, so no two keys merge
    st = LinComb._raw({comp_to_word(c): m for c, m in stconv.items()})
    return reg(sh - st)


def knt_system(n: int) -> SparseMatrix:
    """Relation rows for w1 in H2 and w0 in the fixed four-word set, at
    weight n; columns are the 2^(n-2) H2 words of length n."""
    if n < 2:
        raise ValueError("weight must be at least 2")
    rows = []
    for w0 in KNT_W0_SET:
        k = n - len(w0)
        if k < 2:
            continue
        for w1 in h2_words(k):
            rows.append(double_shuffle_relation(w1, w0))
    return SparseMatrix(h2_words(n), rows)


def full_system(n: int) -> SparseMatrix:
    """Relation rows over every pair w1 in H2, w0 in H1 of total weight n.

    When w0 is itself in H2 the pair is symmetric; the mirrored duplicate is
    skipped.
    """
    if n < 2:
        raise ValueError("weight must be at least 2")
    rows = []
    for k in range(1, n - 1):
        for w0 in h1_words(k):
            sym = in_h2(w0)
            for w1 in h2_words(n - k):
                if sym and not (w1 <= w0):
                    continue
                rows.append(double_shuffle_relation(w1, w0))
    return SparseMatrix(h2_words(n), rows)
