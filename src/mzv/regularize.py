"""Shuffle regularization and the double-shuffle relation systems.

H1 is a polynomial algebra over H2 in the single variable x1 (under shuffle),
so every H1 polynomial p has a unique expansion p = sum_i c_i sh 1^(sh i)
with all c_i in H2.  reg projects onto c_0 (Ihara, Kaneko and Zagier,
Compositio Math. 2006); in closed form reg(1^k 0 v) = (-1)^k 0 (1^k sh v)
and reg(1^k) = 0 for k >= 1, proved under reg.  Deleting a leading x1 is a
shuffle derivation d that kills H2, so c_i = reg(d^i p) / i!.  Subtracting
the stuffle product from the shuffle product of the same pair of zeta
arguments and applying reg yields a linear combination of admissible words
whose zeta-image vanishes; collecting those rows per weight gives the
relation matrices the engine reduces.  A row is a plain {word: int} dict,
summed from the memoized word shuffle and composition stuffle with reg's
closed form applied word by word; double_shuffle_relation wraps one row in
a LinComb.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial
from typing import NamedTuple

from .linalg import SparseMatrix
from .lyndon import right_residual
from .words import (
    LinComb,
    Word,
    _comp_word,
    _shuffle_words,
    _stuffle_comps,
    h1_words,
    h2_words,
    in_h1,
    in_h2,
    shuffle,
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
        return LinComb.sum(
            kv for i, c in enumerate(self.coefficients)
            for kv in shuffle(c, LinComb.term("1" * i, factorial(i))).items())


def x1_decompose(p: LinComb) -> X1Decomposition:
    """Unique expansion of an H1 polynomial as sum_i c_i sh x1^(sh i).

    c_i = reg(d^i p) / i!, with d the derivation that deletes a leading x1;
    d shortens every word, so the loop terminates.
    """
    x1 = word_poly("1")
    coeffs = [reg(p)]
    while p := right_residual(p, x1):
        coeffs.append(Fraction(1, factorial(len(coeffs))) * reg(p))
    return X1Decomposition(tuple(coeffs))


def _reg_word(w: Word) -> dict[Word, int]:
    # reg of an H1 word 1^k u in closed form (reg's docstring)
    u = w.lstrip("1")
    k = len(w) - len(u)
    if not k or not u:
        return {} if k else {w: 1}
    sign = -1 if k & 1 else 1
    return {"0" + x: sign * m
            for x, m in _shuffle_words("1" * k, u[1:]).items()}


def reg(p: LinComb) -> LinComb:
    """Constant term of the x1 expansion; identity on H2 polynomials.

    reg is the shuffle homomorphism that kills x1 and fixes H2, so
    reg(1^k) = reg(x1^(sh k)) / k! = 0 for k >= 1, and word by word
    reg(1^k 0 v) = (-1)^k 0 (1^k sh v), by induction on k from k = 0, where
    0v is in H2.  By where the 0 lands, 1^k sh 0v is the sum over j <= k of
    1^j 0 (1^(k-j) sh v), and its reg is reg(1^k) reg(0v) = 0.  By induction
    the term j < k maps to (-1)^j C(k, j) 0 (1^k sh v), as 1^j sh 1^(k-j) =
    C(k, j) 1^k, and sum_{j<=k} (-1)^j C(k, j) = 0 leaves (-1)^k for j = k.
    """
    for w in p.support():
        if not in_h1(w):
            raise ValueError(f"word not in H1: {w!r}")
    return p.map_linear(_reg_word)


def double_shuffle_relation(w1: Word, w0: Word) -> LinComb:
    """reg of (shuffle minus stuffle) for the pair (w1, w0).

    w1 must be a nonempty H2 word, w0 a nonempty H1 word.  The result is
    supported on H2 words of length |w1| + |w0| and its zeta-image vanishes.
    """
    if not w1 or not in_h2(w1):
        raise ValueError(f"w1 must be a nonempty H2 word: {w1!r}")
    if not w0 or not in_h1(w0):
        raise ValueError(f"w0 must be a nonempty H1 word: {w0!r}")
    return LinComb._raw(_relation_row(w1, w0))


def _relation_row(w1: Word, w0: Word) -> dict[Word, int]:
    """double_shuffle_relation(w1, w0) as a plain {word: int} dict: reg
    of each word of the shuffle and of the stuffle, summed as integers."""
    acc: dict[Word, int] = {}
    st = _stuffle_comps(word_to_comp(w1), word_to_comp(w0))
    for w, m in chain(_shuffle_words(w1, w0).items(),
                      ((_comp_word(c), -m) for c, m in st.items())):
        if w[0] == "0":     # reg fixes H2 words
            acc[w] = acc.get(w, 0) + m
            continue
        for v, r in _reg_word(w).items():
            acc[v] = acc.get(v, 0) + m * r
    return {v: c for v, c in acc.items() if c}


def knt_system(n: int) -> SparseMatrix:
    """Relation rows for w1 in H2 and w0 in the fixed four-word set, at
    weight n; columns are the 2^(n-2) H2 words of length n."""
    if n < 2:
        raise ValueError("weight must be at least 2")
    rows = []
    for w0 in KNT_W0_SET:
        for w1 in h2_words(n - len(w0)):
            rows.append(_relation_row(w1, w0))
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
                rows.append(_relation_row(w1, w0))
    return SparseMatrix(h2_words(n), rows)
