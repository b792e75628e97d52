"""Lyndon words and the Radford decomposition of word polynomials.

A Lyndon word is a nonempty word strictly smaller (lexicographically,
'0' < '1') than each of its proper right factors.  The shuffle algebra on
words over {0, 1} is a polynomial algebra on the Lyndon words, so every word
decomposes uniquely as a rational polynomial in Lyndon words with shuffle as
the multiplication.  Monomials are represented as sorted tuples of Lyndon
words (multisets).

The decomposition is computed by triangular elimination: the shuffle
expansion of the monomial built from a word's Chen-Fox-Lyndon factors has
that word as its lexicographically largest term, with coefficient, its lead,
equal to the product of the factor multiplicities' factorials.  The whole
expansion l1^a1 ... lk^ak (shuffle powers) is its lead times an integer
polynomial: relabelling the a copies of l in an interleaving gives a!
distinct interleavings of the same word, so l^a / a! has integer
coefficients (Reutenauer, Free Lie Algebras, 1993, ch. 5; Radford,
J. Algebra 58, 1979).  So the cascade puts its input over the lcm L of its
denominators once and stays in integers: a popped word with numerator c
writes c/(L lead) for its monomial and subtracts c times the expansion over
its lead, in which the word cancels through its own term.  The memo is keyed
by word: a word and its monomial determine each other (the monomial's
factors, concatenated in non-increasing order, are the word), so one entry
holds both, and Duval's factorization runs once per distinct word however
often cascades pop it.  factor_expand reads the memo by word, and
monomial_expand by monomial; the engine's freeness check expands the
monomial of every word of its weight through factor_expand.  The right
residual by x1 is regularize's x1 derivative.  The bracketed forms are kept
for the test suite (the Leibniz rule) and acceptance criterion 09; no module
under src calls them.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import lcm

from .words import (
    LinComb,
    Word,
    _format_terms,
    all_words,
    concat,
    shuffle,
    word_poly,
    word_sort_key,
)

__all__ = [
    "is_lyndon",
    "lyndon_words",
    "cfl_factor",
    "standard_factorization",
    "bracket",
    "right_residual",
    "residual_derivation",
    "radford_decompose",
    "radford_decompose_poly",
    "factor_expand",
    "expand",
    "monomial_expand",
    "format_lyndon_monomial",
    "format_lyndon_poly",
]

LyndonMonomial = tuple[Word, ...]  # sorted tuple of Lyndon words


def is_lyndon(w: Word) -> bool:
    """True iff w is nonempty and smaller than all its proper right factors."""
    return cfl_factor(w) == [w]


def lyndon_words(n: int) -> list[Word]:
    """All Lyndon words of length exactly n, lexicographic."""
    if n < 1:
        return []
    return [w for w in all_words(n) if is_lyndon(w)]


def cfl_factor(w: Word) -> list[Word]:
    """Chen-Fox-Lyndon factorization: w = l1 l2 ... lm with l1 >= l2 >= ... >= lm.

    Duval's linear-time algorithm.
    """
    out = []
    i, n = 0, len(w)
    while i < n:
        j, k = i + 1, i
        while j < n and w[k] <= w[j]:
            if w[k] < w[j]:
                k = i
            else:
                k += 1
            j += 1
        while i <= k:
            out.append(w[i:i + j - k])
            i += j - k
    return out


def standard_factorization(w: Word) -> tuple[Word, Word]:
    """Split a Lyndon word of length >= 2 as uv with v the longest proper
    Lyndon suffix; then u is Lyndon as well and u < uv < v."""
    if len(w) < 2 or not is_lyndon(w):
        raise ValueError(f"not a composite Lyndon word: {w!r}")
    # the last CFL factor of w[1:] is its smallest suffix, and a Lyndon
    # word's smallest proper suffix is its longest proper Lyndon suffix
    v = cfl_factor(w[1:])[-1]
    return w[:-len(v)], v


def bracket(l: Word) -> LinComb:
    """Bracketed form of a Lyndon word under the concatenation commutator:
    single letters map to themselves, [l] = [u][v] - [v][u] for the standard
    factorization l = uv."""
    if not is_lyndon(l):
        raise ValueError(f"not a Lyndon word: {l!r}")
    if len(l) == 1:
        return word_poly(l)
    u, v = standard_factorization(l)
    bu, bv = bracket(u), bracket(v)
    return concat(bu, bv) - concat(bv, bu)


def right_residual(p: LinComb, q: LinComb) -> LinComb:
    """The word polynomial r with (r|w) = (p|qw), extended bilinearly in q."""
    return q.product(
        p, lambda v, u: {u[len(v):]: 1} if u.startswith(v) else {})


def residual_derivation(p: LinComb, l: Word) -> LinComb:
    """Right residual by the bracketed form of l; a shuffle derivation."""
    return right_residual(p, bracket(l))


# ---------------------------------------------------------------------------
# Radford decomposition

# word -> (its Chen-Fox-Lyndon monomial, that monomial's shuffle expansion)
_expand_memo: dict[Word, tuple[LyndonMonomial, LinComb]] = {}


def factor_expand(w: Word) -> tuple[LyndonMonomial, LinComb]:
    """The Chen-Fox-Lyndon monomial of w, sorted, and its shuffle
    expansion; Duval runs once per word."""
    hit = _expand_memo.get(w)
    if hit is None:
        # cfl_factor's factors are non-increasing; () for the empty word
        fac = cfl_factor(w)
        mono = tuple(reversed(fac))
        # the first factor is the largest; the rest factor w without it
        hit = mono, (shuffle(factor_expand(w[len(fac[0]):])[1],
                             word_poly(fac[0])) if fac else word_poly(""))
        _expand_memo[w] = hit
    return hit


def monomial_expand(mono: LyndonMonomial) -> LinComb:
    """Shuffle product of the factors of a Lyndon monomial, as a word
    polynomial.  mono must be sorted: its factors, concatenated in
    non-increasing order, are the word the memo is keyed by."""
    return factor_expand("".join(reversed(mono)))[1]


def expand(P: LinComb) -> LinComb:
    """Linear extension of monomial_expand; inverse of radford_decompose."""
    return P.map_linear(monomial_expand)


def radford_decompose_poly(p: LinComb) -> LinComb:
    """Express a word polynomial as a polynomial in Lyndon words.

    Returns a LinComb keyed by LyndonMonomial (sorted tuples); the empty
    tuple is the constant term.  Triangular rewriting on the current
    leading word (lexicographically largest, '0' < '1'); each step replaces
    it by strictly smaller words of the same length, so the loop
    terminates.  The words still to rewrite are integers over the lcm L of
    p's denominators throughout: each expansion is its lead times an
    integer polynomial (module docstring).

    Each monomial's coefficient is written once, when its word is popped:
    a word and its monomial (the sorted Chen-Fox-Lyndon factors) determine
    each other, and a popped word never comes back: it cancels in its own
    step, and every later step only touches smaller words.
    """
    den, out = lcm(*(c.denominator for c in p.values())), {}
    work = {w: c.numerator * (den // c.denominator) for w, c in p.items()}
    # max-heap on (length, word): within a length, binary value is lex order
    heap = [(-len(w), -int(w or "0", 2), w) for w in work]
    heapq.heapify(heap)
    while heap:
        w = heapq.heappop(heap)[2]
        c = work.get(w, 0)
        if not c:
            continue                      # cancelled, or a stale entry
        mono, expansion = factor_expand(w)
        lead = expansion[w]
        out[mono] = Fraction(c, den * lead)
        for w2, c2 in expansion.items():
            s = work.get(w2, 0)
            if not s:
                heapq.heappush(heap, (-len(w2), -int(w2, 2), w2))
            s -= c * (c2 // lead)
            if s:
                work[w2] = s
            else:
                del work[w2]
    return LinComb._raw(out)


def radford_decompose(w: Word) -> LinComb:
    """Decomposition of a single word."""
    return radford_decompose_poly(word_poly(w))


# ---------------------------------------------------------------------------
# printing

def format_lyndon_monomial(mono: LyndonMonomial) -> str:
    return "\N{MIDDLE DOT}".join(sorted(mono, key=word_sort_key, reverse=True))


def _monomial_sort_key(mono: LyndonMonomial):
    fac = tuple(word_sort_key(f) for f in sorted(mono, key=word_sort_key))
    return (sum(len(f) for f in mono), fac)


def format_lyndon_poly(p: LinComb) -> str:
    return _format_terms(p, _monomial_sort_key, format_lyndon_monomial)
