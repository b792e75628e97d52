"""Words over {x0, x1}, compositions, and the shuffle and stuffle products.

An MZV index (s1, ..., sk) is a tuple of positive integers and is encoded as
the binary word 0^(s1-1) 1 0^(s2-1) 1 ... 0^(sk-1) 1, held as a str of '0'
and '1' characters.  The empty str is the unit word.  H1 is the span of words
ending in '1' (plus the unit), H2 the span of words starting with '0' and
ending in '1' (plus the unit); a composition is admissible iff s1 >= 2,
equivalently iff its word lies in H2.

Every linear structure in the package (word polynomials, composition
polynomials, Lyndon polynomials, generator polynomials, the truncated
bivariate series of the counting checks) is a finite rational linear
combination of hashable keys and is one LinComb: an immutable dict from
each key to its nonzero coefficient, where a missing key reads 0.
Coefficients are exact: fractions.Fraction, with plain int tolerated as a
denominator-one rational.  Every product of two such combinations is the
bilinear extension LinComb.product of a product on keys.  Every sum, product
and substitution is one fold, LinComb.sum, so one rule sets the key order of
every result, and numeric.identity_values adds a side's terms in mpf in that
order (which can move the last digit it prints).

The shuffle and the stuffle are both quasi-shuffle products (Hoffman,
Quasi-shuffle products, 2000) and share one recursion: the stuffle of two
compositions is their shuffle, as words in the letters y_i, plus the terms
that merge the two leading parts y_i, y_j into y_{i+j}.
"""

from __future__ import annotations

import re
from itertools import chain, product as _cartesian
from typing import Callable, Hashable, Iterable, Mapping

Word = str
Composition = tuple[int, ...]

# an index as parse_comp and the factors z(...) read it: runs of ASCII digits
# separated by commas, with spaces or tabs around a comma and at either end
INDEX_PATTERN = r"[ \t]*[0-9]+(?:[ \t]*,[ \t]*[0-9]+)*[ \t]*"

__all__ = [
    "Word",
    "Composition",
    "LinComb",
    "word_poly",
    "comp_poly",
    "validate_word",
    "in_h1",
    "in_h2",
    "h1_words",
    "h2_words",
    "all_words",
    "comp_weight",
    "is_admissible",
    "validate_comp",
    "comp_to_word",
    "word_to_comp",
    "shuffle",
    "stuffle",
    "concat",
    "word_sort_key",
    "comp_sort_key",
    "format_word_poly",
    "format_comp",
    "parse_comp",
]


class LinComb(dict):
    """A finite rational linear combination of hashable keys: an immutable
    dict from each key to its nonzero coefficient.

    A missing key reads 0 and is not stored.  Every operation returns a
    fresh LinComb and every mutator raises TypeError, so instances can be
    shared freely (the expansion memo, the generator maps and the parsed
    rules rely on this).  Results are built in a plain dict and wrapped once.

    Every result that sums terms comes from LinComb.sum, which folds them
    in order: a key whose running sum reaches 0 is dropped, and a later
    term adds it back at the end.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[Hashable, object] | None = None):
        if terms:
            dict.update(self, {k: c for k, c in terms.items() if c})

    @classmethod
    def _raw(cls, d: dict) -> "LinComb":
        # trusted constructor: d is already zero-free
        self = dict.__new__(cls)
        dict.update(self, d)
        return self

    @classmethod
    def term(cls, key: Hashable, coeff=1) -> "LinComb":
        return cls._raw({key: coeff}) if coeff else cls._raw({})

    @classmethod
    def zero(cls) -> "LinComb":
        return cls._raw({})

    @classmethod
    def sum(cls, terms: Iterable[tuple[Hashable, object]]) -> "LinComb":
        """The sum of (key, coefficient) terms, folded in order under the
        rule of the class docstring."""
        d = {}
        for k, c in terms:
            if s := d.get(k, 0) + c:
                d[k] = s
            else:
                d.pop(k, None)
        return cls._raw(d)

    support = dict.keys

    def __missing__(self, key):
        return 0

    def _immutable(self, *args, **kwargs):
        raise TypeError("a LinComb is immutable")

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return LinComb.sum(chain(self.items(), other.items()))

    def __sub__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "LinComb":
        return LinComb._raw({k: -c for k, c in self.items()})

    def __rmul__(self, scalar) -> "LinComb":
        if not scalar:
            return LinComb._raw({})
        return LinComb._raw({k: scalar * c for k, c in self.items()})

    __mul__ = __rmul__

    def map_linear(self, f: Callable[[Hashable], "LinComb"]) -> "LinComb":
        """Substitute f(key) for every key (f returns a LinComb)."""
        return LinComb.sum((k2, c * c2)
                           for k, c in self.items() for k2, c2 in f(k).items())

    def product(self, other: "LinComb",
                mul: Callable[[Hashable, Hashable], Mapping]) -> "LinComb":
        """Bilinear extension of mul, which maps two keys to the keys of
        their product with integer multiplicities."""
        return LinComb.sum((k, c1 * c2 * mult)
                           for k1, c1 in self.items()
                           for k2, c2 in other.items()
                           for k, mult in mul(k1, k2).items())

    def __repr__(self) -> str:
        if not self:
            return "LinComb(0)"
        inner = ", ".join(f"{k!r}: {c}" for k, c in sorted(
            self.items(), key=lambda kv: repr(kv[0])))
        return f"LinComb({{{inner}}})"


def word_poly(w: Word, coeff=1) -> LinComb:
    validate_word(w)
    return LinComb.term(w, coeff)


def comp_poly(c: Composition, coeff=1) -> LinComb:
    validate_comp(c)
    return LinComb.term(c, coeff)


# ---------------------------------------------------------------------------
# words

def validate_word(w: Word) -> Word:
    if not isinstance(w, str) or w.strip("01") != "":
        raise ValueError(f"not a word over 0/1: {w!r}")
    return w


def in_h1(w: Word) -> bool:
    """True iff w is the unit or ends in x1."""
    return w == "" or w[-1] == "1"


def in_h2(w: Word) -> bool:
    """True iff w is the unit or starts with x0 and ends in x1."""
    return w == "" or (w[0] == "0" and w[-1] == "1")


def all_words(n: int) -> list[Word]:
    return ["".join(bits) for bits in _cartesian("01", repeat=n)]


def h1_words(n: int) -> list[Word]:
    """Nonempty H1 words of length n, in lexicographic order."""
    if n < 1:
        return []
    return [w + "1" for w in all_words(n - 1)]


def h2_words(n: int) -> list[Word]:
    """Nonempty H2 words of length n, in lexicographic order (2^(n-2) many)."""
    if n < 2:
        return []
    return ["0" + w + "1" for w in all_words(n - 2)]


def word_sort_key(w: Word) -> tuple[int, Word]:
    # canonical term order: length, then lexicographic with '0' < '1'
    return (len(w), w)


# ---------------------------------------------------------------------------
# compositions

def validate_comp(c: Composition) -> Composition:
    if not isinstance(c, tuple) or not all(
            isinstance(s, int) and s >= 1 for s in c):
        raise ValueError(f"not a composition: {c!r}")
    return c


def comp_weight(c: Composition) -> int:
    return sum(c)


def comp_sort_key(c: Composition) -> tuple[int, int, Composition]:
    # canonical term order: weight, then depth, then lexicographic
    return (comp_weight(c), len(c), c)


def is_admissible(c: Composition) -> bool:
    validate_comp(c)
    return bool(c) and c[0] >= 2


def comp_to_word(c: Composition) -> Word:
    """Encode (s1, ..., sk) as 0^(s1-1) 1 ... 0^(sk-1) 1."""
    return _comp_word(validate_comp(c))


def _comp_word(c: Composition) -> Word:
    # comp_to_word without the check, for compositions known to be valid
    return "".join("0" * (s - 1) + "1" for s in c)


def word_to_comp(w: Word) -> Composition:
    """Inverse of comp_to_word; w must lie in H1."""
    validate_word(w)
    if not in_h1(w):
        raise ValueError(f"word does not end in x1: {w!r}")
    parts = []
    run = 0
    for ch in w:
        if ch == "0":
            run += 1
        else:
            parts.append(run + 1)
            run = 0
    return tuple(parts)


def format_comp(c: Composition) -> str:
    return ",".join(str(s) for s in c)


def parse_comp(text: str) -> Composition:
    if re.fullmatch(INDEX_PATTERN, text) is None:
        raise ValueError(f"bad composition text: {text!r}")
    return validate_comp(tuple(int(p) for p in text.split(",")))


# ---------------------------------------------------------------------------
# shuffle and stuffle

_shuffle_memo: dict[tuple[Word, Word], dict[Word, int]] = {}
_stuffle_memo: dict[tuple[Composition, Composition], dict[Composition, int]] = {}


def _quasi_shuffle(u, v, memo: dict, stuffle: bool) -> dict:
    """au * bv = a(u * bv) + b(au * v), plus (a+b)(u * v) if stuffle, with
    integer multiplicities, memoized in memo.  u and v are both words (str,
    the shuffle) or both compositions (tuple, the stuffle, where a letter
    is a part y_i and y_i + y_j is y_{i+j})."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    if u > v:
        u, v = v, u
    key = (u, v)
    hit = memo.get(key)
    if hit is not None:
        return hit
    acc = {}
    steps = [(u[:1], u[1:], v), (v[:1], u, v[1:])]
    if stuffle:
        steps.append(((u[0] + v[0],), u[1:], v[1:]))
    for a, x, y in steps:
        for w, m in _quasi_shuffle(x, y, memo, stuffle).items():
            aw = a + w
            acc[aw] = acc.get(aw, 0) + m
    memo[key] = acc
    return acc


def _shuffle_words(u: Word, v: Word) -> dict[Word, int]:
    return _quasi_shuffle(u, v, _shuffle_memo, False)


def _stuffle_comps(a: Composition, b: Composition) -> dict[Composition, int]:
    return _quasi_shuffle(a, b, _stuffle_memo, True)


def shuffle(p: LinComb, q: LinComb) -> LinComb:
    """Shuffle product of two word polynomials (bilinear extension)."""
    return p.product(q, _shuffle_words)


def concat(p: LinComb, q: LinComb) -> LinComb:
    """Concatenation product of two word polynomials."""
    return p.product(q, lambda u, v: {u + v: 1})


def stuffle(p: LinComb, q: LinComb) -> LinComb:
    """Stuffle (harmonic) product of two composition polynomials."""
    return p.product(q, _stuffle_comps)


# ---------------------------------------------------------------------------
# printing

def _format_terms(pairs: list[tuple[str, object]]) -> str:
    """Render (monomial_text, coeff) pairs as a signed sum.

    A coefficient of magnitude one is dropped in front of a nonempty monomial;
    an empty monomial prints as its bare coefficient.  Each coefficient is
    read as its integer numerator and denominator, as str(Fraction) does.
    """
    if not pairs:
        return "0"
    out = []
    for text, c in pairs:
        num, den = c.numerator, c.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if not text:
            body = mag
        elif mag == "1":
            body = text
        else:
            body = f"{mag}*{text}"
        if not out:
            out.append("-" + body if num < 0 else body)
        else:
            out.append(f" {'-' if num < 0 else '+'} {body}")
    return "".join(out)


def format_word_poly(p: LinComb) -> str:
    pairs = [(w, p[w]) for w in sorted(p.support(), key=word_sort_key)]
    return _format_terms(pairs)


def format_comp_poly(p: LinComb) -> str:
    keys = sorted(p.support(), key=comp_sort_key)
    pairs = [(f"z({format_comp(c)})" if c else "", p[c]) for c in keys]
    return _format_terms(pairs)
