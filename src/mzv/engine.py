"""Per-weight reduction of the relation systems into rewrite tables.

For each weight n the double-shuffle rows are echelonized under a column
order that eliminates the least preferred words first, so the surviving free
columns form the basis of the weight-n span.  The preference order is the
table store's: `TableStore(preference=...)` names a key of PREFERENCES, and
every function here reads it from the store it is given.  The default,
"depth", ranks words by depth, then first index part descending, then index
parts lexicographically; this reproduces the published generator choices
(5), (7), (6,2), (9), (8,2).

The preference order is one of the worst orders for fill on these rows, so
the relation rows are echelonized once, in a low-fill order: depth
descending, then the reversed word ascending.  Forward entry updates (one
prime) drop from 893k to 444k at weight 11 and from 5.99M to 2.65M at
weight 12 against the preference order.  That RREF gives every word its
coordinates in the quotient by the row space: a free word f is e_f, and a
pivot word u is -sum row_u[f] e_f.  It comes from `integer_rref` as one
common denominator D and integer rows, so the coordinates, scaled by D, are
integers too.  A second `rref` takes these d_n coordinate rows, with every
word as a column, most preferred first.  Its pivots, in scan order, are the
basis, and the column of any other word is that word's rule.  This is the
basis and rules one elimination of the relation rows in reversed
preference order gives: the free columns of an RREF are the basis a greedy
pass picks from the end of the column order; a greedy pass over the
quotient coordinates in preference order picks the same basis; and a
word's coordinates in a basis are unique.  Both RREFs are certified over
Q, and the step between them is exact: scaling a row by D > 0 does not
change the row space.  Each lifts over its own common denominator, so in
the default order through weight 15 both need one pass at the first
prime, 2^89 - 1 (linalg's docstring).

Basis words are then resolved against products of the generators
accumulated from lower weights by one RREF whose rows are the basis
coordinates and whose columns are the product values, then the unit vector
of each basis word in preference order.  A basis column that takes a pivot
lies outside the span of the columns before it and becomes a new generator;
any other basis column is its unique combination of the pivot columns before
it, read off its RREF column.  The resulting generator_map turns any
admissible index into a polynomial in the generators, which is the normal
form used to verify identities.

The freeness check works over Lyndon-monomial variables.  Let pi send a
weight-n word to its coordinates in the table's basis: e_b for a basis word
b, its rule's coefficients for any other word.  The kernel V of pi is the
span of the rule rows, which is the row space of the relation system.  The
Radford map phi is the inverse of lyndon's expansion (a monomial to the
shuffle product of its Lyndon factors), so phi(V) is the kernel of
M = pi o expand.  An H2 word's Chen-Fox-Lyndon factors are Lyndon words
other than 0 and 1, whose shuffles are H2 words, so M is a d_n x 2^(n-2)
integer matrix with one column per H2 word's monomial.  Each column is one
packed sum: every word's coordinates, over the rules' common denominator,
sit in one signed slot per basis word, sized as linalg's certificate sizes
its slots, so each term of a memoized expansion is one multiply-add.
integer_rref of M, scanning the single-Lyndon-word columns first, gives the
kernel basis: one row D e_m - sum_p R[p][m] e_p per free monomial m, that
is N - d_n rows (N = 2^(n-2)) of at most d_n + 1 monomials.  Every product
monomial is then substituted through the lower-weight generator
expressions, once per distinct monomial, and the rows are echelonized
scanning the single columns first.  Each Lyndon factor's generator
expression is an integer combination over its own denominator, and a
product monomial's numerators (gp_mul of its factors') stand over the
product of theirs.  A nonzero scale does not change the row space, so each
row is scaled by the lcm of its monomials' denominators.  The criterion
holds when every pivot lands on a single.  The substitution is linear and
the RREF of a span is unique for a column order, so these rows give the
pivots the raw relation rows would.  Substituting first is what makes the
check meaningful: without it, products of lower-weight relations (already
consequences of smaller tables) masquerade as product-only rows and steal
pivots.
"""

from __future__ import annotations

import bisect
import functools
import re
from collections.abc import Mapping
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import NamedTuple

from .linalg import integer_rref, kernel_basis, rref
from .lyndon import LyndonMonomial, factor_expand, lyndon_words
from .regularize import knt_system
from .words import (
    INDEX_PATTERN,
    Composition,
    LinComb,
    Word,
    _format_terms,
    comp_to_word,
    comp_weight,
    format_comp,
    is_admissible,
    stuffle,
    word_to_comp,
)

__all__ = [
    "ENGINE_VERSION",
    "GeneratorMonomial",
    "RewriteTable",
    "Identity",
    "FreenessReport",
    "preference_key",
    "echelonize_degree",
    "express_in_generators",
    "verify_identity",
    "check_polynomial_freeness",
    "canonical_monomial",
    "monomial_weight",
    "gp_mul",
    "format_generator_poly",
    "format_generator_monomial",
    "parse_generator_poly",
]

# bump to invalidate persisted tables when table-affecting logic changes
ENGINE_VERSION = "1"

GeneratorMonomial = tuple[Composition, ...]


def factor_key(c: Composition):
    return (sum(c), c)


def canonical_monomial(factors) -> GeneratorMonomial:
    return tuple(sorted(factors, key=factor_key))


def monomial_weight(m: GeneratorMonomial) -> int:
    return sum(sum(f) for f in m)


def gp_mul(p: LinComb, q: LinComb) -> LinComb:
    """Product of generator polynomials (multiset union of factors)."""
    return p.product(q, lambda m1, m2: {canonical_monomial(m1 + m2): 1})


def preference_key(w: Word):
    """Lower sorts as more preferred basis candidate."""
    c = word_to_comp(w)
    return (len(c), -c[0], c)


# the table store names the order its tables are built in
PREFERENCES = {"depth": preference_key, "lex": word_to_comp}


class RewriteTable(NamedTuple):
    degree: int
    basis_words: tuple[Word, ...]          # preference order
    rules: Mapping[Word, LinComb]          # non-basis word -> basis combination
    generator_map: dict[Word, LinComb]     # basis word -> generator polynomial

    @property
    def new_generators(self) -> tuple[Word, ...]:
        """The basis words whose generator polynomial is their own
        one-factor monomial, in basis order."""
        return tuple(b for b in self.basis_words
                     if self.generator_map[b] == {(word_to_comp(b),): 1})

    def coords(self, w: Word) -> LinComb:
        r = self.rules.get(w)
        return LinComb.term(w) if r is None else r


@functools.cache
def _default_cache():
    from .store import TableStore  # deferred: store imports engine
    return TableStore()


def _resolve(cache):
    return _default_cache() if cache is None else cache


# ---------------------------------------------------------------------------
# table construction

def _product_monomials(gens: list[Composition], rem: int):
    """Multisets of the weight-sorted gens with total weight rem, in
    lexicographic order over the list."""
    for i, g in enumerate(gens):
        w = sum(g)
        if w > rem:
            break
        if w == rem:
            yield (g,)
        else:
            for rest in _product_monomials(gens[i:], rem - w):
                yield (g, *rest)


def _product_value(mono: GeneratorMonomial, table: "RewriteTable") -> LinComb:
    """Coordinates of a product of generator zetas in the weight-n basis."""
    p = LinComb.term(mono[0])
    for f in mono[1:]:
        p = stuffle(p, LinComb.term(f))
    return p.map_linear(lambda comp: table.coords(comp_to_word(comp)))


def _column(ech: dict, c) -> LinComb:
    """Column c of an RREF: c as a combination of the pivot columns."""
    return LinComb._raw({b: row[c] for b, row in ech.items() if c in row})


def echelonize_degree(n: int, cache=None) -> RewriteTable:
    """Rewrite table for weight n in the cache's preference order;
    lower-weight tables are built on demand."""
    cache = _resolve(cache)
    hit = cache.get(n)
    if hit is not None:
        return hit
    key = PREFERENCES[cache.preference]
    lower = [echelonize_degree(m, cache) for m in range(2, n)]

    mat = knt_system(n)
    words = mat.column_labels
    low_fill = sorted(words, key=lambda w: (-w.count("1"), w[::-1]))
    # quotient coordinates: the kernel rows, one per free word f, scaled by
    # the common denominator D (D at f, and -row_u[f] at each pivot word u)
    coords = kernel_basis(*integer_rref(mat.rows, low_fill), words)
    # the change of basis: its pivots are the basis, in preference order,
    # and the column of any other word is that word's rule
    preferred = sorted(words, key=key)
    cob = rref(coords.values(), preferred)
    basis_words = tuple(cob)
    rules = {u: _column(cob, u) for u in reversed(preferred) if u not in cob}
    table = RewriteTable(n, basis_words, rules, {})

    # rows: basis coordinates; columns: the products of generators (all
    # below weight n, so two or more factors), then the unit vector (the
    # one-factor monomial) of each basis word in preference order
    gens = sorted((word_to_comp(w) for t in lower for w in t.new_generators),
                  key=factor_key)
    monos = list(_product_monomials(gens, n))
    units = [(word_to_comp(b),) for b in basis_words]
    row_of = {b: {u: 1} for b, u in zip(basis_words, units)}
    for mono in monos:
        for b, v in _product_value(mono, table).items():
            row_of[b][mono] = v
    res = rref(row_of.values(), monos + units)

    # each basis word is its own RREF column over the pivot columns before
    # it; a pivot column is its own unit vector, a new generator
    for b, u in zip(basis_words, units):
        table.generator_map[b] = _column(res, u)
    cache.put(table)
    return table


def express_in_generators(c: Composition, cache=None) -> LinComb:
    """zeta(c) as a polynomial in the accumulated generators."""
    if not is_admissible(c):
        raise ValueError(f"index is not admissible: {c!r}")
    table = echelonize_degree(comp_weight(c), cache)
    return table.coords(comp_to_word(c)).map_linear(
        table.generator_map.__getitem__)


# ---------------------------------------------------------------------------
# identities

class Identity(NamedTuple):
    """Both sides are linear combinations of monomials in zeta arguments
    (tuples of admissible compositions; the empty tuple is a constant)."""
    lhs: LinComb
    rhs: LinComb


def identity_weight(ident: Identity):
    """Common weight of all monomials, or None for 0 = 0; raises on mix."""
    weights = {monomial_weight(m)
               for side in (ident.lhs, ident.rhs) for m in side.support()}
    if len(weights) > 1:
        raise ValueError(
            f"identity is not weight-homogeneous: weights {sorted(weights)}")
    return weights.pop() if weights else None


def _normalize_side(side: LinComb, cache) -> LinComb:
    return side.map_linear(lambda mono: functools.reduce(
        gp_mul, (express_in_generators(f, cache) for f in mono),
        LinComb.term(())))


def verify_identity(ident: Identity, cache=None):
    """(True, zero) when both sides share a normal form, else (False,
    residual) with residual = normal(lhs) - normal(rhs)."""
    identity_weight(ident)
    residual = _normalize_side(ident.lhs, cache) - \
        _normalize_side(ident.rhs, cache)
    return (not residual, residual)


# ---------------------------------------------------------------------------
# polynomial freeness

class FreenessReport(NamedTuple):
    degree: int
    ok: bool
    new_generators: tuple[Word, ...]   # surviving single-Lyndon columns
    product_pivots: tuple              # offending product columns, if any

    @property
    def new_count(self) -> int:
        return len(self.new_generators)


def _relation_rows(table: RewriteTable, single_cols: list[Word]) -> list:
    """phi(V), V the span of the table's rule rows, as integer rows over
    Lyndon monomials: the kernel basis of M = pi o expand for the column
    order single_cols (as one-factor monomials), then the products."""
    rules = table.rules
    den = lcm(*(c.denominator for r in rules.values() for c in r.values()))
    coords = {u: {b: c.numerator * (den // c.denominator)
                  for b, c in r.items()} for u, r in rules.items()}
    coords.update((b, {b: den}) for b in table.basis_words)
    expansions = [factor_expand(w) for w in sorted(coords)]
    # a signed slot per basis word, wide enough that no slot of a sum over
    # an expansion carries; shuffle coefficients are positive, so an
    # expansion's L1 norm is their sum
    big = max(abs(v) for r in coords.values() for v in r.values())
    norm = max(sum(e.values()) for _, e in expansions)
    width = big.bit_length() + norm.bit_length() + 2
    slot = {b: i * width for i, b in enumerate(table.basis_words)}
    packed = {w: sum(v << slot[b] for b, v in r.items())
              for w, r in coords.items()}
    # M, one row per basis word, one column per expansion; the bias lifts
    # every slot into [0, 2^width)
    half, mask = 1 << width - 1, (1 << width) - 1
    bias = sum(half << s for s in slot.values())
    rows = [{} for _ in slot]
    for mono, e in expansions:
        x = sum(map(mul, e.values(), map(packed.__getitem__, e))) + bias
        for row, s in zip(rows, slot.values()):
            if v := (x >> s & mask) - half:
                row[mono] = v
    cols = [(l,) for l in single_cols] + \
        [mono for mono, _ in expansions if len(mono) > 1]
    return list(kernel_basis(*integer_rref(rows, cols), cols).values())


def check_polynomial_freeness(n: int, cache=None) -> FreenessReport:
    """Echelonize phi of the weight-n table's rule rows (their span, read
    as the kernel of pi o expand) over Lyndon-monomial variables, products
    substituted through lower-weight generator expressions, scanning
    single columns first; passes when no pivot falls on a product column.
    Builds and caches the tables up to weight n."""
    cache = _resolve(cache)
    table = echelonize_degree(n, cache)
    key = PREFERENCES[cache.preference]
    singles = set(lyndon_words(n))

    @functools.cache
    def factor(l: Word) -> tuple[LinComb, int]:
        """The generator expression of a Lyndon factor, as integers over
        its own common denominator."""
        e = express_in_generators(word_to_comp(l), cache)
        den = lcm(*(c.denominator for c in e.values()))
        return LinComb._raw({g: c.numerator * (den // c.denominator)
                             for g, c in e.items()}), den

    @functools.cache
    def substitute(mono: LyndonMonomial) -> tuple[LinComb, int]:
        """Column coefficients of one Lyndon monomial, as integers over a
        common denominator: a single stays, a product goes through the
        generator expressions of its factors."""
        if len(mono) == 1:
            return LinComb.term(mono[0]), 1
        parts = [factor(l) for l in mono]
        return (functools.reduce(gp_mul, (e for e, _ in parts),
                                 LinComb.term(())),
                prod(d for _, d in parts))

    # a column is a Lyndon word (a str) or a generator monomial (a tuple);
    # singles are scanned first, least preferred first within them
    single_cols = sorted(singles, key=key, reverse=True)
    # each row of phi(V) substituted, kept in integers to the echelon (a
    # nonzero scale does not change the row space)
    sub_rows = []
    for row in _relation_rows(table, single_cols):
        terms = [(q, *substitute(mono)) for mono, q in row.items()]
        den = lcm(*(d for _, _, d in terms))
        sub_rows.append(LinComb.sum(
            (k, q * (den // d) * v) for q, sub, d in terms
            for k, v in sub.items()))
    product_cols = sorted(set().union(*sub_rows).difference(singles))
    _, ech = integer_rref(sub_rows, single_cols + product_cols)

    survivors = sorted((l for l in singles if l not in ech), key=key)
    bad = tuple(g for g in ech if g not in singles)
    return FreenessReport(n, not bad, tuple(survivors), bad)


# ---------------------------------------------------------------------------
# generator polynomial text form

@functools.cache
def _gen_grammar():
    """(expr, term, factor), compiled on first use rather than at import.

    A generator polynomial is a signed sum of terms.  A term is a rational n
    or n/d, then factors z(s1,...,sk), with an optional * between any two of
    them; the rational or the factors may be left out, not both.  Numbers
    are ASCII digits, and an index is words.INDEX_PATTERN.  Spaces and tabs
    may stand between any two tokens.  expr is the whole grammar; term
    pulls (sign, n, d, factors) out of a text that expr accepts, its
    lookahead making a term start with a digit or a z; factor pulls the
    parts out of each factor.
    """
    sp = r"[ \t]*"
    factor = rf"z{sp}\({INDEX_PATTERN}\)"
    term = (rf"(?=[0-9z])(?:([0-9]+)(?:{sp}/{sp}([0-9]+))?)?"
            rf"((?:{sp}(?:\*{sp})?{factor})*)")
    return (re.compile(rf"{sp}(?:[+-]{sp})?{term}(?:{sp}[+-]{sp}{term})*{sp}"),
            re.compile(rf"([+-]?){sp}{term}"),
            re.compile(rf"z{sp}\(([^)]*)\)"))


# A completion for each state of the grammar (a complete text takes one more
# factor z(1)): a text is a prefix of some valid expression exactly when one
# of these completes it.
_GEN_COMPLETIONS = ("1", ")", "1)", "(1)", "z(1)")


def format_generator_monomial(m: GeneratorMonomial) -> str:
    return "*".join(f"z({format_comp(f)})" for f in m)


def format_generator_poly(p: LinComb) -> str:
    return _format_terms(p, lambda m: (len(m), m), format_generator_monomial)


def parse_generator_poly(text: str) -> LinComb:
    """Parse `9/2*z(5) - 2*z(2)*z(3)` style sums; bare rationals allowed."""
    expr, term, factor = _gen_grammar()
    if expr.fullmatch(text) is None:
        # the first character no valid expression continues with; prefixes
        # of valid texts are closed under prefixes, so bisect for it
        pos = bisect.bisect(range(len(text) + 1), False, key=lambda k: not any(
            expr.fullmatch(text[:k] + s) for s in _GEN_COMPLETIONS)) - 1
        raise ValueError(f"bad generator polynomial at position {pos}")
    terms = []
    for m in term.finditer(text):
        sign, num, den = m.group(1, 2, 3)
        if den is not None and not int(den):
            raise ValueError(f"zero denominator at position {m.start(3)}")
        factors = []
        for f in factor.finditer(m[4]):
            parts = tuple(int(s) for s in f[1].split(","))
            if min(parts) < 1:
                raise ValueError("index parts must be positive at position "
                                 f"{m.start(4) + f.start()}")
            factors.append(parts)
        terms.append((canonical_monomial(factors),
                      Fraction(int(sign + (num or "1")), int(den or 1))))
    return LinComb.sum(terms)
