"""Rewrite-engine tests.

Most expected strings here were cross-checked against the numeric oracle
(see test_acceptance) and against hand derivations: ζ(2,1)=ζ(3) is Euler,
ζ(4)=2/5 ζ(2)² and ζ(3,1)=ζ(4)/4 follow from the weight-4 double-shuffle
rows by hand.  The deeper weight-8..10 strings are frozen engine output
whose numeric agreement is part of the acceptance gate; they guard against
silent regressions in elimination order or basis preference.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzv import linalg
from mzv.conjectures import n23_counts, zagier_dims
from mzv.engine import (
    PREFERENCES,
    FreenessReport,
    _product_monomials,
    Identity,
    canonical_monomial,
    check_polynomial_freeness,
    factor_key,
    echelonize_degree,
    express_in_generators,
    format_generator_poly,
    gp_mul,
    identity_weight,
    monomial_weight,
    parse_generator_poly,
    verify_identity,
)
from mzv.linalg import rref
from mzv.lyndon import lyndon_words
from mzv.regularize import knt_system
from mzv.store import TableStore
from mzv.words import (
    LinComb,
    comp_to_word,
    h2_words,
    in_h2,
    shuffle,
    stuffle,
    word_to_comp,
)
from test_lyndon import radford_reference


@pytest.fixture(scope="module")
def cache():
    c = TableStore()
    echelonize_degree(9, c)
    return c


def rewrite(comp, cache):
    return format_generator_poly(express_in_generators(comp, cache))


# ---------------------------------------------------------------------------
# table structure

def test_basis_sizes_follow_dimension_recurrence(cache):
    dims = zagier_dims(9)
    for n in range(2, 10):
        t = echelonize_degree(n, cache)
        assert len(t.basis_words) == dims[n]
        assert len(t.rules) == 2 ** (n - 2) - dims[n]


def test_new_generators_by_weight(cache):
    expected = {2: ((2,),), 3: ((3,),), 4: (), 5: ((5,),), 6: (),
                7: ((7,),), 8: ((6, 2),), 9: ((9,),)}
    for n, gens in expected.items():
        t = echelonize_degree(n, cache)
        assert tuple(word_to_comp(w) for w in t.new_generators) == gens


def test_new_generator_counts_match_necklace_counts(cache):
    counts = n23_counts(9)
    for n in range(2, 10):
        t = echelonize_degree(n, cache)
        assert len(t.new_generators) == counts[n]


def test_product_monomials_match_a_brute_force_filter():
    # generators in the counts n23_counts gives through weight 16, each a
    # distinct composition of its weight, sorted as the table build sorts
    counts = n23_counts(16)
    gens = sorted(((w - i,) + (1,) * i for w in range(2, 17)
                   for i in range(counts[w])), key=factor_key)
    for n in range(2, 17):
        # every generator weighs at least 2, so k factors leave at most
        # n - 2 * (k - 1) to any one of them
        brute = [c for k in range(1, n // 2 + 1)
                 for c in combinations_with_replacement(
                     [g for g in gens if sum(g) <= n - 2 * (k - 1)], k)
                 if sum(map(sum, c)) == n]
        brute.sort(key=lambda c: [gens.index(g) for g in c])
        assert list(_product_monomials(gens, n)) == brute, n


def test_basis_words_prefer_low_depth_high_lead(cache):
    t = echelonize_degree(8, cache)
    assert tuple(word_to_comp(w) for w in t.basis_words) == \
        ((8,), (7, 1), (6, 2), (6, 1, 1))


def test_rules_are_complete_and_disjoint(cache):
    for n in range(3, 9):
        t = echelonize_degree(n, cache)
        basis = set(t.basis_words)
        assert basis.isdisjoint(t.rules)
        assert basis | set(t.rules) == set(h2_words(n))
        for v in t.rules.values():
            assert set(v.support()) <= basis


def test_coords_on_basis_word_is_unit(cache):
    t = echelonize_degree(6, cache)
    for b in t.basis_words:
        assert t.coords(b) == LinComb.term(b)


def test_degree_below_two_rejected(cache):
    with pytest.raises(ValueError):
        echelonize_degree(1, cache)
    with pytest.raises(ValueError):
        check_polynomial_freeness(1, cache)


# ---------------------------------------------------------------------------
# rewriting into generators

def test_euler_weight_three(cache):
    assert rewrite((2, 1), cache) == "z(3)"


def test_weight_four_closed_forms(cache):
    assert rewrite((4,), cache) == "2/5*z(2)*z(2)"
    assert rewrite((3, 1), cache) == "1/10*z(2)*z(2)"
    assert rewrite((2, 2), cache) == "3/10*z(2)*z(2)"
    # duality: ζ(2,1,1) = ζ(4)
    assert rewrite((2, 1, 1), cache) == rewrite((4,), cache)


def test_weight_five(cache):
    assert rewrite((5,), cache) == "z(5)"
    assert rewrite((2, 3), cache) == "9/2*z(5) - 2*z(2)*z(3)"
    assert rewrite((3, 2), cache) == "-11/2*z(5) + 3*z(2)*z(3)"


def test_weight_seven(cache):
    assert rewrite((2, 2, 3), cache) == \
        "-291/16*z(7) + 12*z(2)*z(5) - 3/5*z(2)*z(2)*z(3)"


def test_weight_eight(cache):
    assert rewrite((6, 2), cache) == "z(6,2)"
    assert rewrite((2, 3, 3), cache) == \
        "27/4*z(6,2) - 45/2*z(3)*z(5) + 2*z(2)*z(3)*z(3)" \
        " + 1111/350*z(2)*z(2)*z(2)*z(2)"
    assert rewrite((4, 4), cache) == "2/175*z(2)*z(2)*z(2)*z(2)"


def test_weight_nine(cache):
    assert rewrite((2, 2, 2, 3), cache) == \
        "641/16*z(9) - 30*z(2)*z(7) + 18/5*z(2)*z(2)*z(5)" \
        " - 3/35*z(2)*z(2)*z(2)*z(3)"


def test_non_admissible_rejected(cache):
    with pytest.raises(ValueError):
        express_in_generators((1, 2), cache)


def test_rewrite_is_deterministic(cache):
    fresh = TableStore()
    assert express_in_generators((2, 3, 3), fresh) == \
        express_in_generators((2, 3, 3), cache)


# ---------------------------------------------------------------------------
# the generator expression is a ring homomorphism

def admissible_comps(n):
    return [word_to_comp(w) for w in h2_words(n)]


def test_stuffle_consistency(cache):
    # express(a)·express(b) equals express applied to the stuffle expansion
    for total in range(4, 8):
        for wa in range(2, total - 1):
            for a in admissible_comps(wa):
                ea = express_in_generators(a, cache)
                for b in admissible_comps(total - wa):
                    prod = stuffle(LinComb.term(a), LinComb.term(b))
                    lhs = gp_mul(ea, express_in_generators(b, cache))
                    rhs = LinComb.zero()
                    for comp, c in prod.items():
                        rhs = rhs + c * express_in_generators(comp, cache)
                    assert lhs == rhs, (a, b)


def test_shuffle_consistency(cache):
    for total in range(4, 8):
        for wa in range(2, total - 1):
            for u in h2_words(wa):
                eu = express_in_generators(word_to_comp(u), cache)
                for v in h2_words(total - wa):
                    prod = shuffle(LinComb.term(u), LinComb.term(v))
                    lhs = gp_mul(
                        eu, express_in_generators(word_to_comp(v), cache))
                    rhs = LinComb.zero()
                    for w, c in prod.items():
                        rhs = rhs + c * express_in_generators(
                            word_to_comp(w), cache)
                    assert lhs == rhs, (u, v)


# ---------------------------------------------------------------------------
# identity checking

def ident(text):
    lhs, rhs = text.split("=")
    return Identity(parse_generator_poly(lhs), parse_generator_poly(rhs))


def test_verify_accepts_true_identities(cache):
    for text in [
        "z(2,1) = z(3)",
        "z(2)*z(2) = 2*z(2,2) + z(4)",
        "z(2)*z(2) = 2*z(2,2) + 4*z(3,1)",
        "z(2,3) = 9/2*z(5) - 2*z(2)*z(3)",
        "z(2) = z(2)",
    ]:
        ok, residual = verify_identity(ident(text), cache)
        assert ok and not residual, text


def test_verify_reports_exact_residual(cache):
    ok, residual = verify_identity(ident("z(2,3) = z(5)"), cache)
    assert not ok
    assert format_generator_poly(residual) == "7/2*z(5) - 2*z(2)*z(3)"


def add_pairwise(out: dict, other) -> dict:
    # out + other as LinComb.__add__ ran it before LinComb.sum
    for k, c in other.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


# the pairwise fold verify_identity normalized a side with before, kept as
# the oracle of the residual's values and key order
def normalize_side_pairwise(side, cache):
    out = {}
    for mono, coeff in side.items():
        gp = LinComb.term(())
        for f in mono:
            gp = gp_mul(gp, express_in_generators(f, cache))
        add_pairwise(out, coeff * gp)
    return out


# weight-6 monomials whose normal forms share generator monomials, drawn
# again and again with coefficients that cancel
side6_st = st.lists(st.tuples(st.sampled_from([
    ((6,),), ((2, 4),), ((4, 2),), ((3, 3),), ((5, 1),), ((2, 2, 2),),
    ((2, 1, 3),), ((2,), (4,)), ((3,), (3,)), ((2,), (2,), (2,)),
    ((2,), (2, 2)), ((3,), (2, 1))]), st.integers(-2, 2)),
    max_size=8).map(LinComb.sum)


@given(side6_st, side6_st)
# z(6) = 8/35 z(2)^3 cancels z(2)^3 on the left, and z(2)*z(4) = 2/5 z(2)^3
# adds it back after z(3)^2; z(3)*z(2,1) = z(3)^2 does the same on the right
@example(*ident("8*z(2)*z(2)*z(2) - 35*z(6) + z(3)*z(3) + 5/2*z(2)*z(4)"
                " = z(3)*z(3) - z(3)*z(2,1) + z(3,3)"))
@settings(max_examples=100, deadline=None)
def test_verify_residual_folds_as_the_pairwise_normalization_did(
        cache, lhs, rhs):
    _, residual = verify_identity(Identity(lhs, rhs), cache)
    want = add_pairwise(normalize_side_pairwise(lhs, cache), {
        k: -c for k, c in normalize_side_pairwise(rhs, cache).items()})
    assert list(residual.items()) == list(want.items())


def test_verify_rejects_mixed_weight(cache):
    with pytest.raises(ValueError):
        verify_identity(ident("z(2) = z(3)"), cache)


def test_identity_weight():
    assert identity_weight(ident("z(2,3) = z(5)")) == 5
    assert identity_weight(Identity(LinComb.zero(), LinComb.zero())) is None
    assert identity_weight(ident("3 = 3")) == 0


def test_trivial_weight_zero_identity(cache):
    ok, _ = verify_identity(ident("2 = 2"), cache)
    assert ok
    ok, residual = verify_identity(ident("2 = 3"), cache)
    assert not ok
    assert residual[()] == -1


# ---------------------------------------------------------------------------
# basis preference override

def test_lex_preference_builds_different_basis():
    t = echelonize_degree(5, TableStore(preference="lex"))
    assert tuple(word_to_comp(w) for w in t.basis_words) == \
        ((2, 1, 1, 1), (2, 1, 2))


def test_lex_preference_weight_three_euler():
    lex = TableStore(preference="lex")
    t = echelonize_degree(3, lex)
    # lexicographically 011 < 001, so ζ(2,1) becomes the generator
    assert t.basis_words == ("011",)
    assert format_generator_poly(
        express_in_generators((3,), lex)) == "z(2,1)"


def test_identities_hold_under_either_preference(cache):
    lex = TableStore(preference="lex")
    for text in ["z(2,1) = z(3)", "z(2,3) = 9/2*z(5) - 2*z(2)*z(3)",
                 "z(2)*z(2) = 2*z(2,2) + z(4)"]:
        ok, _ = verify_identity(ident(text), lex)
        assert ok, text
        ok, _ = verify_identity(ident(text), cache)
        assert ok, text


def rules_from_direct_rref(n, prefer):
    """Test oracle: basis and rules read off one rref of knt_system(n) in
    the preference order, least preferred column first."""
    key = PREFERENCES[prefer]
    mat = knt_system(n)
    words = mat.column_labels
    ech = rref(mat.rows, sorted(words, key=key, reverse=True))
    basis = tuple(sorted((w for w in words if w not in ech), key=key))
    rules = {u: LinComb({w: -v for w, v in row.items() if w != u})
             for u, row in ech.items()}
    return basis, rules


@pytest.mark.parametrize("prefer", ["depth", "lex"])
def test_tables_match_the_direct_rref_oracle(prefer):
    store = TableStore(preference=prefer)
    for n in range(2, 11):
        t = echelonize_degree(n, store)
        assert (t.basis_words, t.rules) == rules_from_direct_rref(n, prefer), n


@pytest.mark.parametrize("prefer", ["depth", "lex"])
def test_tables_match_the_oracle_with_small_primes(prefer, monkeypatch):
    # with primes from 2^2 - 1, passes fail to lift or certify in both the
    # low-fill rref and the change of basis before one succeeds
    want = {n: rules_from_direct_rref(n, prefer) for n in range(2, 9)}
    monkeypatch.setattr(linalg, "_MERSENNE_EXPONENTS",
                        (2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 127))
    store = TableStore(preference=prefer)
    for n in range(2, 9):
        t = echelonize_degree(n, store)
        assert (t.basis_words, t.rules) == want[n], n
        assert list(t.rules) == list(want[n][1]), n


def test_every_elimination_certifies_its_first_lift(monkeypatch):
    # the tables to weight 11 and freeness at weight 10, in either order,
    # need neither the second pass nor a later prime
    lifts, taken = linalg._lifts, []

    def counted(rows, n_cols):
        taken.append(0)
        for lift in lifts(rows, n_cols):
            taken[-1] += 1
            yield lift

    monkeypatch.setattr(linalg, "_lifts", counted)
    for prefer in ("depth", "lex"):
        store = TableStore(preference=prefer)
        for n in range(2, 12):
            echelonize_degree(n, store)
        check_polynomial_freeness(10, store)
    assert len(taken) == 62 and set(taken) == {1}


def test_unknown_preference_rejected():
    with pytest.raises(ValueError):
        TableStore(preference="colex")


# ---------------------------------------------------------------------------
# polynomial freeness

def test_freeness_passes_through_weight_nine(cache):
    counts = n23_counts(9)
    for n in range(2, 10):
        rep = check_polynomial_freeness(n, cache)
        assert rep.ok, n
        assert rep.product_pivots == ()
        assert rep.new_count == counts[n]


def test_freeness_survivors_match_table_generators(cache):
    for n in range(2, 10):
        rep = check_polynomial_freeness(n, cache)
        t = echelonize_degree(n, cache)
        assert rep.new_generators == t.new_generators


def freeness_from_raw_rows(n, cache):
    """Test oracle: the check run on every raw row of knt_system(n), each
    rewritten in Lyndon monomials by the rational reference cascade (not
    the integer cascade the check runs) and substituted term by term."""
    key = PREFERENCES[cache.preference]
    singles = [l for l in lyndon_words(n) if in_h2(l)]
    rows = []
    for row in knt_system(n).rows:
        lp = radford_reference(LinComb(row))
        out = LinComb.zero()
        for mono, coeff in lp.items():
            if len(mono) == 1:
                out = out + LinComb.term(("s", mono[0]), coeff)
                continue
            gp = LinComb.term(())
            for f in mono:
                gp = gp_mul(gp, express_in_generators(word_to_comp(f), cache))
            out = out + coeff * LinComb._raw({("p", g): c
                                              for g, c in gp.items()})
        rows.append(out)
    labels = [("s", l) for l in sorted(singles, key=key, reverse=True)] + \
        [("p", g) for g in sorted({k[1] for r in rows for k in r
                                   if k[0] == "p"})]
    ech = rref(rows, labels)
    survivors = sorted((l for l in singles if ("s", l) not in ech), key=key)
    bad = tuple(g for kind, g in ech if kind == "p")
    return FreenessReport(n, not bad, tuple(survivors), bad)


@pytest.mark.parametrize("prefer", ["depth", "lex"])
def test_freeness_matches_the_raw_row_oracle(prefer):
    cache = TableStore(preference=prefer)
    for n in range(2, 10):
        want = freeness_from_raw_rows(n, cache)
        assert check_polynomial_freeness(n, cache) == want, n


# ---------------------------------------------------------------------------
# text form

def test_format_orders_by_factor_count_then_lex(cache):
    gp = express_in_generators((2, 3, 3), cache)
    text = format_generator_poly(gp)
    assert text.index("z(6,2)") < text.index("z(3)*z(5)")
    assert text.index("z(3)*z(5)") < text.index("z(2)*z(2)*z(2)*z(2)")


def test_parse_examples():
    p = parse_generator_poly("9/2*z(5) - 2*z(2)*z(3)")
    assert p == LinComb({((5,),): Fraction(9, 2),
                         ((2,), (3,)): Fraction(-2)})
    assert parse_generator_poly("z(2)z(3)") == \
        parse_generator_poly("z(3)*z(2)")
    assert parse_generator_poly("-z(2)") == LinComb.term(((2,),), -1)
    assert parse_generator_poly("3/4") == LinComb.term((), Fraction(3, 4))
    assert parse_generator_poly("0") == LinComb.zero()


def test_parse_errors_carry_position():
    for bad in ["", "z(2) +", "z()", "1/0*z(2)", "z(0)", "z(2,)",
                "z(2) & z(3)", "2*", "z(2)*"]:
        with pytest.raises(ValueError) as e:
            parse_generator_poly(bad)
        assert "position" in str(e.value)
    # the offset of the first character no valid expression continues with
    for bad, pos in [("z(2, ", 5), (" *z(5)", 1), ("z(2) & z(3)", 5)]:
        with pytest.raises(ValueError, match=f"at position {pos}$"):
            parse_generator_poly(bad)
    # on a long text the position is still that of the first bad character
    head = "z(2)*z(3) - 1/2*z(5) + " * 500
    bad = head + "z(2) & z(3)" + " + z(7,1,2)" * 500
    with pytest.raises(ValueError, match=f"at position {len(head) + 5}$"):
        parse_generator_poly(bad)
    # every prefix of a valid text fails, if at all, at its end
    text = " - 9 / 2 * z ( 5 , 1 ) z(3)*z(2) + 2 - z(4)\t"
    for k in range(len(text) + 1):
        try:
            parse_generator_poly(text[:k])
        except ValueError as e:
            assert str(e).endswith(f"at position {k}"), (text[:k], e)


def test_monomial_canonicalization():
    # factors sort by (weight, parts): (2,1) precedes (3,) at equal weight
    m = canonical_monomial([(3,), (2,), (2, 1)])
    assert m == ((2,), (2, 1), (3,))
    assert monomial_weight(m) == 8


def test_gp_mul_merges_like_monomials():
    p = LinComb.term(((2,),), Fraction(1, 2))
    q = LinComb.term(((3,),), 4)
    assert gp_mul(p, q) == LinComb.term(((2,), (3,)), 2)
    r = gp_mul(p, p) - gp_mul(p, p)
    assert not r


coeff_st = st.fractions(min_value=-10, max_value=10,
                        max_denominator=12).filter(bool)
comp_st = st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple)
mono_st = st.lists(comp_st, min_size=0, max_size=3).map(canonical_monomial)


@given(st.lists(st.tuples(mono_st, coeff_st), min_size=0, max_size=5))
@settings(max_examples=200, deadline=None)
def test_parse_format_roundtrip(pairs):
    p = LinComb.zero()
    for mono, c in pairs:
        p = p + LinComb.term(mono, c)
    assert parse_generator_poly(format_generator_poly(p)) == p


def signed_term_text(factors, num, den):
    body = "".join(f"*z({','.join(map(str, f))})" for f in factors)
    return f"{'-' if num < 0 else '+'} {abs(num)}/{den}{body}"


# a few monomials drawn again and again, with coefficients that can be 0,
# so terms repeat, cancel, and come back after they cancelled
@given(st.lists(st.lists(comp_st, max_size=3), min_size=1, max_size=3)
       .flatmap(lambda pool: st.lists(st.tuples(
           st.sampled_from(pool), st.integers(-3, 3), st.integers(1, 3)),
           max_size=12)))
@example([([(2,)], 1, 1), ([(3,)], 1, 1), ([(2,)], -1, 1), ([(2,)], 2, 1),
          ([(3,)], 0, 1), ([(5,), (3,)], 0, 2)])
@settings(max_examples=300, deadline=None)
def test_parse_sums_terms_as_the_linear_fold_did(terms):
    # the fold parse_generator_poly used to run, kept as the oracle: the same
    # coefficients in the same key order, the order identity_values sums in
    text = " ".join(signed_term_text(*t) for t in terms) or "0"
    old = LinComb.zero()
    for factors, num, den in terms:
        old = old + LinComb.term(canonical_monomial(factors),
                                 Fraction(num, den))
    new = parse_generator_poly(text)
    assert type(new) is LinComb
    assert list(new.items()) == list(old.items()), text


# the scanner the compiled grammar replaced, kept as the oracle of the
# language parse_generator_poly accepts
def parse_by_scanner(text):
    i = 0
    n = len(text)

    def skip():
        nonlocal i
        while i < n and text[i] in " \t":
            i += 1

    def fail(msg):
        raise ValueError(f"{msg} at position {i}")

    def parse_uint():
        nonlocal i
        start = i
        while i < n and text[i] in "0123456789":
            i += 1
        if i == start:
            fail("expected a number")
        return int(text[start:i])

    def parse_factor():
        nonlocal i
        if text[i] != "z":
            fail("expected z(...)")
        i += 1
        skip()
        if i >= n or text[i] != "(":
            fail("expected '(' after z")
        i += 1
        parts = []
        while True:
            skip()
            parts.append(parse_uint())
            skip()
            if i < n and text[i] == ",":
                i += 1
                continue
            if i < n and text[i] == ")":
                i += 1
                break
            fail("expected ',' or ')'")
        if any(p < 1 for p in parts):
            fail("index parts must be positive")
        return tuple(parts)

    def parse_term():
        nonlocal i
        coeff = Fraction(1)
        explicit = False
        skip()
        if i < n and text[i] in "0123456789":
            explicit = True
            num = parse_uint()
            skip()
            if i < n and text[i] == "/":
                i += 1
                skip()
                den = parse_uint()
                if den == 0:
                    fail("zero denominator")
                coeff = Fraction(num, den)
            else:
                coeff = Fraction(num)
            skip()
            if i < n and text[i] == "*":
                i += 1
                skip()
                if i >= n or text[i] != "z":
                    fail("expected z(...) after '*'")
        factors = []
        while i < n and text[i] == "z":
            factors.append(parse_factor())
            skip()
            if i < n and text[i] == "*":
                i += 1
                skip()
                if i >= n or text[i] != "z":
                    fail("expected z(...) after '*'")
        if not factors and not explicit:
            fail("expected a term")
        return coeff, canonical_monomial(factors)

    total = LinComb.zero()
    skip()
    sign = 1
    if i < n and text[i] in "+-":
        sign = -1 if text[i] == "-" else 1
        i += 1
    while True:
        coeff, mono = parse_term()
        total = total + LinComb.term(mono, sign * coeff)
        skip()
        if i >= n:
            break
        if text[i] == "+":
            sign = 1
        elif text[i] == "-":
            sign = -1
        else:
            fail("expected '+' or '-'")
        i += 1
        skip()
    return total


def parse_result(parse, text):
    try:
        return "ok", parse(text)
    except ValueError:
        return "error", None


# what a mutation inserts or deletes: the grammar's own characters, the
# whitespace it does and does not allow, an Arabic-Indic three (a decimal
# digit that int() reads) and a superscript two (isdigit() but no decimal);
# the grammar's digits are ASCII only, so it rejects both
_mutation_chars = st.sampled_from(
    list("z()0123456789,*/+-") + [" ", "\t", "\n", "٣", "²"])


@st.composite
def generator_texts(draw):
    p = LinComb.zero()
    for mono, num, den in draw(st.lists(st.tuples(
            mono_st, st.integers(-20, 20), st.integers(1, 12)), max_size=4)):
        p = p + LinComb.term(mono, Fraction(num, den))
    text = format_generator_poly(p)
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(text)))
        if draw(st.booleans()) and pos < len(text):
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + draw(_mutation_chars) + text[pos:]
    return text


@given(generator_texts())
@settings(max_examples=500, deadline=None)
def test_parser_accepts_the_scanner_language(text):
    assert parse_result(parse_generator_poly, text) == \
        parse_result(parse_by_scanner, text), text
