"""Persistent table cache tests.

The file format is exercised through its public surface: build tables into a
directory, reload them through a fresh store, and attack the self-validation
(flipped bytes, stale engine versions, truncation) expecting silent misses
rather than exceptions.
"""

import hashlib
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzv import cli
from mzv.engine import (
    ENGINE_VERSION,
    RewriteTable,
    echelonize_degree,
    express_in_generators,
    format_generator_poly,
    monomial_weight,
    parse_generator_poly,
)
from mzv.store import (
    FORMAT_VERSION,
    TableStore,
    _deserialize,
    _parse_word_terms,
    _serialize,
    resolve_root,
)
from mzv.words import (
    LinComb,
    all_words,
    format_word_poly,
    in_h2,
    word_sort_key,
    word_to_comp,
)

EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"


def rewrite_line(path, index, line):
    """Replace one body line and re-sign the file with a valid checksum."""
    lines = path.read_text().splitlines()[:-1]
    lines[index] = line
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(body + f"checksum {digest}\n")


def build(root, up_to=6):
    st = TableStore(root)
    for n in range(2, up_to + 1):
        echelonize_degree(n, st)
    return st


@pytest.fixture(scope="module")
def tables_to_10(tmp_path_factory):
    root = tmp_path_factory.mktemp("tables")
    build(root, 10)
    return root


def test_round_trip_all_fields(tmp_path):
    build(tmp_path, 7)
    fresh = TableStore(tmp_path)
    ref = TableStore(None)
    for n in range(2, 8):
        want = echelonize_degree(n, ref)
        got = fresh.get(n)
        assert got is not None
        assert got.degree == want.degree
        assert got.basis_words == want.basis_words
        assert got.rules == want.rules
        assert got.generator_map == want.generator_map
        assert got.new_generators == want.new_generators


def test_missing_degree_is_none(tmp_path):
    st = build(tmp_path, 4)
    fresh = TableStore(tmp_path)
    assert fresh.get(9) is None
    assert st.get(9) is None


def test_memory_only_store(tmp_path):
    st = TableStore(None)
    echelonize_degree(5, st)
    assert st.get(5) is not None
    assert not list(tmp_path.iterdir())


def test_a_directory_holds_only_the_default_order(tmp_path):
    # the file names do not carry the order, so a lex store on the same
    # directory would overwrite the depth tables
    build(tmp_path, 5)
    before = (tmp_path / "degree-05.table").read_bytes()
    with pytest.raises(ValueError, match="memory only"):
        TableStore(tmp_path, preference="lex")
    assert (tmp_path / "degree-05.table").read_bytes() == before
    assert b"preference depth" in before
    assert TableStore(tmp_path).get(5) is not None


def test_corrupted_file_is_a_miss(tmp_path):
    build(tmp_path, 5)
    path = tmp_path / "degree-05.table"
    text = path.read_text()
    path.write_text(text.replace("rule", "ruIe", 1))
    assert TableStore(tmp_path).get(5) is None
    # other degrees unaffected
    assert TableStore(tmp_path).get(4) is not None


def test_truncated_file_is_a_miss(tmp_path):
    build(tmp_path, 5)
    path = tmp_path / "degree-05.table"
    path.write_text(path.read_text()[:40])
    assert TableStore(tmp_path).get(5) is None


def test_stale_engine_version_is_a_miss(tmp_path):
    build(tmp_path, 4)
    rewrite_line(tmp_path / "degree-04.table", 1, "engine 0")
    # checksum is valid, the version gate alone must reject it
    assert TableStore(tmp_path).get(4) is None


@pytest.mark.parametrize("index, line", [
    # another format version
    (0, "mzv-table 2"),
    (2, "degree"),
    (3, "preference foo"),
    # a known order, but not the store's
    (3, "preference lex"),
    (6, "rule 011 = 1*0x1"),
    (6, "rule 011 = 1/0*001"),
    # the writer never repeats a word or writes a zero coefficient
    (6, "rule 011 = 2*001 - 001"),
    (6, "rule 011 = 001 + 0*001"),
    # checksum-valid, well-formed, but of another weight
    (7, "gen 001 := z(99999999999999999999999)"),
    (6, "rule 011 = 0001"),
    (6, "rule 0011 = 001"),
    (5, "new 001 011"),
    # the writer's header only: a new line that disagrees with the gen
    # lines, and another keyword
    (5, "new "),
    (2, "weight 3"),
    # well-formed and of the right weight, but the rules and the basis do
    # not cover the weight's words: a rule term that is no basis word, and
    # a word with neither a rule nor a basis entry
    (6, "rule 011 = 011"),
    (6, "gen 001 := z(3)"),
    # a body line that is neither a rule nor a generator
    (6, "note 011"),
])
def test_malformed_body_is_discarded_and_rebuilt(tmp_path, capsys,
                                                 index, line):
    build(tmp_path, 3)
    path = tmp_path / "degree-03.table"
    good = path.read_text()
    rewrite_line(path, index, line)
    assert TableStore(tmp_path).get(3) is None
    code = cli.main(["--cache-dir", str(tmp_path), "rewrite", "2,1"])
    assert code == 0 and capsys.readouterr().out == "z(3)\n"
    assert TableStore(tmp_path).get(3) is not None
    assert path.read_text() == good
    rewrite_line(path, index, line)
    code = cli.main(["--cache-dir", str(tmp_path), "freeness",
                     "--degree", "3"])
    assert code == 0 and capsys.readouterr().out == \
        "degree 3: PASS, 1 new generator(s): (3)\n"
    assert path.read_text() == good


def test_new_line_that_disagrees_with_the_gen_lines_is_a_miss(
        tables_to_10, tmp_path, capsys):
    # z(7,1) in place of the weight-8 generator z(6,2): a weight-10 table
    # built on that record would rewrite z(7,1,2) as itself
    code = cli.main(["--cache-dir", str(tables_to_10), "rewrite", "7,1,2"])
    want = capsys.readouterr().out
    assert code == 0 and want != "z(7,1,2)\n"
    for n in range(2, 9):
        name = f"degree-{n:02d}.table"
        (tmp_path / name).write_bytes((tables_to_10 / name).read_bytes())
    path = tmp_path / "degree-08.table"
    good = path.read_text()
    assert good.splitlines()[5] == "new 00000101"
    rewrite_line(path, 5, "new 00000011")
    assert TableStore(tmp_path).get(8) is None
    code = cli.main(["--cache-dir", str(tmp_path), "rewrite", "7,1,2"])
    assert code == 0 and capsys.readouterr().out == want
    assert path.read_text() == good


def test_undecodable_file_is_discarded_and_rebuilt(tmp_path, capsys):
    build(tmp_path, 3)
    path = tmp_path / "degree-03.table"
    good = path.read_bytes()
    path.write_bytes(b"\xff\xfe\x00garbage")
    assert TableStore(tmp_path).get(3) is None
    code = cli.main(["--cache-dir", str(tmp_path), "rewrite", "2,1"])
    assert code == 0 and capsys.readouterr().out == "z(3)\n"
    assert path.read_bytes() == good


def test_rebuild_reproduces_identical_bytes(tmp_path):
    st = build(tmp_path, 6)
    before = {p.name: p.read_bytes()
              for p in tmp_path.glob("degree-*.table")}
    st.wipe()
    assert not list(tmp_path.glob("degree-*.table"))
    build(tmp_path, 6)
    after = {p.name: p.read_bytes()
             for p in tmp_path.glob("degree-*.table")}
    assert before == after


def test_failed_write_keeps_table_in_memory(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("mzv.store.os.replace", refuse)
    st = TableStore(tmp_path)
    table = echelonize_degree(4, TableStore(None))
    st.put(table)
    assert st.get(4) is table
    assert not list(tmp_path.iterdir())


def test_tables_match_the_recorded_digests(tables_to_10):
    # the RREF for a column order is unique, so any correct elimination
    # kernel must reproduce the recorded table files byte for byte
    expected = json.loads(EXPECTED.read_text())["tables"]
    for n in range(2, 11):
        name = f"degree-{n:02d}.table"
        data = (tables_to_10 / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == expected[name], name


def test_every_rewrite_to_10_matches_its_recorded_digest(tables_to_10):
    # every admissible index of weights 5..10, read from tables parsed back
    # by one fresh store, prints what `rewrite` printed when it was recorded
    expected = json.loads(EXPECTED.read_text())["rewrite"]
    fresh = TableStore(tables_to_10)
    checked = 0
    for n in range(5, 11):
        assert fresh.get(n) is not None, n
        for w in filter(in_h2, all_words(n)):
            comp = word_to_comp(w)
            out = format_generator_poly(express_in_generators(comp, fresh))
            key = ",".join(map(str, comp))
            got = hashlib.sha256((out + "\n").encode()).hexdigest()[:16]
            assert got == expected[key], key
            checked += 1
    assert checked == sum(2 ** (n - 2) for n in range(5, 11))


# sha256 of the serialized --prefer lex tables for weights 2..10; these are
# kept in memory only, so the recorded cache digests do not cover them
LEX_DIGESTS = {
    2: "7fd5ab9f6fbb6afdd2b15f0b3a94b1d109cdd1398f3351311c6f0881f818ca15",
    3: "c4e0d5ac9ed7ffb9cf30b09eedc8ffa84d2c06abece29cb61a7f6887735b5098",
    4: "27be1c3021012e1f16cf15cf2fd25c031af14c9efcda387e5bd0cf4540f158e6",
    5: "c1db925b088fc1b0a05d0a5c0ef0b14b980e35593d499dc955ef9b7329b112b6",
    6: "85fa033d4b6642544feab6cde894e4ccb60de3c0adab962cc1dab2c134133c4e",
    7: "587d6ca3311865946ada209ec7e2e901be487778f22bf2795c1a21728cfa5717",
    8: "30d762ab833c25c8e9e68706e2466edce9100ca13c7ea22763007c12bfd664dd",
    9: "de2225063bdd34fe36293bd111d975d772c6b8de8a20b8db960a2347503b7f57",
    10: "ccf616f30b2e1d09cd4de0bf4ed339104088086d67ddb5aa81b0518bcb7eed8b",
}


def test_lex_tables_match_the_recorded_digests():
    st = TableStore(None, preference="lex")
    for n, digest in LEX_DIGESTS.items():
        text = _serialize(echelonize_degree(n, st), "lex")
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n


def test_serialization_is_deterministic():
    st = TableStore(None)
    t = echelonize_degree(8, st)
    assert _serialize(t, "depth") == _serialize(t, "depth")


def test_wrong_degree_filename_is_a_miss(tmp_path):
    build(tmp_path, 4)
    # copy the degree-3 payload over the degree-4 slot
    (tmp_path / "degree-04.table").write_text(
        (tmp_path / "degree-03.table").read_text())
    assert TableStore(tmp_path).get(4) is None


def test_parse_word_terms():
    # the load checks an expression, so this parse is given only good ones
    assert _parse_word_terms("3*01 - 1/2*0011", {}) == \
        LinComb({"01": Fraction(3), "0011": Fraction(-1, 2)})


# the term loop the rule parser replaced, kept as the oracle of the language
# a load accepts; no term, a zero coefficient or a repeated word is an
# error, since the writer never emits any of them (a lone 0 reads as the
# word 0, which is no basis word)
_LOOP_TERM = re.compile(r"\s*(?:([+-])\s*)?(?:(\d+)(?:/(\d+))?\*)?([01]+)")


def parse_by_term_loop(text):
    text = text.strip()
    if not text:
        raise ValueError("rule expression without a term")
    out = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _LOOP_TERM.match(text, pos)
        if m is None or (not first and m.group(1) is None):
            raise ValueError(f"bad rule expression at offset {pos}: {text!r}")
        sign, num, den, w = m.groups()
        num = int(num or 1)
        coeff = Fraction(-num if sign == "-" else num, int(den or 1))
        if not coeff or w in out:
            raise ValueError(f"zero coefficient or repeated word: {text!r}")
        out[w] = coeff
        pos = m.end()
        first = False
    return LinComb._raw(out)


# over the basis words of the weight-5 table
_lincombs = st.dictionaries(
    st.sampled_from(["00001", "00011"]),
    st.sampled_from([1, -1]) | st.fractions(
        min_value=-40, max_value=40, max_denominator=12).filter(bool),
    max_size=2,
).map(LinComb)

# what a mutation inserts: spaces, an explicit 1*, signs (a leading or a
# doubled one), a repeated word, zero coefficients, a zero denominator, and
# stray characters, some of them Unicode digits and spaces
_inserts = st.sampled_from([
    " ", "  ", "\t", "\u00a0", "1*", "+", "-", "+ ", "- 01", " + 01",
    "01", "0*", "00*", "0/3*", "1/0*", "2/4*", "/", "*", "**", "x", "2",
    "\u0663", "\u0663*", ".", "=",
])


@st.composite
def rule_expressions(draw):
    text = format_word_poly(draw(_lincombs))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "term"]))
        if kind == "term":
            # in front of a term's coefficient or word
            starts = [i for i, ch in enumerate(text)
                      if ch.isdigit() and (i == 0 or text[i - 1] == " ")]
            pos = draw(st.sampled_from(starts)) if starts else 0
        else:
            pos = draw(st.integers(0, len(text)))
        if kind == "delete" and pos < len(text):
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + draw(_inserts) + text[pos:]
    return text


@settings(max_examples=600, deadline=None)
@given(st.lists(rule_expressions(), min_size=1, max_size=2))
def test_rule_parser_accepts_the_term_loop_language(texts):
    # the expressions replace the first rules of the weight-5 table; the
    # load is the only check, so it accepts exactly what the term loop
    # parses into basis words, and the lazy parse gives the loop's terms
    lines = written(5).splitlines()[:-1]
    for i, text in enumerate(texts, 6):
        lines[i] = lines[i].partition(" = ")[0] + " = " + text
    body = "\n".join(lines) + "\n"
    table = body + f"checksum {hashlib.sha256(body.encode()).hexdigest()}\n"
    got = table_fields(_deserialize(table, "depth"))
    if not table.isascii():
        assert got is None
        return
    assert got == table_fields(deserialize_eagerly(table, "depth")), texts


def test_resolve_root_precedence(monkeypatch, tmp_path):
    monkeypatch.delenv("MZV_CACHE_DIR", raising=False)
    assert resolve_root(None) == resolve_root() == \
        resolve_root("") == resolve_root(None)
    assert str(resolve_root(None)) == ".mzv-cache"
    monkeypatch.setenv("MZV_CACHE_DIR", str(tmp_path / "env"))
    assert resolve_root(None) == tmp_path / "env"
    assert resolve_root(str(tmp_path / "flag")) == tmp_path / "flag"


def test_roundtrip_preserves_rule_semantics(tmp_path):
    # spot-check one rule survives the text round trip with exact values
    st = build(tmp_path, 5)
    t5 = TableStore(tmp_path).get(5)
    rule = t5.rules["00101"]
    direct = echelonize_degree(5, TableStore(None)).rules["00101"]
    assert rule == direct


# ---------------------------------------------------------------------------
# a load checks every rule line; a rule is parsed on first read

# a corrupt rule line of degree 5 that `rewrite 2,3` never reads: it reads
# the rule of 01001 only
@pytest.mark.parametrize("line", [
    "rule 01111 = 0*00001",
    "rule 01111 = 1/0*00001",
    "rule 01111 = 2/00*00001",
    "rule 01111 = 00001 - 00001",
    "rule 01111 = 01001",
    "rule 01111 = 00001 +",
    "rule 01111 = 00001 ",
    "rule 01111 = -00001 + 00001",
    "rule 01111 = 00001 ++ 00011",
    "rule 01111 = 00001 00011",
])
def test_corrupt_rule_is_rejected_at_load_before_it_is_read(tmp_path, capsys,
                                                            line):
    build(tmp_path, 5)
    path = tmp_path / "degree-05.table"
    good = path.read_text()
    assert "\nrule 01111 = 00001\n" in good
    rewrite_line(path, good.splitlines().index("rule 01111 = 00001"), line)
    assert TableStore(tmp_path).get(5) is None
    code = cli.main(["--cache-dir", str(tmp_path), "rewrite", "2,3"])
    assert code == 0 and capsys.readouterr().out == \
        "9/2*z(5) - 2*z(2)*z(3)\n"
    assert path.read_text() == good


# no table holds a zero rule, since every MZV is positive; read as one, a
# rule with no terms would rewrite z(3,2) to 0 and pass z(3,2) = 0
@pytest.mark.parametrize("expr", ["", "0"])
def test_a_rule_with_no_terms_is_a_miss(tmp_path, capsys, expr):
    build(tmp_path, 5)
    path = tmp_path / "degree-05.table"
    good = path.read_text()
    at = good.splitlines().index("rule 00101 = 1/2*00001 - 3*00011")
    rewrite_line(path, at, f"rule 00101 = {expr}")
    assert TableStore(tmp_path).get(5) is None
    code = cli.main(["--cache-dir", str(tmp_path), "rewrite", "3,2"])
    assert code == 0 and capsys.readouterr().out == \
        "-11/2*z(5) + 3*z(2)*z(3)\n"
    assert path.read_text() == good
    rewrite_line(path, at, f"rule 00101 = {expr}")
    code = cli.main(["--cache-dir", str(tmp_path), "verify", "--mode",
                     "symbolic", "z(3,2) = 0"])
    assert code == 1 and capsys.readouterr().out == \
        "symbolic: FAIL  residual = -11/2*z(5) + 3*z(2)*z(3)\n"
    assert path.read_text() == good


def test_dims_on_cached_tables_parses_no_rule(tables_to_10, capsys,
                                              monkeypatch):
    def refuse(text, coeffs):
        raise AssertionError(f"parsed a rule: {text!r}")

    monkeypatch.setattr("mzv.store._parse_word_terms", refuse)
    code = cli.main(["--cache-dir", str(tables_to_10), "--records",
                     "dims", "--max", "10"])
    # what the eager loader printed
    assert code == 0 and capsys.readouterr().out == (
        "dims 3 2 1 1 1 1\ndims 4 4 3 1 1 1\ndims 5 8 6 2 2 1\n"
        "dims 6 16 14 2 2 1\ndims 7 32 29 3 3 1\ndims 8 64 60 4 4 1\n"
        "dims 9 128 123 5 5 1\ndims 10 256 249 7 7 1\n")


def test_a_loaded_table_serializes_to_its_file(tables_to_10):
    fresh = TableStore(tables_to_10)
    for n in range(2, 11):
        path = tables_to_10 / f"degree-{n:02d}.table"
        assert _serialize(fresh.get(n), "depth") == path.read_text(), n


def test_lazily_loaded_rules_equal_a_build(tables_to_10):
    fresh = TableStore(tables_to_10)
    ref = TableStore(None)
    for n in range(2, 11):
        got, want = fresh.get(n).rules, echelonize_degree(n, ref).rules
        assert len(got) == len(want)
        # a file lists its rules in word order, a build in pivot order
        assert list(got) == sorted(want, key=word_sort_key)
        assert all(w in got for w in want) and "1" not in got
        assert got == want and want == got
        assert dict(got.items()) == want
    # a rule is parsed once, then kept
    rules = TableStore(tables_to_10).get(10).rules
    w = next(iter(rules))
    assert rules[w] is rules[w] == rules.get(w)


# the eager loader the lazy one replaced, kept as the oracle of the files a
# load accepts; each rule goes through parse_by_term_loop
def deserialize_eagerly(text, preference):
    lines = text.splitlines()
    if len(lines) < 7 or not lines[-1].startswith("checksum "):
        return None
    body = "\n".join(lines[:-1]) + "\n"
    if hashlib.sha256(body.encode()).hexdigest() != lines[-1].split()[1]:
        return None
    if lines[0] != f"mzv-table {FORMAT_VERSION}":
        return None
    if lines[1] != f"engine {ENGINE_VERSION}":
        return None
    if lines[3] != f"preference {preference}":
        return None
    try:
        degree = int(lines[2].split()[1])
        basis = tuple(lines[4].split()[1:])
        rules = {}
        gen_map = {}
        for line in lines[6:-1]:
            if line.startswith("rule "):
                head, expr = line[5:].split(" = ", 1)
                rules[head] = parse_by_term_loop(expr)
            elif line.startswith("gen "):
                head, expr = line[4:].split(" := ", 1)
                gen_map[head] = parse_generator_poly(expr)
            else:
                return None
    except (ValueError, IndexError, ZeroDivisionError):
        return None
    basis_set = set(basis)
    if set(gen_map) != basis_set:
        return None
    heads = basis_set.union(rules)
    if not set().union(*rules.values()) <= basis_set:
        return None
    if not heads or not all(len(w) == degree and in_h2(w)
                            and not w.strip("01") for w in heads):
        return None
    if not len(heads) == len(basis) + len(rules) == 2 ** (degree - 2):
        return None
    if any(monomial_weight(m) != degree
           for gp in gen_map.values() for m in gp):
        return None
    table = RewriteTable(degree, basis, rules, gen_map)
    # the new line names the basis words that are their own generator
    return table if lines[5] == "new " + " ".join(table.new_generators) \
        else None


_WRITTEN = {}


def written(n):
    """The writer's text of the default table of weight n."""
    if n not in _WRITTEN:
        st = TableStore(None)
        _WRITTEN[n] = _serialize(echelonize_degree(n, st), "depth")
    return _WRITTEN[n]


@st.composite
def mutated_tables(draw):
    """A written table with one to three rule lines mutated, and the
    checksum recomputed: an insert from _inserts or a deletion in a rule's
    expression, an insert in front of one of its terms or anywhere in the
    line, another rule's head, one of the line's words once more at its
    end, or a copy of the line before it (a later line of the same head
    overrides it)."""
    lines = written(draw(st.integers(3, 7))).splitlines()[:-1]
    rule_at = [i for i, line in enumerate(lines) if line.startswith("rule ")]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(rule_at))
        text = lines[i]
        head, sep, _ = text.partition(" = ")
        start = len(head + sep)
        kind = draw(st.sampled_from(
            ["insert", "delete", "term", "line", "head", "again", "copy"]))
        if kind == "again":
            words = re.findall("[01]+", text[start:]) or ["0"]
            text += draw(st.sampled_from([" + ", " - 2*"])) + \
                draw(st.sampled_from(words))
        elif kind == "copy":
            # the rule lines are contiguous, so they now reach one further
            lines.insert(i, text)
            rule_at.append(rule_at[-1] + 1)
        elif kind == "head":
            other = lines[draw(st.sampled_from(rule_at))].partition(" = ")[0]
            text = other + text[len(head):] if sep else text
        elif kind == "delete":
            pos = draw(st.integers(start, max(start, len(text) - 1)))
            text = text[:pos] + text[pos + 1:]
        else:
            if kind == "term":
                pos = draw(st.sampled_from(
                    [k for k in range(start, len(text)) if text[k].isdigit()
                     and text[k - 1] in " *"] or [start]))
            else:
                pos = draw(st.integers(start if kind == "insert" else 0,
                                       len(text)))
            text = text[:pos] + draw(_inserts) + text[pos:]
        lines[i] = text
    body = "\n".join(lines) + "\n"
    return body + f"checksum {hashlib.sha256(body.encode()).hexdigest()}\n"


def table_fields(table):
    if table is None:
        return None
    return (table.degree, table.basis_words, list(table.rules.items()),
            table.generator_map, table.new_generators)


@settings(max_examples=500, deadline=None)
@given(mutated_tables())
def test_the_lazy_loader_accepts_what_the_eager_one_accepted(text):
    got = _deserialize(text, "depth")
    if not text.isascii():
        # the one difference: text outside ASCII is a miss
        assert got is None
        return
    # every rule of an accepted table parses: its checks ran at load
    assert table_fields(got) == \
        table_fields(deserialize_eagerly(text, "depth")), text
