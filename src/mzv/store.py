"""Persistent cache for rewrite tables.

One text file per degree, self-validating via a trailing sha256 line.  Its
six header lines must be the writer's (`_header`) for the table it holds, so
a version bump silently forces recomputation, and the `new` line names
exactly the basis words whose `gen` line is their own one-factor monomial.
Serialization is fully deterministic: wiping the cache and rebuilding
reproduces identical bytes.

A rule line reads `rule <word> = <expression>`, the expression a signed sum
of one or more words, each with an optional coefficient `n*` or `n/d*`.  The
sign may be left out before the first term only.  The writer never emits a
zero coefficient or a word twice in one rule, so the reader takes either for
a malformed rule.  No table holds a zero rule, since every MZV is positive:
a rule with no terms, empty or `0`, is malformed too.

The load is the only validator: it checks every line, but builds no
Fraction.  Each rule's expression is split at its terms once, by a grammar
whose numerators and denominators are nonzero; that split both checks the
grammar and yields the words, so a rule with no terms, a zero coefficient,
a repeated word or a term that is no basis word is found at load.  A loaded
table keeps each rule's expression text by its head word and parses it
into a LinComb on first read, walking the same grammar without checking
again; its coefficients become Fractions, memoized by their text for the
table.  A command that reads one rule of a table, or only counts them,
parses one rule or none.

A load returns None, a miss that the engine rebuilds, for a file that:
- cannot be read or decoded as text, or holds a character outside ASCII
  (the writer emits ASCII only);
- has a bad checksum;
- does not parse: a bad line, expression or generator polynomial, a rule
  with no terms, a zero denominator, a zero coefficient or a repeated word
  in one rule;
- has a header other than the writer's for the table it holds: another
  format or engine version, another order than the store's, a wrong
  keyword, or a `new` line that disagrees with the `gen` lines;
- speaks of another weight: a word or a generator monomial whose weight is
  not the file's, or a file name of another degree;
- has generator lines for other words than the basis;
- does not cover its weight: a rule term that is not a basis word, a word
  that is both a rule head and a basis word, or rule heads and basis words
  that are not all 2**(degree-2) words of the weight.
"""

from __future__ import annotations

import functools
import hashlib
import os
import re
import tempfile
from collections.abc import Mapping
from contextlib import suppress
from fractions import Fraction
from pathlib import Path

from .engine import (
    ENGINE_VERSION,
    PREFERENCES,
    RewriteTable,
    format_generator_poly,
    monomial_weight,
    parse_generator_poly,
)
from .words import LinComb, format_word_poly, in_h2, word_sort_key

__all__ = ["FORMAT_VERSION", "TableStore", "resolve_root"]

FORMAT_VERSION = "1"


@functools.cache
def _grammar():
    """The rule grammars (line, words), compiled on first use rather than
    at import.

    line splits a rule line into its head and its expression.  An
    expression is a first term, its sign optional, then signed terms, each
    an optional coefficient n* or n/d* and a word.  words matches one term
    of the ASCII text of a load, capturing its word, and takes only nonzero
    numerators and denominators.  Splitting an expression at its terms
    leaves nothing before, between or after them exactly when it is well
    formed, so a zero one is left over between terms.
    """
    nonzero = "0*[1-9][0-9]*"
    return (
        re.compile(r"rule ([01]+) = (.*)"),
        re.compile(rf"(?:^(?:[+-]\s*)?|\s*[+-]\s*)"
                   rf"(?:{nonzero}(?:/{nonzero})?\*)?([01]+)"),
    )


def resolve_root(flag: str | None = None) -> Path:
    """Cache directory: explicit flag, then MZV_CACHE_DIR, then ./.mzv-cache."""
    if flag:
        return Path(flag)
    env = os.environ.get("MZV_CACHE_DIR")
    if env:
        return Path(env)
    return Path(".mzv-cache")


def _parse_word_terms(text: str, coeffs: dict) -> LinComb:
    """Parse a rule expression that a load has checked.  coeffs memoizes
    coefficient values by their text, from the start of a term to its word,
    sign and spaces included."""
    out = {}
    for m in _grammar()[1].finditer(text):
        key = text[m.start():m.start(1)]
        c = coeffs.get(key)
        if c is None:
            n = "".join(key.split()).rstrip("*")  # "", "-", "3/4", "-3", ...
            c = coeffs[key] = Fraction(n if n[-1:].isdigit() else n + "1")
        out[m[1]] = c
    return LinComb._raw(out)


class _Rules(Mapping):
    """A loaded table's rules: each rule's expression text by its head word,
    parsed into a LinComb on first read and kept.  A count, an iteration or
    a membership test parses none."""

    __slots__ = ("_rules", "_coeffs")

    def __init__(self, texts: dict[str, str]):
        self._rules: dict[str, str | LinComb] = texts
        self._coeffs: dict[str, Fraction] = {}

    def __getitem__(self, w):
        r = self._rules[w]
        if isinstance(r, str):
            r = self._rules[w] = _parse_word_terms(r, self._coeffs)
        return r

    def __contains__(self, w):
        return w in self._rules

    def __iter__(self):
        return iter(self._rules)

    def __len__(self):
        return len(self._rules)


def _header(table: RewriteTable, preference: str) -> list[str]:
    """The six header lines the writer puts before the rules."""
    return [
        f"mzv-table {FORMAT_VERSION}",
        f"engine {ENGINE_VERSION}",
        f"degree {table.degree}",
        f"preference {preference}",
        "basis " + " ".join(table.basis_words),
        "new " + " ".join(table.new_generators),
    ]


def _serialize(table: RewriteTable, preference: str) -> str:
    lines = _header(table, preference)
    for w in sorted(table.rules, key=word_sort_key):
        lines.append(f"rule {w} = {format_word_poly(table.rules[w])}")
    for b in table.basis_words:
        lines.append(f"gen {b} := {format_generator_poly(table.generator_map[b])}")
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    return body + f"checksum {digest}\n"


def _deserialize(text: str, preference: str) -> RewriteTable | None:
    if not text.isascii():
        return None
    lines = text.splitlines()
    if len(lines) < 7 or not lines[-1].startswith("checksum "):
        return None
    body = "\n".join(lines[:-1]) + "\n"
    if hashlib.sha256(body.encode()).hexdigest() != lines[-1].split()[1]:
        return None
    # a body that passes the checksum can still be malformed, or speak of
    # another weight: treat it like a corrupt file, so it is rebuilt
    rule_line, rule_words = _grammar()
    match_rule, split_terms = rule_line.fullmatch, rule_words.split
    try:
        degree = int(lines[2].split()[1])
        basis = tuple(lines[4].split()[1:])
        rules: dict[str, str] = {}
        terms: dict[str, set[str]] = {}
        gen_map: dict[str, LinComb] = {}
        for line in lines[6:-1]:
            m = match_rule(line)
            if m is not None:
                head, expr = m.groups()
                expr = expr.strip()
                parts = split_terms(expr)
                words = parts[1::2]
                if not words or any(parts[::2]):
                    return None
                terms[head] = found = set(words)
                if len(found) < len(words):
                    return None
                rules[head] = expr
            elif line.startswith("gen "):
                head, expr = line[4:].split(" := ", 1)
                gen_map[head] = parse_generator_poly(expr)
            else:
                return None
    except (ValueError, IndexError):
        return None
    basis_set = set(basis)
    if set(gen_map) != basis_set:
        return None
    # the rules and the basis cover the weight's words: every rule term is
    # a basis word, and the rule heads and the basis words are distinct H2
    # words of the file's weight, 2**(degree-2) of them in all (the length
    # test comes first, so degree is at most a line's length)
    heads = basis_set.union(rules)
    if not set().union(*terms.values()) <= basis_set:
        return None
    if not heads or not all(len(w) == degree and in_h2(w)
                            and not w.strip("01") for w in heads):
        return None
    if not len(heads) == len(basis) + len(rules) == 2 ** (degree - 2):
        return None
    if any(monomial_weight(m) != degree
           for gp in gen_map.values() for m in gp):
        return None
    table = RewriteTable(degree, basis, _Rules(rules), gen_map)
    # the versions, the order and the new generators are the writer's
    return table if lines[:6] == _header(table, preference) else None


class TableStore:
    """Memory-backed table cache with an optional directory behind it,
    holding tables of one basis preference order (a key of PREFERENCES).
    The file names do not carry the order, so a directory holds "depth"."""

    def __init__(self, root=None, preference: str = "depth"):
        if preference not in PREFERENCES:
            raise ValueError(f"unknown preference order {preference!r}")
        if root is not None and preference != "depth":
            raise ValueError(f"{preference!r} tables are kept in memory "
                             "only; a cache directory holds the default order")
        self.root = Path(root) if root is not None else None
        self.preference = preference
        self._mem: dict[int, RewriteTable] = {}

    def path(self, degree: int) -> Path:
        return self.root / f"degree-{degree:02d}.table"

    def get(self, degree: int):
        hit = self._mem.get(degree)
        if hit is not None:
            return hit
        if self.root is None:
            return None
        path = self.path(degree)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError):
            return None
        table = _deserialize(text, self.preference)
        if table is not None and table.degree == degree:
            self._mem[degree] = table
            return table
        return None

    def put(self, table: RewriteTable) -> None:
        self._mem[table.degree] = table
        if self.root is None:
            return
        # a failed write is not fatal: the table stays in memory
        with suppress(OSError):
            self.root.mkdir(parents=True, exist_ok=True)
            self._write(self.path(table.degree),
                        _serialize(table, self.preference))

    def wipe(self) -> None:
        self._mem.clear()
        if self.root is None or not self.root.exists():
            return
        for p in self.root.glob("degree-*.table"):
            p.unlink()

    @staticmethod
    def _write(path: Path, text: str) -> None:
        # a private temp file per writer, swapped in atomically
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
