"""Persistent cache for rewrite tables.

One text file per degree, self-validating via a trailing sha256 line and
headed by the format and engine versions.  Files written by a different
engine version fail the header check and are treated as missing, so a version
bump silently forces recomputation.  Serialization is fully
deterministic: wiping the cache and rebuilding reproduces identical bytes.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
from contextlib import suppress
from fractions import Fraction
from pathlib import Path

from .engine import (
    ENGINE_VERSION,
    RewriteTable,
    format_generator_poly,
    monomial_weight,
    parse_generator_poly,
)
from .words import LinComb, _format_terms, in_h2, word_sort_key

__all__ = ["FORMAT_VERSION", "TableStore", "resolve_root"]

FORMAT_VERSION = "1"

_TERM = re.compile(r"\s*(?:([+-])\s*)?(?:(\d+)(?:/(\d+))?\*)?([01]+)")


def resolve_root(flag: str | None = None) -> Path:
    """Cache directory: explicit flag, then MZV_CACHE_DIR, then ./.mzv-cache."""
    if flag:
        return Path(flag)
    env = os.environ.get("MZV_CACHE_DIR")
    if env:
        return Path(env)
    return Path(".mzv-cache")


def _format_word_terms(p: LinComb) -> str:
    words = sorted(p.support(), key=word_sort_key)
    return _format_terms([(w, p[w]) for w in words])


def _parse_word_terms(text: str) -> LinComb:
    text = text.strip()
    if text == "0":
        return LinComb.zero()
    out: dict = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or (not first and m.group(1) is None):
            raise ValueError(f"bad rule expression at offset {pos}: {text!r}")
        sign, num, den, w = m.groups()
        num = int(num or 1)
        coeff = Fraction(-num if sign == "-" else num, int(den or 1))
        out[w] = out.get(w, 0) + coeff
        pos = m.end()
        first = False
    return LinComb._raw({w: v for w, v in out.items() if v})


def _serialize(table: RewriteTable) -> str:
    lines = [
        f"mzv-table {FORMAT_VERSION}",
        f"engine {ENGINE_VERSION}",
        f"degree {table.degree}",
        f"preference {table.preference}",
        "basis " + " ".join(table.basis_words),
        "new " + " ".join(table.new_generators),
    ]
    for w in sorted(table.rules, key=word_sort_key):
        lines.append(f"rule {w} = {_format_word_terms(table.rules[w])}")
    for b in table.basis_words:
        lines.append(f"gen {b} := {format_generator_poly(table.generator_map[b])}")
    body = "\n".join(lines) + "\n"
    digest = hashlib.sha256(body.encode()).hexdigest()
    return body + f"checksum {digest}\n"


def _deserialize(text: str) -> RewriteTable | None:
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
    # a body that passes the checksum can still be malformed, or speak of
    # another weight: treat it like a corrupt file, so it is rebuilt
    try:
        degree = int(lines[2].split()[1])
        preference = lines[3].split()[1]
        basis = tuple(lines[4].split()[1:])
        new = tuple(lines[5].split()[1:])
        rules: dict[str, LinComb] = {}
        gen_map: dict[str, LinComb] = {}
        for line in lines[6:-1]:
            if line.startswith("rule "):
                head, expr = line[5:].split(" = ", 1)
                rules[head] = _parse_word_terms(expr)
            elif line.startswith("gen "):
                head, expr = line[4:].split(" := ", 1)
                gen_map[head] = parse_generator_poly(expr)
            else:
                return None
    except (ValueError, IndexError, ZeroDivisionError):
        return None
    if set(gen_map) != set(basis) or not set(new) <= set(basis):
        return None
    # every word and every generator monomial has the file's weight (each
    # distinct word is checked once)
    words = set(basis).union(rules, *rules.values())
    if not all(len(w) == degree and in_h2(w) and not w.strip("01")
               for w in words):
        return None
    if any(monomial_weight(m) != degree
           for gp in gen_map.values() for m in gp):
        return None
    return RewriteTable(degree, basis, rules, gen_map, new, preference)


class TableStore:
    """Memory-backed table cache with an optional directory behind it."""

    def __init__(self, root=None):
        self.root = Path(root) if root is not None else None
        self._mem: dict[int, RewriteTable] = {}

    def _path(self, degree: int) -> Path:
        return self.root / f"degree-{degree:02d}.table"

    def get(self, degree: int):
        hit = self._mem.get(degree)
        if hit is not None:
            return hit
        if self.root is None:
            return None
        path = self._path(degree)
        try:
            text = path.read_text()
        except OSError:
            return None
        table = _deserialize(text)
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
            self._write(self._path(table.degree), _serialize(table))

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
