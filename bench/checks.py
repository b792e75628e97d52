"""Output checks: each returns None for a correct command, else the reason.

Expected data comes from expected.json (recorded with record.py) and from
the benchmark's own arithmetic: the dimension recurrence, the {2,3} Lyndon
count, mpmath.zeta for depth-1 values, and identities that are true or
false by construction (inputs.py).
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

from mpmath import mp, mpf, zeta

import inputs

_NUMERIC = re.compile(r"^z\(([\d,]+)\) = (\S+) ± (\S+)\n$")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def table_digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.glob("degree-*.table"))}


def recurrence_dims(n: int) -> list[int]:
    d = [1, 0, 1, 1]
    while len(d) <= n:
        d.append(d[-2] + d[-3])
    return d


def lyndon_23_count(p: int) -> int:
    """Lyndon words over the letters 2 < 3 whose letters sum to p."""
    count = 0

    def rec(rem: int, word: tuple) -> None:
        nonlocal count
        if rem == 0:
            if all(word < word[i:] + word[:i] for i in range(1, len(word))):
                count += 1
            return
        for a in (2, 3):
            if a <= rem:
                rec(rem - a, word + (a,))

    rec(p, ())
    return count


class Checker:
    def __init__(self, expected: dict):
        self.expected = expected

    def check(self, cmd: inputs.Command, res: dict, cache_dir: Path,
              want_digest: str | None = None) -> str | None:
        """want_digest: the recorded stdout digest, for the default seed."""
        if res["exit"] != cmd.expect_exit:
            tail = res["stderr"].strip().splitlines()[-1:] or [""]
            return f"exit {res['exit']}, expected {cmd.expect_exit} {tail[0]}"
        out = res["stdout"]
        reason = getattr(self, "_" + cmd.kind)(cmd, out, cache_dir)
        if reason is None and want_digest is not None:
            text = out.replace(str(cache_dir), "<cache-dir>")
            if digest(text) != want_digest:
                reason = "stdout differs from the recorded default-seed output"
        return reason

    def _cache_rebuild(self, cmd, out, cache_dir):
        n = inputs.BUILD_DEGREE
        want = f"rebuilt {n - 1} table file(s) under {cache_dir}\n"
        if out != want:
            return f"unexpected output {out!r}"
        recorded = {f"degree-{k:02d}.table": self.expected["tables"][
            f"degree-{k:02d}.table"] for k in range(2, n + 1)}
        if table_digests(cache_dir) != recorded:
            return "table files differ from the recorded digests"
        return None

    def _freeness(self, cmd, out, cache_dir):
        n = inputs.STRUCTURE_DEGREE
        head = f"degree {n}: PASS, {lyndon_23_count(n)} new generator(s)"
        if not out.startswith(head):
            return f"expected {head!r}, got {out!r}"
        return None

    def _dims(self, cmd, out, cache_dir):
        n_max = inputs.STRUCTURE_DEGREE
        d = recurrence_dims(n_max)
        rows = out.splitlines()[1:]
        if len(rows) != n_max - 2:
            return f"{len(rows)} dims rows, expected {n_max - 2}"
        for n, line in zip(range(3, n_max + 1), rows):
            words = 2 ** (n - 2)
            want = [str(n), str(words), str(words - d[n]), str(d[n]),
                    str(d[n]), "yes"]
            if line.split() != want:
                return f"dims row {line!r}, expected {' '.join(want)}"
        return None

    def _rewrite(self, cmd, out, cache_dir):
        key = ",".join(map(str, cmd.comp))
        if digest(out) != self.expected["rewrite"][key]:
            return f"rewrite {key} printed {out.strip()!r}"
        return None

    def _verify_symbolic(self, cmd, out, cache_dir):
        head = "symbolic: PASS\n" if cmd.expect_exit == 0 else \
            "symbolic: FAIL  residual = "
        if not out.startswith(head):
            return f"verdict {out.strip()!r}"
        return None

    def _verify_numeric(self, cmd, out, cache_dir):
        head = "numeric: PASS" if cmd.expect_exit == 0 else "numeric: FAIL"
        if not out.startswith(head):
            return f"verdict {out.strip()!r}"
        return None

    def _numeric(self, cmd, out, cache_dir):
        m = _NUMERIC.match(out)
        key = ",".join(map(str, cmd.comp))
        if m is None or m.group(1) != key:
            return f"unparsed output {out!r}"
        with mp.workdps(60):
            value, bound = mpf(m.group(2)), mpf(m.group(3))
            ref = mpf(self.expected["refs"][key])
            tol = mpf(cmd.tol)
            if bound > tol:
                return f"reported bound {m.group(3)} above tol {cmd.tol:g}"
            if abs(value - ref) > tol:
                return (f"value off the reference by "
                        f"{mp.nstr(abs(value - ref), 3)} > tol {cmd.tol:g}")
            if len(cmd.comp) == 1 and abs(value - zeta(cmd.comp[0])) > tol:
                return "value off mpmath.zeta by more than tol"
        return None
