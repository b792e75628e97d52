"""Spans around the calls into each mzv layer, recorded from outside.

Tracer.install() replaces the functions at the names their callers look up
(mzv.engine.rref rather than mzv.linalg.rref, because engine imported the
name), so a call made through any of those names opens a span.  A span is
[name, start, end, parent, info]; spans stay in memory and the session
writes them out once, at the end.  Work the tracer does for its own counters
is recorded as a "trace.bookkeeping" span, so it is not charged to the
caller's self time; module_self_times() shows it as the "trace" module.

layer_metrics() turns one session's dump into the per-layer metrics.  A
name the program no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

BOOKKEEPING = "trace.bookkeeping"


def _proc_io() -> tuple[int, int, int]:
    """(rchar, wchar, bytes this read itself added to rchar)."""
    fd = os.open("/proc/self/io", os.O_RDONLY)
    try:
        data = os.read(fd, 4096)
    finally:
        os.close(fd)
    fields = dict(line.split(": ") for line in data.decode().splitlines())
    return int(fields["rchar"]), int(fields["wchar"]), len(data)


def _max_bits(ech) -> int:
    best = 0
    for row in getattr(ech, "rows", ()):
        for v in row.values():
            best = max(best, v.numerator.bit_length(),
                       v.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []

    def _wrap(self, owner, attr: str, name: str, before=None, after=None):
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            pre = before(args) if before else None
            span = [name, 0.0, 0.0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                t = clock()
                span[4] = after(args, result, pre)
                spans.append([BOOKKEEPING, t, clock(), parent, None])
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        from mzv import cli, conjectures, engine, numeric, store

        def rref_info(args, ech, _):
            return {"unlabeled": getattr(args[0], "column_labels", 1) is None,
                    "bits": _max_bits(ech)}

        def system_info(args, m, _):
            return {"rows": len(m.rows),
                    "nnz": sum(len(r) for r in m.rows)}

        def io_before(args):
            return _proc_io()

        def read_info(args, result, pre):
            rchar = _proc_io()[0]
            return {"bytes": rchar - pre[0] - pre[2]}

        def write_info(args, result, pre):
            return {"bytes": _proc_io()[1] - pre[1]}

        def cache_before(args):
            cache = getattr(numeric, "_value_cache", None)
            comp = args[0] if args else None
            try:
                return cache.get(tuple(comp)) if cache is not None else None
            except TypeError:
                return None

        def numeric_info(args, result, hit):
            return {"computed": result is not hit}

        self._wrap(engine, "rref", "linalg.rref", after=rref_info)
        self._wrap(engine, "solve_for", "linalg.solve_for")
        for mod in (conjectures, cli):
            self._wrap(mod, "rank", "linalg.rank")
        for mod in (engine, conjectures):
            self._wrap(mod, "knt_system", "regularize.knt_system",
                       after=system_info)
        self._wrap(engine, "radford_decompose_poly", "lyndon.radford")
        self._wrap(engine, "echelonize_degree", "engine.echelonize")
        self._wrap(engine, "express_in_generators", "engine.express")
        self._wrap(engine, "check_polynomial_freeness", "engine.freeness")
        self._wrap(conjectures, "verify_zagier", "conjectures.verify_zagier")
        self._wrap(store.TableStore, "get", "store.get",
                   before=io_before, after=read_info)
        self._wrap(store.TableStore, "put", "store.put",
                   before=io_before, after=write_info)
        self._wrap(numeric, "mzv_numeric", "numeric.mzv_numeric",
                   before=cache_before, after=numeric_info)
        self._wrap(numeric, "identity_values", "numeric.identity_values")

    def dump(self) -> dict:
        import mzv.lyndon
        import mzv.words

        memos = {}
        for mod, attr, key in (
                (mzv.words, "_shuffle_memo", "words.shuffle_memo_entries"),
                (mzv.words, "_stuffle_memo", "words.stuffle_memo_entries"),
                (mzv.lyndon, "_radford_memo", "lyndon.radford_memo_entries"),
                (mzv.lyndon, "_expand_memo", "lyndon.expand_memo_entries")):
            memos[key] = len(getattr(mod, attr, ()))
        return {"spans": self.spans, "memos": memos, "missing": self.missing}


# ---------------------------------------------------------------------------
# metrics from a dump


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _outermost(spans: list, i: int) -> bool:
    name, p = spans[i][0], spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return False
        p = spans[p][3]
    return True


def layer_metrics(dump: dict) -> dict[str, float]:
    spans = dump["spans"]
    selfs = self_times(spans)
    total = defaultdict(float)      # inclusive, outermost spans of a name
    own = defaultdict(float)        # self time
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        calls[s[0]] += 1
        own[s[0]] += selfs[i]
        if _outermost(spans, i):
            total[s[0]] += s[2] - s[1]

    def info(name):
        return [s[4] or {} for s in spans if s[0] == name]

    resolve = sum(s[2] - s[1] for s in spans
                  if s[0] == "linalg.rref" and (s[4] or {}).get("unlabeled")
                  and s[3] >= 0 and spans[s[3]][0] == "engine.echelonize")
    reads = info("store.get")
    m = {
        "linalg.rref_s": total["linalg.rref"],
        "linalg.rref_calls": calls["linalg.rref"],
        "linalg.rref_resolve_s": resolve,
        "linalg.max_coeff_bits": max(
            [i.get("bits", 0) for i in info("linalg.rref")], default=0),
        "linalg.solve_for_s": total["linalg.solve_for"],
        "linalg.rank_s": total["linalg.rank"],
        "linalg.rank_calls": calls["linalg.rank"],
        "lyndon.radford_s": total["lyndon.radford"],
        "lyndon.radford_calls": calls["lyndon.radford"],
        "engine.echelonize_self_s": own["engine.echelonize"],
        "engine.freeness_self_s": own["engine.freeness"],
        "engine.express_s": total["engine.express"],
        "engine.express_calls": calls["engine.express"],
        "regularize.knt_system_s": total["regularize.knt_system"],
        "regularize.knt_system_calls": calls["regularize.knt_system"],
        "regularize.rows": sum(i.get("rows", 0)
                               for i in info("regularize.knt_system")),
        "regularize.nnz": sum(i.get("nnz", 0)
                              for i in info("regularize.knt_system")),
        "store.get_s": total["store.get"],
        "store.get_calls": calls["store.get"],
        "store.disk_reads": sum(1 for i in reads if i.get("bytes", 0) > 0),
        "store.bytes_read": sum(i.get("bytes", 0) for i in reads),
        "store.put_s": total["store.put"],
        "store.put_calls": calls["store.put"],
        "store.bytes_written": sum(i.get("bytes", 0)
                                   for i in info("store.put")),
        "numeric.mzv_numeric_s": total["numeric.mzv_numeric"],
        "numeric.mzv_numeric_calls": calls["numeric.mzv_numeric"],
        "numeric.values_computed": sum(
            1 for i in info("numeric.mzv_numeric") if i.get("computed")),
        "numeric.identity_values_s": total["numeric.identity_values"],
        "conjectures.verify_zagier_s": total["conjectures.verify_zagier"],
    }
    m.update(dump["memos"])
    return m


def module_self_times(dump: dict) -> dict[str, float]:
    """Self time per module (the part of a span name before the dot)."""
    out = defaultdict(float)
    for s, t in zip(dump["spans"], self_times(dump["spans"])):
        out[s[0].split(".")[0]] += t
    return dict(out)
