"""One benchmark session: a fresh interpreter that runs mzv commands in order.

    python3 session.py JOB.json LAUNCHED

run.py writes JOB.json and passes LAUNCHED, its time.monotonic() just before
starting this process, so set-up time counts from interpreter launch.  The
session imports mzv from the checkout's src, copies the staged tables into
its own cache directory, then calls mzv.cli.main(argv) for each command,
starting each when the previous one returns (a closed loop with one
client).  It writes its measurements next to the job file.

It also times a fixed piece of stdlib work (reference_work), REF_CALLS
calls at a time: before the first command, after the last, and between
commands whenever REF_EVERY_S of command time has passed since the last
block.  The host this runs on is shared and its speed drifts by half or
more for seconds at a time; run.py divides each command's time by the
reference time measured around it, in the same process, so that most of
that drift cancels while a change of the program does not (the reference
never calls mzv, and it runs with the garbage collector off so that mzv's
heap does not slow it).  NOTES.md says how well it cancels.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

REF_CALLS = 2
REF_EVERY_S = 1.0


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def reference_work() -> Fraction:
    """Fixed pure-Python work of the kinds mzv does: Fraction sums in a
    dict keyed by tuples, then printing and parsing them as text."""
    rows: dict = {}
    for i in range(1, 12000):
        key = (i % 61, i % 7)
        rows[key] = rows.get(key, Fraction(0)) + Fraction(i, 3 + i % 11)
    text = " ".join(f"{v.numerator}/{v.denominator}" for v in rows.values())
    return sum(Fraction(t) for t in text.split())


def _reference_block() -> float:
    """Mean time of REF_CALLS calls of reference_work."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(REF_CALLS):
            reference_work()
        return (time.perf_counter() - t0) / REF_CALLS
    finally:
        if gc_was_on:
            gc.enable()


def _stamp(path: Path):
    st = path.stat()
    return [st.st_ino, st.st_mtime_ns, st.st_size]


def main() -> None:
    job_path = Path(sys.argv[1])
    launched = float(sys.argv[2])
    job = json.loads(job_path.read_text())
    sys.path.insert(0, job["src"])
    import mzv.cli

    if not Path(mzv.cli.__file__).resolve().is_relative_to(job["src"]):
        raise SystemExit(f"mzv imported from {mzv.cli.__file__}, "
                         f"not from {job['src']}")
    cache_dir = Path(job["cache_dir"])
    cache_dir.mkdir(parents=True)
    staged = {}
    for name in job["stage_files"]:
        dst = cache_dir / name
        shutil.copy2(Path(job["stage_dir"]) / name, dst)
        staged[name] = _stamp(dst)

    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    setup_s = time.monotonic() - launched
    ref_s = [_reference_block()]
    since_ref = 0.0
    results = []
    for argv in job["commands"]:
        out, err = io.StringIO(), io.StringIO()
        cpu0 = _cpu()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = mzv.cli.main(["--cache-dir", str(cache_dir), *argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
        # ref: the reference block before this command; the next block in
        # ref_s is the one after it
        results.append({"exit": code, "seconds": dt, "cpu": _cpu() - cpu0,
                        "ref": len(ref_s) - 1, "stdout": out.getvalue(),
                        "stderr": err.getvalue()[-4000:]})
        since_ref += dt
        if since_ref >= REF_EVERY_S:
            ref_s.append(_reference_block())
            since_ref = 0.0
    if since_ref:
        ref_s.append(_reference_block())

    intact = all((cache_dir / name).exists()
                 and _stamp(cache_dir / name) == stamp
                 for name, stamp in staged.items())
    report = {
        "setup_s": setup_s,
        "wall_s": sum(r["seconds"] for r in results),
        "cpu_s": sum(r["cpu"] for r in results),
        "ref_s": ref_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "staged_intact": intact,
        "results": results,
    }
    if tracer is not None:
        report["trace"] = tracer.dump()
    tmp = job_path.with_name(job_path.name + ".out.tmp")
    tmp.write_text(json.dumps(report))
    os.replace(tmp, job_path.with_name(job_path.name + ".out"))


if __name__ == "__main__":
    main()
