"""End-to-end benchmark of the mzv command line.

    python3 bench/run.py --workload lookup --seed 3 --seconds 20 --trace 0

Run from the root of a checkout.  A workload is a closed-loop session with
one client: a fresh interpreter (session.py) sends a seeded sequence of mzv
commands through mzv.cli.main(argv), each after the previous one returned.
A run holds a fixed number of sessions, set by --seconds, and timings are
medians over them, each command's time scaled by the host's pace measured
around it (see session.py).  Every output is checked (checks.py); a wrong
one counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones from spans around each mzv layer (tracing.py), alternating
traced and untraced sessions so the tracing overhead is measured too.
--workload all runs the four workloads in turn.  The last line of output is
one JSON object; the lines before it are for people.  NOTES.md explains the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".mzvbench"

WORKLOADS = ("cold_build", "structure", "lookup", "oracle")
DEFAULT_SEED = 1
SETUP_PROBES = 3
# Sessions in a run of --seconds 20, scaled for other lengths.  The count is
# fixed, so the commands a run attempts, and which of them fail, depend only
# on the seed and --seconds, not on how fast the host was.  At the commit
# that added the benchmark such a run takes 20-30 s on a 2-core shared Xeon
# VM.
SESSIONS_PER_20S = {"cold_build": 8, "structure": 8, "lookup": 8,
                    "oracle": 4}
MIN_SESSIONS = 3
# session.reference_work() takes about this long on a quiet core of that
# VM; a session's pace is REF_S over its mean reference time.
REF_S = 0.05
RUN_DEADLINE_S = 170        # a run must end within 180 s
STAGE_DEGREES = {"structure": range(2, inputs.STRUCTURE_DEGREE + 1),
                 "lookup": range(2, inputs.CACHE_DEGREE + 1)}


def log(msg: str = "") -> None:
    print(msg, flush=True)


def _env() -> dict:
    env = dict(os.environ)
    for var in ("MZV_CACHE_DIR", "PYTHONPATH", "PYTHONHOME",
                "PYTHONDONTWRITEBYTECODE"):
        env.pop(var, None)
    return env


class Runner:
    """Launches sessions for one benchmark invocation."""

    def __init__(self, run_dir: Path, started: float):
        self.run_dir = run_dir
        self.started = started
        self.count = 0

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def session(self, commands: list, stage_dir: Path | None = None,
                stage_files=(), trace: bool = False
                ) -> tuple[dict | None, str]:
        """(report, "") or (None, reason); the report also carries the
        session's directory and cache directory."""
        self.count += 1
        sdir = self.run_dir / f"s{self.count:03d}"
        sdir.mkdir()
        job = {"src": str(SRC.resolve()),
               "cache_dir": str(sdir / "cache"),
               "stage_dir": str(stage_dir or ""),
               "stage_files": list(stage_files), "trace": trace,
               "commands": commands}
        job_path = sdir / "job.json"
        job_path.write_text(json.dumps(job))
        timeout = self.remaining()
        if timeout < 1:
            return None, "no time left before the run deadline"
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "session.py"), str(job_path),
                 repr(t0)], cwd=sdir, env=_env(), capture_output=True,
                text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"session timed out after {timeout:.0f} s"
        out = job_path.with_name("job.json.out")
        if proc.returncode != 0 or not out.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            return None, (f"session exited {proc.returncode}: "
                          + " | ".join(tail))
        report = json.loads(out.read_text())
        report["dir"] = sdir
        report["cache_dir"] = Path(job["cache_dir"])
        return report, ""


def _normalize(report: dict) -> None:
    """Scale each command's time by the pace around it: REF_S over the mean
    of the reference blocks just before and just after it."""
    refs = report["ref_s"]
    for res in report["results"]:
        local = (refs[res["ref"]] + refs[res["ref"] + 1]) / 2
        res["norm_s"] = res["seconds"] * REF_S / local
    report["norm_wall_s"] = sum(r["norm_s"] for r in report["results"])
    report["pace"] = REF_S / statistics.fmean(refs)


def session_count(workload: str, seconds: float) -> int:
    return max(MIN_SESSIONS,
               round(SESSIONS_PER_20S[workload] * seconds / 20))


def _src_key() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "mzv").rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def stage_tables(runner: Runner) -> tuple[Path | None, str]:
    """Tables 2..12 built by the code under test, kept per source digest so
    later runs in this checkout copy them instead of rebuilding.  Returns
    (directory, "") or (None, the reason staging failed)."""
    stage = WORK / f"stage-{_src_key()}"
    if not stage.exists():
        t0 = time.monotonic()
        report, why = runner.session(
            [["cache", "--rebuild", "--degree", str(inputs.CACHE_DEGREE)]])
        if report is None:
            return None, "staging failed: " + why
        if report["results"][0]["exit"] != 0:
            return None, "staging rebuild exited " + \
                str(report["results"][0]["exit"])
        os.replace(report["cache_dir"], stage)
        log(f"staged tables 2..{inputs.CACHE_DEGREE} in "
            f"{time.monotonic() - t0:.2f} s ({stage.name})")
    return stage, ""


def _commands(workload: str, seed: int, session: int, expected: dict) -> list:
    if workload == "cold_build":
        return inputs.cold_build_commands()
    if workload == "structure":
        return inputs.structure_commands()
    if workload == "lookup":
        return inputs.lookup_commands(seed, session)
    return inputs.oracle_commands(seed, expected["refs"], session)


def _pct(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _machine() -> str:
    import mpmath
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"python {platform.python_version()}, "
            f"mpmath {mpmath.__version__}, nproc {os.cpu_count()}, "
            f"cpu {model}, load {load}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict, expected: dict) -> dict:
    started = time.monotonic()
    run_dir = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _run(Runner(run_dir, started), workload, seed, seconds, trace,
                    spec, expected)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(runner: Runner, workload: str, seed: int, seconds: float,
         trace: bool, spec: dict, expected: dict) -> dict:
    log(f"== {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    log(f"machine at start: {_machine()}")
    problems: list[str] = []
    stage_dir, stage_files = None, []
    if workload in STAGE_DEGREES:
        stage_dir, why = stage_tables(runner)
        if why:
            problems.append(why)
        elif checks.table_digests(stage_dir) != expected["tables"]:
            problems.append("staged tables differ from the recorded digests")
        stage_files = [f"degree-{n:02d}.table"
                       for n in STAGE_DEGREES[workload]]
    # recorded stdout digests of the default seed, one list per session
    default = expected["default_seed_stdout"].get(workload, []) \
        if seed == DEFAULT_SEED else []
    checker = checks.Checker(expected)
    reasons: list[str] = []

    can_run = stage_dir is not None or workload not in STAGE_DEGREES
    setups: list[float] = []
    for _ in range(SETUP_PROBES if can_run and not trace else 0):
        report, why = runner.session([], stage_dir, stage_files)
        if report is None:
            problems.append("setup probe: " + why)
            can_run = False
            break
        setups.append(report["setup_s"] * REF_S / report["ref_s"][0])

    n = session_count(workload, seconds)
    # a traced run measures each sequence once untraced, once traced
    plan = [(k // 2, k % 2 == 1) for k in range(2 * max(1, n // 2))] \
        if trace else [(k, False) for k in range(n)]
    sessions: list[dict] = []
    for k, traced in plan if can_run else ():
        cmds = _commands(workload, seed, k, expected)
        report, why = runner.session([c.argv for c in cmds], stage_dir,
                                     stage_files, traced)
        if report is None:
            problems.append(why)
            break
        report["traced"] = traced
        report["commands"] = cmds
        _normalize(report)
        # structure runs the same commands in every session
        j = 0 if workload == "structure" else k
        report["digests"] = default[j] if j < len(default) else None
        sessions.append(report)

    attempted = failed = 0
    for s in sessions:
        for i, (cmd, res) in enumerate(zip(s["commands"], s["results"])):
            attempted += 1
            why = "staged table rewritten or missing" \
                if not s["staged_intact"] else \
                checker.check(cmd, res, s["cache_dir"],
                              s["digests"] and s["digests"][i])
            if why:
                failed += 1
                reasons.append(f"{' '.join(cmd.argv)[:90]}: {why}")
        shutil.rmtree(s["dir"], ignore_errors=True)
    if attempted == 0:
        # no session ran: report one failed attempt (attempted must be >= 1)
        attempted = failed = 1
    for r in reasons[:5]:
        log(f"FAILED {r}")
    if len(reasons) > 5:
        log(f"... {len(reasons) - 5} more failures")
    for p in problems:
        log(f"PROBLEM {p}")

    plain = [s for s in sessions if not s["traced"]]
    traced = [s for s in sessions if s["traced"]]
    if trace:
        values = _layer_values(plain, traced)
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = _end_to_end(plain, setups, attempted, failed,
                             {m["name"]: m["unit"] for m in wanted})
    log(f"machine at end: {_machine()}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                    "unit": m["unit"]} for m in wanted}}


def _end_to_end(plain: list, setups: list, attempted: int, failed: int,
                units: dict) -> dict:
    """The metrics of BENCHMARK.json, plus the raw timings and the failed
    share, which are printed but not reported.  Every timing is a median
    over sessions: of a session's wall time, or of a latency percentile
    taken within each session."""
    setups = setups + [s["setup_s"] * REF_S / s["ref_s"][0] for s in plain]
    ok = attempted - failed

    def med(fn):
        return statistics.median(fn(s) for s in plain) if plain else 0.0

    def pct(key, q):
        return med(lambda s: 1000 * _pct([r[key] for r in s["results"]], q))

    def per_s(key):
        wall = med(lambda s: s[key])
        return ok / (len(plain) * wall) if wall else 0.0

    values = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "norm_wall_s": med(lambda s: s["norm_wall_s"]),
        "peak_rss_mb": med(lambda s: s["peak_rss_mb"]),
        "norm_ops_per_s": per_s("norm_wall_s"),
        "norm_op_p50_ms": pct("norm_s", 50),
        "norm_op_p95_ms": pct("norm_s", 95),
    }
    printed = {
        "wall_s": (med(lambda s: s["wall_s"]), "s"),
        "cpu_s": (med(lambda s: s["cpu_s"]), "s"),
        "ops_per_s": (per_s("wall_s"), "1/s"),
        "op_p50_ms": (pct("seconds", 50), "ms"),
        "op_p95_ms": (pct("seconds", 95), "ms"),
        "pace": (med(lambda s: s["pace"]), "ratio"),
    }
    n_s = len(plain)
    n_c = sum(len(s["results"]) for s in plain)
    log(f"sessions {n_s}, commands {n_c}, setup samples {len(setups)} "
        f"({SETUP_PROBES} probes)")
    log("reported (norm_: each command's time times REF_S / the reference "
        "time around it):")
    for name, v in values.items():
        n = len(setups) if name == "setup_s" else n_s
        log(f"  {name:<15} {v:>12.6g} {units[name]:<6} n={n} sessions")
    log(f"printed only (raw timings; pace = {REF_S} s / a session's mean "
        "reference time):")
    for name, (v, unit) in printed.items():
        log(f"  {name:<15} {v:>12.6g} {unit:<6} n={n_s} sessions")
    log(f"  {'failed_share':<15} {failed / attempted:>12.6g} ratio  "
        f"n={attempted} commands ({failed} failed)")
    return values


def _layer_values(plain: list, traced: list) -> dict:
    per = [tracing.layer_metrics(s["trace"]) for s in traced]
    values = {k: statistics.median(p[k] for p in per) for k in per[0]} \
        if per else {}

    def wall(group):
        return statistics.median(s["norm_wall_s"] for s in group) \
            if group else 0.0

    wall_t, wall_p = wall(traced), wall(plain)
    values["trace.overhead_s"] = wall_t - wall_p
    log(f"sessions {len(plain)} untraced, {len(traced)} traced; norm_wall_s "
        f"traced {wall_t:.4g} s, untraced {wall_p:.4g} s")
    if traced:
        selfs = tracing.module_self_times(traced[0]["trace"])
        covered = sum(selfs.values())
        selfs["(untraced code)"] = traced[0]["wall_s"] - covered
        log("self time by module, first traced session:")
        for mod, t in sorted(selfs.items(), key=lambda kv: -kv[1]):
            log(f"  {mod:<18} {t:>10.4f} s  {t / traced[0]['wall_s']:6.1%}")
        missing = traced[0]["trace"]["missing"]
        if missing:
            log(f"not traced (absent from the program): {missing}")
    # span times are raw, so their shares are of the raw traced wall time
    raw_t = statistics.median(s["wall_s"] for s in traced) if traced else 0
    for k in sorted(values):
        share = f"{values[k] / raw_t:7.1%} of traced wall" \
            if k.endswith("_s") and raw_t and k != "trace.overhead_s" else ""
        log(f"  {k:<30} {values[k]:>14.6g}  {share}")
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mzv" / "cli.py").is_file():
        print(f"error: no mzv sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "expected.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), spec, expected)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
