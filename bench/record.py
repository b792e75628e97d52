"""Record expected.json: the outputs the benchmark checks against.

    python3 bench/record.py

Run from the root of a checkout whose outputs are trusted.  Commands run as
benchmark sessions (run.Runner, on tables from run.stage_tables), the same
path run.py checks them on.  It records

  * tables: sha256 of every degree-NN.table from `cache --rebuild --degree
    12` (the cache promises byte-identical rebuilds);
  * rewrite: a digest of `rewrite <comp>` stdout for every admissible
    composition of weight 5..12, so every lookup seed is checked;
  * refs: 50-digit values of every composition the oracle can touch,
    evaluated with a target error of 1e-45 (test_bench.py cross-checks them
    against mpmath.zeta, stuffle products and duality);
  * default_seed_stdout: per-command stdout digests of the default seed for
    the workloads whose text must not change (lookup: its first 16
    sessions; structure repeats one session).
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import checks
import inputs
import run

sys.path.insert(0, str(run.SRC))

from mpmath import mp  # noqa: E402

from mzv import numeric  # noqa: E402

REF_TARGET = 1e-45
REF_DIGITS = 50
DEFAULT_SEED_SESSIONS = 16
# commands per session, so that each session ends within a run's deadline
CHUNK = 200


def _stdout_digests(runner: run.Runner, cmds: list, stage, degrees) -> list:
    files = [f"degree-{n:02d}.table" for n in degrees]
    digests = []
    for i in range(0, len(cmds), CHUNK):
        chunk = cmds[i:i + CHUNK]
        runner.started = time.monotonic()
        report, why = runner.session([c.argv for c in chunk], stage, files)
        if report is None:
            raise SystemExit(why)
        if not report["staged_intact"]:
            raise SystemExit("a staged table was rewritten or went missing")
        for cmd, res in zip(chunk, report["results"]):
            if res["exit"] != cmd.expect_exit:
                raise SystemExit(f"{cmd.argv} exited {res['exit']}")
            text = res["stdout"].replace(str(report["cache_dir"]),
                                         "<cache-dir>")
            digests.append(checks.digest(text))
        shutil.rmtree(report["dir"])
    return digests


def main() -> None:
    work = run.WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = run.Runner(work, time.monotonic())
    stage, why = run.stage_tables(runner)
    if stage is None:
        raise SystemExit(why)
    expected = {"tables": checks.table_digests(stage)}
    every_degree = run.STAGE_DEGREES["lookup"]

    rewrite = {}
    for w in inputs.LOOKUP_MIX:
        cmds = [inputs.Command(["rewrite", ",".join(map(str, c))], "rewrite",
                               comp=c, weight=w)
                for c in inputs.compositions(w)]
        digests = _stdout_digests(runner, cmds, stage, every_degree)
        rewrite.update((c.argv[1], d) for c, d in zip(cmds, digests))
        print(f"rewrite weight {w}: {len(rewrite)} digests", flush=True)
    expected["rewrite"] = rewrite

    refs = {}
    for c in inputs.oracle_pool():
        nv = numeric.mzv_numeric(c, REF_TARGET)
        if nv.abs_error_bound > REF_TARGET:
            raise SystemExit(f"reference for {c} missed its target")
        refs[",".join(map(str, c))] = mp.nstr(nv.value, REF_DIGITS)
    print(f"{len(refs)} references", flush=True)
    expected["refs"] = refs

    seed = run.DEFAULT_SEED
    expected["default_seed_stdout"] = {
        "structure": [_stdout_digests(runner, inputs.structure_commands(),
                                      stage, run.STAGE_DEGREES["structure"])],
        "lookup": [_stdout_digests(runner, inputs.lookup_commands(seed, k),
                                   stage, every_degree)
                   for k in range(DEFAULT_SEED_SESSIONS)],
    }
    out = run.BENCH / "expected.json"
    out.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
