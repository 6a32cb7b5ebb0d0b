#!/usr/bin/env python3
"""Sensitivity self-test: show that the benchmark can fail.

Run from the repository root:

    python3 scanbench/selftest.py

It first checks that the metric names, units and directions the binary
reports (--schema) are exactly those BENCHMARK.json lists. Then it makes
three kinds of runs through scanbench/run.py:

1. cluster, unmodified: the baseline.
2. cluster with --inject-delay: every scheduler task sleeps for the delay
   (the fault package's deterministic straggler). primary_ms (dense pass)
   and secondary_ms (sparse pass) must both be worse than the baseline by
   more than their BENCHMARK.json bounds.
3. every workload with --wrong-reference: one reference answer is
   corrupted, so the run must report failed operations and correct=false.

The exit status is 0 when every expectation holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# DELAY is the injected per-task delay; it must push a dense and a sparse
# pass beyond their bounds without making a pass take minutes.
DELAY = "3ms"


def run(workload, *extra):
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", str(SPEC["run_seconds"]),
                 "--trace", "0", *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"selftest: {' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(lines[-1])


def schema_of(metrics):
    return [(m["name"], m["unit"], m["better"]) for m in metrics]


def main():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    ok = True

    def expect(cond, msg):
        nonlocal ok
        print(("PASS " if cond else "FAIL ") + msg)
        ok = ok and cond

    out = subprocess.run(RUN + ["--schema"], cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"selftest: --schema exited {out.returncode}:\n{out.stderr}")
    binary = json.loads(out.stdout)
    for kind in ("end_to_end", "per_layer"):
        want, got = schema_of(SPEC[kind]), schema_of(binary[kind])
        expect(want == got, f"{kind}: binary reports the {len(want)} metrics of BENCHMARK.json, "
                            f"in order, with the same units and directions"
               + ("" if want == got else f"; only in BENCHMARK.json: {sorted(set(want) - set(got))}, "
                                         f"only in the binary: {sorted(set(got) - set(want))}"))

    base = run("cluster")
    slow = run("cluster", "--inject-delay", DELAY)
    for name in ("primary_ms", "secondary_ms"):
        b, s = base["metrics"][name]["value"], slow["metrics"][name]["value"]
        limit = b * (1 + bounds[name])
        expect(s > limit, f"cluster {name} with +{DELAY}/task: {s:.1f} vs baseline "
                          f"{b:.1f} (regression limit {limit:.1f})")
    expect(base["correct"] and slow["correct"], "cluster answers stay correct under the delay")

    for workload in ("cluster", "serve", "serve-shard"):
        res = run(workload, "--wrong-reference")
        expect(res["failed"] > 0 and not res["correct"],
               f"{workload} with a wrong reference: failed={res['failed']} of "
               f"{res['attempted']}, correct={res['correct']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
