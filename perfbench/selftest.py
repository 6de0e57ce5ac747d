#!/usr/bin/env python3
"""Tiny-scale self-test of the workload benchmark.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark at tiny scale
(--scale tiny: a few thousand particles, 8-64 ranks, 2-5 steps), untraced
and traced, and checks that
  - the last output line is the result object with exactly the keys
    correct, attempted, failed, metrics;
  - every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is printed, with its unit and a finite value, and no
    other metric;
  - every correctness check passed (fail_frac = 0);
  - the untraced and the traced run report the same state checksum, and it
    equals the value pinned below: any change to the simulated dynamics or
    to the data a redistribution delivers shows up here.
It also checks that a set FCS_* variable makes the benchmark refuse to run.
Exits 0 when everything holds.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

# Rank-summed final state checksum of each workload at tiny scale, seed 11.
PINNED = {
    "fmm-restore-dense": "0x9646429c5cbe1c7c",
    "pm-torus-neighbor": "0x3700425b0ded34c4",
    "pm-resort-ckpt": "0x201e0ec054bd7a18",
}


def run(workload, trace, env=None):
    cmd = RUN + ["--workload", workload, "--seed", "11", "--seconds", "1",
                 "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          env=env, timeout=600)


def tagged(lines, tag):
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    raise AssertionError("no '%s' line in the output" % tag)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        checksums = {}
        for trace in (0, 1):
            label = "%s --trace %d" % (wl, trace)
            p = run(wl, trace)
            if p.returncode != 0:
                problems.append("%s: exit %d: %s" % (label, p.returncode,
                                                     p.stderr[-500:]))
                continue
            lines = p.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (label, sorted(result)))
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append("%s: metrics missing %s, unexpected %s, "
                                "wrong unit %s" % (label, missing, extra, wrong))
            for k, v in result["metrics"].items():
                if not isinstance(v.get("value"), (int, float)) or \
                        not math.isfinite(v["value"]):
                    problems.append("%s: %s value %r" % (label, k, v.get("value")))
            checks = tagged(lines, "checks")
            if not result["correct"] or result["failed"] != 0 or \
                    checks["fail_frac"] != 0 or result["attempted"] < 1:
                problems.append("%s: fail_frac %s, failures %s" % (
                    label, checks["fail_frac"], checks["failures"]))
            checksums[trace] = checks["state_checksum"]
            print("ok  %-34s attempted=%d checksum=%s" % (
                label, result["attempted"], checks["state_checksum"]))
        if set(checksums.values()) != {PINNED.get(wl)}:
            problems.append("%s: state checksums %s, pinned %s" % (
                wl, checksums, PINNED.get(wl)))

    env = dict(os.environ, FCS_STORE="1")
    p = run(spec["workloads"][0]["name"], 0, env=env)
    if p.returncode == 0 or p.stdout.strip():
        problems.append("a set FCS_STORE did not make the benchmark refuse")

    for msg in problems:
        print("FAIL " + msg)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
