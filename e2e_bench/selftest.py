#!/usr/bin/env python3
"""Fast self-test of the end-to-end benchmark (see README.md).

    python3 e2e_bench/selftest.py

Builds the benchmark like run.py does, then runs every workload twice at
reduced size (--seconds 1): once untraced and once traced. Checks that
  * each run exits 0 and ends with the JSON result line (correct,
    attempted, failed, metrics),
  * the untraced run prints every end_to_end metric of BENCHMARK.json and
    the traced run every per_layer metric, each with the unit listed there,
  * both runs produce exactly the same per-run outcomes (steps and covered
    lines of every run or session), attempted counts and zero failures,
  * the binary refuses a stray MAK_METRICS and an unknown workload.
Exits 1 on the first failed check.
"""
import json
import os
import subprocess
import sys

import run

SECONDS = "1"
SEED = "7"


def fail(message):
    sys.exit("selftest: FAIL: " + message)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        fail("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    return result


def run_workload(workload, trace, outcomes_path):
    command = [run.BINARY, "--workload", workload, "--seed", SEED,
               "--seconds", SECONDS, "--trace", str(trace),
               "--outcomes-out", outcomes_path]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        fail("%s trace=%d exited %d:\n%s%s" % (
            workload, trace, done.returncode, done.stdout[-2000:],
            done.stderr[-2000:]))
    return result_line(done.stdout)


def check_metrics(workload, trace, result, declared):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        fail("%s trace=%d metrics differ from BENCHMARK.json: missing %s, "
             "extra %s" % (workload, trace, sorted(set(want) - set(got)),
                           sorted(set(got) - set(want))))
    for name, entry in got.items():
        if entry.get("unit") != want[name]:
            fail("%s: %s has unit %r, BENCHMARK.json says %r" % (
                workload, name, entry.get("unit"), want[name]))
        if not isinstance(entry.get("value"), (int, float)):
            fail("%s: %s has no numeric value" % (workload, name))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    run.build()
    scratch = os.path.join(run.BUILD, "selftest")
    os.makedirs(scratch, exist_ok=True)
    for workload in [w["name"] for w in benchmark["workloads"]]:
        outcomes = []
        results = []
        for trace, declared in ((0, benchmark["end_to_end"]),
                                (1, benchmark["per_layer"])):
            path = os.path.join(scratch, "%s-%d.tsv" % (workload, trace))
            result = run_workload(workload, trace, path)
            check_metrics(workload, trace, result, declared)
            if not result["correct"] or result["failed"] != 0:
                fail("%s trace=%d reported failures" % (workload, trace))
            with open(path) as handle:
                outcomes.append(handle.read())
            results.append(result)
        if outcomes[0] != outcomes[1]:
            fail("%s: outcomes differ between the two runs" % workload)
        if results[0]["attempted"] != results[1]["attempted"]:
            fail("%s: attempted counts differ" % workload)
        print("selftest: %s ok (%d runs or sessions, outcomes identical)" % (
            workload, results[0]["attempted"]))

    env = dict(os.environ, MAK_METRICS="0")
    refused = subprocess.run([run.BINARY, "--workload", "table2"], env=env,
                             capture_output=True, text=True)
    if refused.returncode == 0 or refused.stdout.strip():
        fail("MAK_METRICS was not refused")
    unknown = subprocess.run([run.BINARY, "--workload", "nope"],
                             capture_output=True, text=True)
    if unknown.returncode == 0 or unknown.stdout.strip():
        fail("an unknown workload was not refused")
    print("selftest: ok")


if __name__ == "__main__":
    main()
