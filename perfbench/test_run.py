#!/usr/bin/env python3
"""Self-test of the benchmark.

Runs a short pass of every workload in BENCHMARK.json on a seed other than
the ones used for measuring, untraced and traced, and checks that the last
line of stdout is the result object with every end-to-end (untraced) or
per-layer (traced) metric, each with the unit BENCHMARK.json names, and
that every answer matched its reference. Then checks that the benchmark
refuses to run, without printing a result, from a directory holding only
BENCHMARK.json and the benchmark's own files.

    python3 perfbench/test_run.py
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 2
SECONDS = 2


def run(spec, workload, trace, cwd, env=None):
    command = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                                 "--seconds", str(SECONDS),
                                 "--trace", trace]
    done = subprocess.run(command, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)
    return done.returncode, done.stdout, done.stderr


def check_result(spec, workload, trace, stdout):
    errors = []
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["no result object on the last line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys %s" % sorted(result))
        return errors
    if result["correct"] is not True:
        errors.append("an answer differed from its reference")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append("attempted=%r" % result["attempted"])
    if result["failed"] != 0:
        errors.append("failed=%r" % result["failed"])
    wanted = spec["end_to_end" if trace == "0" else "per_layer"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append("metric names differ: missing %s, extra %s" % (
            sorted({m["name"] for m in wanted} - set(metrics)),
            sorted(set(metrics) - {m["name"] for m in wanted})))
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            errors.append("%s printed as %r, unit %s expected" % (
                m["name"], got, m["unit"]))
        elif not isinstance(got["value"], (int, float)):
            errors.append("%s is not a number" % m["name"])
        elif trace == "0" and not got["value"] > 0:
            errors.append("end-to-end metric %s is %r" % (m["name"],
                                                          got["value"]))
    return errors


def check_isolated(spec):
    """The benchmark alone, without the repository's sources, must fail."""
    isolated = os.path.join(ROOT, ".bench_build", "isolated")
    shutil.rmtree(isolated, ignore_errors=True)
    os.makedirs(isolated)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(isolated, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    code, stdout, _ = run(spec, spec["workloads"][0]["name"], "0", isolated,
                          env)
    shutil.rmtree(isolated, ignore_errors=True)
    errors = []
    if code == 0:
        errors.append("exited 0 without the repository's sources")
    if '"metrics"' in stdout:
        errors.append("printed a result without the repository's sources")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            name = "%s --trace %s" % (workload["name"], trace)
            code, stdout, stderr = run(spec, workload["name"], trace, ROOT)
            errors = [] if code == 0 else ["exit status %d" % code]
            errors += check_result(spec, workload["name"], trace, stdout)
            print("%-28s %s" % (name, "ok" if not errors else "FAIL"))
            for e in errors:
                print("    " + e)
            if errors:
                failures += 1
                sys.stderr.write(stderr[-2000:])
    errors = check_isolated(spec)
    print("%-28s %s" % ("sources missing", "ok" if not errors else "FAIL"))
    for e in errors:
        print("    " + e)
    failures += 1 if errors else 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
