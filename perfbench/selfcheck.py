#!/usr/bin/env python3
"""Self-check of the benchmark's own output.

Runs every workload in the short mode (a couple of jobs each), untraced
and traced, and checks that:

  * BENCHMARK.json is well formed (keys, names, units, directions,
    bounds, a `setup_s` metric);
  * each run exits 0 with a last stdout line holding exactly
    correct/attempted/failed/metrics, correct=true and no failed jobs;
  * the metrics printed are exactly the declared end-to-end set
    (untraced) or per-layer set (traced), each with its declared unit;
  * the traced reconstruct_eu replica reproduced Session::Reconstruct;
  * no marioh_served process outlives the runs;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.

Usage (from the root of a checkout): python3 perfbench/selfcheck.py
Exit status 0 when every check passes.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print("selfcheck: FAIL: " + message, file=sys.stderr)
    return condition


def check_declaration(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"},
          "BENCHMARK.json keys: %s" % sorted(bench))
    names = set()
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for metric in bench[section]:
            check(set(metric) == keys, "%s entry keys %s" % (section, metric))
            check(NAME.match(metric["name"]) is not None,
                  "bad metric name %r" % metric["name"])
            check(metric["name"] not in names,
                  "metric %r declared twice" % metric["name"])
            names.add(metric["name"])
            check(UNIT.match(metric["unit"]) is not None,
                  "bad unit %r" % metric["unit"])
            check(metric["better"] in ("lower", "higher"),
                  "bad direction for %r" % metric["name"])
            if section == "end_to_end":
                check(0 < metric["bound"] <= 0.25,
                      "bound of %r out of range" % metric["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s must be declared with unit s, lower is better")
    for workload in bench["workloads"]:
        check(set(workload) == {"name", "why"}, "workload keys %s" % workload)
        check(len(workload["why"]) <= 200 and "\n" not in workload["why"],
              "why of %s too long" % workload["name"])


def run(workload, trace, cwd=ROOT, env=None):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", trace, "--max-jobs", "2"]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)


def check_run(bench, workload, trace):
    where = "%s --trace %s" % (workload, trace)
    proc = run(workload, trace)
    if not check(proc.returncode == 0, "%s exited %d: %s" % (
            where, proc.returncode, proc.stderr[-2000:])):
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = json.loads(lines[-2][len("perfbench-meta "):])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "%s result keys %s" % (where, sorted(result)))
    check(result["correct"] is True and result["failed"] == 0,
          "%s not correct: %s" % (where, meta.get("failures")))
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          "%s attempted=%r" % (where, result["attempted"]))
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace == "1" else "end_to_end"]}
    printed = result["metrics"]
    check(set(printed) == set(declared),
          "%s printed %s, declared %s" % (
              where, sorted(set(printed) - set(declared)),
              sorted(set(declared) - set(printed))))
    for name, metric in printed.items():
        check(metric.get("unit") == declared.get(name),
              "%s: %s has unit %r, declared %r" % (
                  where, name, metric.get("unit"), declared.get(name)))
        check(isinstance(metric.get("value"), (int, float)),
              "%s: %s value is not a number" % (where, name))
        if trace == "0":
            check(metric.get("value", 0) != 0,
                  "%s: end-to-end %s reads 0" % (where, name))
    if trace == "1" and workload == "reconstruct_eu":
        check(printed["trace.replica_valid"]["value"] == 1,
              "reconstruct_eu replica differs from Session::Reconstruct")
    for key in ("nproc", "cpu_model", "compiler", "build_type", "commit",
                "drift_reference_cliques_s"):
        check(key in meta, "%s metadata lacks %s" % (where, key))
    print("selfcheck: %s ok (%d metrics, %d attempted)"
          % (where, len(printed), result["attempted"]))


def check_no_daemons():
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            exe = os.readlink("/proc/%s/exe" % pid)
        except OSError:
            continue
        check(not exe.endswith("/marioh_served"),
              "marioh_served (pid %s) outlived the runs" % pid)


def check_bare_directory():
    """Without the repository sources the benchmark must fail loudly."""
    bare = ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = run("serve_light", "0", cwd=bare, env=env)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check(proc.returncode != 0,
              "bare directory: benchmark exited 0")
        check('"correct"' not in last[0],
              "bare directory: benchmark printed a result")
        print("selfcheck: bare directory fails as it should (exit %d)"
              % proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_declaration(bench)
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            check_run(bench, workload, trace)
    check_no_daemons()
    check_bare_directory()
    if failures:
        print("selfcheck: %d check(s) failed" % len(failures), file=sys.stderr)
        return 1
    print("selfcheck: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
