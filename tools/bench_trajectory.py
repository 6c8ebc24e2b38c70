#!/usr/bin/env python3
"""Appends points to a perf trajectory file (BENCH_<workload>.json).

Runs the repository benchmark (perfbench/run.py) in one or more
checkouts and appends one point per checkout. A point holds:

  * the medians of the end-to-end metrics over RUNS (10) untraced runs
    (`--trace 0`, seeds 1..RUNS), each BENCHMARK.json's `run_seconds`
    long, so every point in a trajectory is measured alike and a pair
    of checkouts gets the 10 alternating pairs a gain claim needs,
  * each run's end-to-end values by seed (`end_to_end_by_seed`) and
    their quartiles (`end_to_end_quartiles`, [Q1, median, Q3], inclusive
    method),
  * for every checkout after the first, `versus_first`: per end-to-end
    metric, the wins, losses and ties of its runs against the first
    checkout's run of the same seed, a win being better in the
    direction of BENCHMARK.json's `better` field, and a `verdict`
    (see below),
  * the per-layer metrics of one traced run (`--trace 1`, seed 1),
  * a label, the commit (HEAD) and whether tracked files differed from
    it (`modified`: a change measured before it was committed), the
    machine block of the `perfbench-meta` line, and the median
    drift-control time (`drift_reference_cliques_s`, a fixed
    clique enumeration timed beside every run), which tells host-speed
    drift apart from code changes when points are compared.

With several checkouts the runs alternate between them (run 1 in each,
then run 2 in each in reverse order, ...), so host drift and warm-up
spread evenly over the points. The tool prints each later checkout's
win/loss/tie counts and the first checkout's interquartile range (IQR),
the two figures a gain claim is judged on, and a verdict per metric,
reading BENCHMARK.json's `bound` as a fraction of the first checkout's
median:

  * `regressed`: the later median is worse than the first by more than
    the bound;
  * `unresolved`: otherwise, when the first checkout's IQR is wider than
    the bound, unless every later run beats every first run (the runs
    spread too widely to tell);
  * `ok`: otherwise.
A typical use compares a parent commit with a change:

    python3 tools/bench_trajectory.py BENCH_serve_light.json \\
        --workload serve_light --checkout ../parent --label parent \\
        --checkout . --label "the change"

Each checkout builds its own binaries on first use (see perfbench/run.py).
Exits non-zero, appending nothing, if any run fails its gates.
No dependencies beyond the Python 3 standard library.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MACHINE_KEYS = ("nproc", "cpu_model", "compiler", "build_type")
RUNS = 10
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCHMARK["run_seconds"]
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}


def run_once(checkout, workload, seed, trace):
    """One perfbench run; returns (meta, result) parsed from stdout."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(RUN_SECONDS),
               "--trace", str(trace)]
    out = subprocess.run(command, cwd=checkout, capture_output=True,
                         text=True)
    lines = out.stdout.strip().splitlines()
    meta = next((json.loads(line[len("perfbench-meta "):])
                 for line in lines if line.startswith("perfbench-meta ")),
                None)
    if out.returncode != 0 or meta is None or not lines:
        sys.exit("bench_trajectory: %s in %s (seed %d, trace %d) failed:\n%s"
                 % (workload, checkout, seed, trace, out.stderr[-2000:]))
    return meta, json.loads(lines[-1])


def modified(checkout):
    """True when tracked files in `checkout` differ from its HEAD."""
    out = subprocess.run(["git", "-C", str(checkout), "status",
                          "--porcelain", "--untracked-files=no"],
                         capture_output=True, text=True)
    return out.returncode == 0 and bool(out.stdout.strip())


def values(result):
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def by_seed(runs):
    """{metric: {seed: value}} over untraced runs made for seeds 1, 2, ..."""
    return {name: {str(seed): values(r)[name]
                   for seed, (_, r) in enumerate(runs, start=1)}
            for name in values(runs[0][1])}


def verdict(name, first, later):
    """`regressed`, `unresolved` or `ok` for one end-to-end metric of the
    `later` point against the `first` (see the module docstring)."""
    lower = BETTER[name] == "lower"
    base = first["end_to_end"][name]
    worse = later["end_to_end"][name] - base if lower else \
        base - later["end_to_end"][name]
    allowed = BOUND[name] * abs(base)
    if worse > allowed:
        return "regressed"
    q1, _, q3 = first["end_to_end_quartiles"][name]
    if q3 - q1 > allowed:
        firsts = first["end_to_end_by_seed"][name].values()
        laters = later["end_to_end_by_seed"][name].values()
        beats = max(laters) < min(firsts) if lower else \
            min(laters) > max(firsts)
        if not beats:
            return "unresolved"
    return "ok"


def versus(first, later):
    """Per metric with a known direction that both points measured: wins,
    losses and ties of the `later` point's runs against the `first`
    point's, paired by seed, and the metric's verdict."""
    outcome = {}
    for name, better in BETTER.items():
        if name not in first["end_to_end"] or \
                name not in later["end_to_end"]:
            continue
        counts = {"wins": 0, "losses": 0, "ties": 0}
        base = first["end_to_end_by_seed"][name]
        for seed, value in later["end_to_end_by_seed"][name].items():
            if seed not in base:
                continue
            gain = value - base[seed] if better == "higher" else \
                base[seed] - value
            counts["wins" if gain > 0 else "losses" if gain < 0
                   else "ties"] += 1
        counts["verdict"] = verdict(name, first, later)
        outcome[name] = counts
    return {"label": first["label"], "metrics": outcome}


def point(label, checkout, runs, traced):
    """Folds the untraced runs and the traced run of one checkout."""
    metas = [meta for meta, _ in runs]
    seeds = by_seed(runs)
    end_to_end = {name: statistics.median(v.values())
                  for name, v in seeds.items()}
    quartiles = {name: statistics.quantiles(v.values(), n=4,
                                            method="inclusive")
                 for name, v in seeds.items()}
    traced_meta, traced_result = traced
    return {
        "label": label,
        "commit": metas[0]["commit"],
        "modified": modified(checkout),
        "machine": {key: metas[0][key] for key in MACHINE_KEYS},
        "seconds": metas[0]["seconds"],
        "runs": len(runs),
        "drift_reference_cliques_s": statistics.median(
            meta["drift_reference_cliques_s"] for meta in metas),
        "attempted": sum(r["attempted"] for _, r in runs),
        "failed": sum(r["failed"] for _, r in runs),
        "end_to_end": end_to_end,
        "end_to_end_by_seed": seeds,
        "end_to_end_quartiles": quartiles,
        "per_layer": values(traced_result),
        "per_layer_drift_reference_cliques_s":
            traced_meta["drift_reference_cliques_s"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench_file", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=("reconstruct_eu", "serve_light"))
    parser.add_argument("--checkout", action="append", type=Path,
                        help="checkout to measure (repeatable; "
                             "default: the current directory)")
    parser.add_argument("--label", action="append", default=[],
                        help="label of the matching --checkout's point")
    args = parser.parse_args()
    checkouts = args.checkout or [Path(".")]
    labels = args.label + [str(c) for c in checkouts[len(args.label):]]

    untraced = {c: [] for c in checkouts}
    for seed in range(1, RUNS + 1):
        for c in checkouts if seed % 2 else reversed(checkouts):
            untraced[c].append(run_once(c, args.workload, seed, 0))
    points = [point(label, c, untraced[c],
                    run_once(c, args.workload, 1, 1))
              for label, c in zip(labels, checkouts)]
    for p in points[1:]:
        p["versus_first"] = versus(points[0], p)

    trajectory = {"workload": args.workload, "points": []}
    if args.bench_file.exists():
        trajectory = json.loads(args.bench_file.read_text())
        if trajectory.get("workload") != args.workload:
            sys.exit("bench_trajectory: %s holds workload %r"
                     % (args.bench_file, trajectory.get("workload")))
    trajectory["points"].extend(points)
    args.bench_file.write_text(json.dumps(trajectory, indent=1) + "\n")
    for p in points:
        print("%s %s: job_s_p50=%.6g jobs_per_s=%.6g drift=%.6g" % (
            args.workload, p["label"], p["end_to_end"]["job_s_p50"],
            p["end_to_end"]["jobs_per_s"], p["drift_reference_cliques_s"]))
    first = points[0]
    for p in points[1:]:
        print("%s %s vs %s (wins/losses/ties per seed pair; IQR of %s):" % (
            args.workload, p["label"], first["label"], first["label"]))
        for name, c in p["versus_first"]["metrics"].items():
            q1, _, q3 = first["end_to_end_quartiles"][name]
            print("  %-14s %2d/%2d/%2d  median %.6g -> %.6g  IQR %.6g  %s"
                  % (name, c["wins"], c["losses"], c["ties"],
                     first["end_to_end"][name], p["end_to_end"][name],
                     q3 - q1, c["verdict"]))


if __name__ == "__main__":
    main()
