#!/usr/bin/env python3
"""Paired benchmark runs of two sddde checkouts, written as one BENCH_*.json.

For each workload and seed, runs ``perfbench/run.py --trace 0`` once in each
checkout, for the run length that ``BENCHMARK.json`` sets, alternating which
side goes first (the parent on even pair indices). Then, per workload, one
``--trace 1`` run at seed 0 on each side lists the work counts that differ.
It reads only the JSON line and report that ``perfbench/run.py`` writes.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads ivp,continuation --seeds 11-20 --out BENCH_name.json

The file holds, per workload and end-to-end metric, every run's value, the
median and interquartile range of each side and ``change_wins``: the pairs
in which the change read better than the parent (ties count for neither).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

TRACE_SECONDS = 5


def run_bench(checkout, workload, seed, seconds, trace):
    """One perfbench/run.py invocation; its result line and full report."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = checkout / ".perfbench_out" / f"{workload}_seed{seed}_trace{trace}.json"
    return result, json.loads(report.read_text())


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def summarize(parent, change, better):
    """Per-run values, medians, IQRs and change_wins of one metric."""
    wins = sum(1 for a, b in zip(parent, change) if (b < a if better == "lower" else b > a))
    return {
        "parent": [round(v, 5) for v in parent],
        "change": [round(v, 5) for v in change],
        "parent_median": round(statistics.median(parent), 5),
        "parent_iqr": round(iqr(parent), 5),
        "change_median": round(statistics.median(change), 5),
        "change_iqr": round(iqr(change), 5),
        "change_wins": wins,
    }


def count_changes(parent, change):
    """Traced work counts (metrics not in seconds) that differ between the sides."""
    out = {}
    for name, entry in parent["metrics"].items():
        if entry["unit"] == "s":
            continue
        a, b = entry["value"], change["metrics"][name]["value"]
        if a != b:
            out[name] = {"parent": a, "change": b}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="seeds, e.g. 11-20 or 1,3,5")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json to write")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    machine = None
    workloads = {}
    for workload in args.workloads.split(","):
        values = {side: {name: [] for name in better} for side in sides}
        attempted = dict.fromkeys(sides, 0)
        failed = dict.fromkeys(sides, 0)
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                result, report = run_bench(sides[side], workload, seed, seconds, 0)
                machine = machine or report["machine"]
                attempted[side] += result["attempted"]
                failed[side] += result["failed"]
                for name in better:
                    values[side][name].append(result["metrics"][name]["value"])
                print(f"{workload} seed {seed} {side}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.4f}, failed {result['failed']}",
                      file=sys.stderr)
        traced = {side: run_bench(sides[side], workload, 0, TRACE_SECONDS, 1)[0] for side in sides}
        workloads[workload] = {
            "seeds": seeds,
            "failed": failed,
            "attempted": attempted,
            "metrics": {
                name: summarize(values["parent"][name], values["change"][name], better[name])
                for name in better
            },
            "traced_count_changes_seed0": count_changes(traced["parent"], traced["change"]),
        }

    record = {
        "what": (f"perfbench/run.py --seconds {seconds} --trace 0, parent vs change, "
                 "alternating which side runs first (parent first on even pair indices); "
                 f"traced counts from --trace 1 --seconds {TRACE_SECONDS} at seed 0."),
        "machine": machine,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
