#!/usr/bin/env python3
"""SHA-256 digests of the CLI output of the CLI benchmark workloads.

Builds the operations of ``hopf_curve_l1`` and ``continuation`` from
``perfbench/workloads.py`` for each seed, runs each one in-process against
this checkout's ``src``, and prints one ``workload seed op sha256`` line per
operation; the digest covers the exit code, stdout and stderr. Running it in
two checkouts and diffing the outputs shows whether their CLI output is
byte-identical.

    python3 scripts/cli_digests.py --seeds 0-3
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

WORKLOADS = ("hopf_curve_l1", "continuation")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0", help="seeds, e.g. 0-3 or 0,2")
    args = parser.parse_args(argv)
    for seed in parse_seeds(args.seeds):
        for name in WORKLOADS:
            for op in workloads.build(name, seed, ROOT):
                res = op.run()
                blob = f"{res.code}\n{res.out}\n{res.err}".encode()
                print(f"{name} {seed} {op.name} {hashlib.sha256(blob).hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
