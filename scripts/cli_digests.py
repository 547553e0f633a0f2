#!/usr/bin/env python3
"""SHA-256 digests of the CLI output of the benchmark workloads and the README.

Builds the operations of ``hopf_curve_l1`` and ``continuation`` from
``perfbench/workloads.py`` for each seed, then the README's CLI runs on the
bundled models, runs each one in-process against this checkout's ``src``,
and prints one ``workload seed op sha256`` line per operation (workload
``readme``, seed ``-`` for the fixed README runs); the digest covers the
exit code, stdout and stderr. Then it prints one ``compiled model function
sha256`` line per function generated for each bundled model: f, the delays,
the float and the complex-node functional, the slot derivatives of orders
1 and 2, and the RK4 stepping loop of ``simulate``; that digest covers the
argument list and body lines the model compiles. Running it in two
checkouts and diffing the outputs shows whether their CLI output and their
generated code are byte-identical.

    python3 scripts/cli_digests.py --seeds 0-3
"""

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import sddde.model  # noqa: E402
import workloads  # noqa: E402
from sddde import NumericalError  # noqa: E402

WORKLOADS = ("hopf_curve_l1", "continuation")

SCALAR = ["--model", str(ROOT / "models" / "scalar_nested.mdl")]
POSCONTROL = ["--model", str(ROOT / "models" / "position_control.mdl"),
              "--par", "tau0=1,s0=4,k=1,c=2,gamma=1", "--guess", "4,4"]
BRANCH = ["branch", *SCALAR, "--par", "p=-1.5", "--free", "p", "--range=-2:-1"]
SIMULATE = ["simulate", *SCALAR, "--par", "p=-1.6", "--t-end", "50", "--step", "0.02"]
HOPF_CURVE = ["hopf-curve", *POSCONTROL, "--free", "tau0,s0", "--omega-guess", "0.52",
              "--monitor-l1"]
# the README's CLI examples whose models are in models/
README_RUNS = {
    "eq": ["eq", *POSCONTROL],
    "eq --format csv": ["eq", *POSCONTROL, "--format", "csv"],
    "roots": ["roots", *SCALAR, "--par", "p=-1.5707963267948966"],
    # 23 roots, past the rightmost 6, and two dropped-seed warnings
    "roots --root-count 24": ["roots", *POSCONTROL, "--root-count", "24", "--re-cutoff", "3"],
    "hopf-nf": ["hopf-nf", *SCALAR, "--par", "p=-1.5707963", "--omega-guess", "1"],
    "fold-nf": ["fold-nf", "--model", str(ROOT / "models" / "fold_quadratic.mdl"),
                "--par", "p=0", "--guess", "0"],
    "branch": BRANCH,
    "branch --format csv": BRANCH + ["--format", "csv"],
    # the forward leg ends where the nested delay leaves [0, tau_max]
    "branch --range=-1:1": ["branch", *SCALAR, "--par", "p=-0.5", "--free", "p", "--range=-1:1"],
    "hopf-curve --monitor-l1": HOPF_CURVE,
    # two cubic brackets are refused at the starting radius and pass at half of it
    "hopf-curve --monitor-l1 c=0.7": HOPF_CURVE + ["--par", "c=0.7"],
    "simulate": SIMULATE,
    "simulate --format csv": SIMULATE + ["--format", "csv"],
}


# the functions a model generates, in the order a load, frozen_derivatives of
# orders 1 and 2 and rk4_steps compile them
COMPILED = ("f", "delays", "functional", "functional_nodes", "derivs1", "derivs2", "rk4")


def digest(res):
    return hashlib.sha256(f"{res.code}\n{res.out}\n{res.err}".encode()).hexdigest()


def compiled_digests(path):
    """{function: sha256 of its generated argument list and body} for the model file at path."""
    sources, compile_ = [], sddde.model._compile

    def capture(args, body):
        sources.append("\n".join([args, *body]))
        return compile_(args, body)

    sddde.model._compile = capture
    try:
        model = sddde.model.load_model(path)
        for order in (1, 2):
            try:  # compiled on first use; the values at this point do not matter
                model.frozen_derivatives([1.0] * model.n_p, [1.0] * model.n, order)
            except NumericalError:
                pass
        model.rk4_steps([1.0] * model.n_p, None, 1.0, 1.0, 0, [], [])  # no steps
    finally:
        sddde.model._compile = compile_
    assert len(sources) == len(COMPILED), f"{path.name}: {len(sources)} generated functions"
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in zip(COMPILED, sources)}


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
                print(f"{name} {seed} {op.name} {digest(op.run())}", flush=True)
    for name, argv in README_RUNS.items():
        print(f"readme - {name} {digest(workloads.run_cli(argv))}", flush=True)
    for path in sorted((ROOT / "models").glob("*.mdl")):
        for name, sha in compiled_digests(path).items():
            print(f"compiled {path.stem} {name} {sha}", flush=True)


if __name__ == "__main__":
    main()
