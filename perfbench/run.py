"""sddde benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of an sddde checkout:

    python3 perfbench/run.py --workload hopf_curve_l1 --seed 0 --seconds 25 --trace 0

Load is a closed loop: one process, one caller, and each operation starts
only after the previous one returned. Passes repeat until ``--seconds`` of
measured time have gone by. With ``--trace 0`` the run reports wall_s,
cpu_s and ops_per_s over its passes, setup_s from fresh interpreters and
peak_rss_mb of this process. With ``--trace 1`` it runs one untraced pass,
then traced passes, and reports per-layer counts and self times of one
traced pass plus the tracing overhead; counts must repeat exactly on every
traced pass. Every operation's output is checked against its reference, and
CLI output must be byte-identical on every pass; a breach is a failed
operation. The last line of stdout is the JSON result; spans and a full
report are written under ``.perfbench_out/``.
"""

import os

# BLAS pinned to one thread before numpy loads: the library is single-threaded
BLAS_THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

WORKLOADS = ("hopf_curve_l1", "continuation", "spectral_projection", "ivp")
MODELS = ("scalar_nested.mdl", "position_control.mdl")
SETUP_REPEATS = 7
OUT_DIR = ".perfbench_out"

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
)

PER_LAYER = (
    ("derivs.directional_derivative.calls", "count"),
    ("derivs.directional_derivative.self_s", "s"),
    ("derivs.multilinear_form.calls", "count"),
    ("derivs.multilinear_form.self_s", "s"),
    ("derivs.evals_per_dd", "ratio"),
    ("normalform.hopf_l1.calls", "count"),
    ("normalform.hopf_l1.self_s", "s"),
    ("normalform.hopf_l1.failed", "count"),
    ("normalform.hopf_l1.dd_per_call", "ratio"),
    ("normalform.hopf_h2.self_s", "s"),
    ("histfun.sup_norm.calls", "count"),
    ("histfun.sup_norm.self_s", "s"),
    ("histfun.ExpPoly.eval.calls", "count"),
    ("histfun.ExpPoly.created", "count"),
    ("histfun.ExpPoly.terms_out", "count"),
    ("histfun.ExpPoly.init_s", "s"),
    ("histfun.combine.calls", "count"),
    ("histfun.combine.self_s", "s"),
    ("spectral.resolvent_apply.calls", "count"),
    ("spectral.resolvent_apply.self_s", "s"),
    ("spectral.spectral_projection.calls", "count"),
    ("spectral.spectral_projection.self_s", "s"),
    ("spectral.spectral_projection.terms_out", "count"),
    ("spectral.linearize.calls", "count"),
    ("spectral.linearize.self_s", "s"),
    ("spectral.characteristic_roots.calls", "count"),
    ("spectral.characteristic_roots.self_s", "s"),
    ("spectral.refine_root.calls", "count"),
    ("spectral.refine_root.failed", "count"),
    ("spectral.roots_per_seed", "ratio"),
    ("continuation.newton.calls", "count"),
    ("continuation.newton.iters", "count"),
    ("continuation.newton.failed", "count"),
    ("continuation.newton.self_s", "s"),
    ("continuation.solve_equilibrium.calls", "count"),
    ("model.eval_rhs.calls", "count"),
    ("model.eval_rhs.self_s", "s"),
    ("model.eval_functional.calls", "count"),
    ("model.eval_functional.self_s", "s"),
    ("ivp.simulate.calls", "count"),
    ("ivp.simulate.self_s", "s"),
    ("ivp.steps", "count"),
    ("ivp.evals_per_step", "ratio"),
    ("cli.run.calls", "count"),
    ("cli.run.self_s", "s"),
    ("cli.bytes_out", "B"),
    ("histfun.self_s", "s"),
    ("model.self_s", "s"),
    ("derivs.self_s", "s"),
    ("spectral.self_s", "s"),
    ("normalform.self_s", "s"),
    ("continuation.self_s", "s"),
    ("ivp.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    ops: int = 0
    failed: int = 0
    bytes_out: int = 0
    breaches: list = field(default_factory=list)


def run_pass(ops, digests, tracer=None):
    """Run every operation once, closed loop; time runs, then check outputs.

    ``digests`` maps operation index to the hash of its first CLI output.
    """
    from workloads import CliResult

    result = Pass()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.on = True
        w0, c0 = perf_counter(), process_time()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = op.run()
            breaches = None
        except Exception as err:  # every raised failure is a failed operation
            out = None
            breaches = [f"raised {type(err).__name__}: {err}"]
            traceback.print_exc(file=sys.stderr)
        result.wall += perf_counter() - w0
        result.cpu += process_time() - c0
        if tracer is not None:
            tracer.on = False
        if breaches is None:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                breaches = op.check(out)
        if isinstance(out, CliResult):
            result.bytes_out += len(out.out.encode())
            digest = hashlib.sha256(out.out.encode()).hexdigest()
            if digests.setdefault(i, digest) != digest:
                breaches.append("output differs from the first pass")
        result.ops += 1
        if breaches:
            result.failed += 1
            result.breaches.extend(f"{op.name}: {b}" for b in breaches)
    return result


def measure_setup(root, repeats=SETUP_REPEATS):
    """Wall time of fresh interpreters that import sddde and load the models."""
    code = (
        "import sys; sys.path.insert(0, 'src'); import sddde, sddde.cli; "
        + "; ".join(f"sddde.load_model('models/{m}')" for m in MODELS)
    )
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return times


def machine_info():
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 passes beyond it."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def end_to_end(args, root, ops):
    setup = measure_setup(root)
    digests, passes = {}, []
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < args.seconds:
        passes.append(run_pass(ops, digests))
    walls = [p.wall for p in passes]
    cpus = [p.cpu for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": sum(p.ops for p in passes) / sum(walls),
    }
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setup}
    return passes, metrics, samples


def traced(args, root, ops):
    from tracer import Tracer, summarize

    digests = {}
    baseline = run_pass(ops, digests)
    tracer = Tracer()
    tracer.install()
    passes, summaries = [], []
    try:
        t0 = perf_counter()
        while not passes or perf_counter() - t0 < args.seconds:
            passes.append(run_pass(ops, digests, tracer))
            summary = summarize(*tracer.take())
            summary["cli.bytes_out"] = passes[-1].bytes_out
            summaries.append(summary)
    finally:
        tracer.uninstall()
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans_{args.workload}_seed{args.seed}.npz")

    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(p.wall for p in passes) - baseline.wall
        elif unit == "s":
            metrics[name] = statistics.median(s.get(name, 0.0) for s in summaries)
        else:
            metrics[name] = summaries[0].get(name, 0)
    counts = [{k: v for k, v in s.items() if not k.endswith("_s")} for s in summaries]
    if any(c != counts[0] for c in counts[1:]):
        passes[-1].breaches.append("work counts differ between traced passes")
    samples = {"wall_s": [p.wall for p in passes], "untraced_wall_s": [baseline.wall]}
    return [baseline] + passes, metrics, samples


def report(args, machine, passes, metrics, units, samples):
    """Human-readable lines: machine, workload, every metric with unit and sample count."""
    from workloads import WHY

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"why: {WHY[args.workload]}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"passes {len(passes)}, closed loop, 1 caller; operations {attempted}, "
          f"failed {failed}, fail_ratio {failed / attempted:.4g}")
    for name, value in metrics.items():
        line = f"  {name} = {value:.6g} {units[name]}"
        if name in samples:
            lo, hi = quartiles(samples[name])
            line += f"  (median of n={len(samples[name])}, quartiles {lo:.6g}..{hi:.6g})"
        print(line)
    if "wall_s" in samples and not args.trace:
        t = tail(samples["wall_s"])
        if t is None:
            print(f"  wall_s_tail not reported: {len(samples['wall_s'])} passes, 20 needed")
        else:
            print(f"  wall_s_tail = p{t[0]:.0f} {t[1]:.6g} s (n={len(samples['wall_s'])})")
    for breach in (b for p in passes for b in p.breaches):
        print(f"  FAILED {breach}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ["src/sddde/__init__.py"] + [f"models/{m}" for m in MODELS]
               if not (root / p).is_file()]
    if missing:
        print(f"perfbench: not an sddde checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import sddde
    import workloads

    if Path(sddde.__file__).resolve().parent != (root / "src" / "sddde").resolve():
        print(f"perfbench: imported sddde from {sddde.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    ops = workloads.build(args.workload, args.seed, root)
    measure = traced if args.trace else end_to_end
    passes, metrics, samples = measure(args, root, ops)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    machine = machine_info()
    report(args, machine, passes, metrics, units, samples)

    breaches = [b for p in passes for b in p.breaches]
    result = {
        "correct": not breaches,
        "attempted": sum(p.ops for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    full = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                why=workloads.WHY[args.workload], machine=machine, samples=samples,
                breaches=breaches)
    (out_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
