"""Command-line front end.

Subcommands: eq, roots, hopf-nf, fold-nf, branch, hopf-curve, simulate.
Each subcommand collects (kind, data) records, and they are written to
stdout when it finishes: as NDJSON (default), with floats in the shortest
form that round-trips and complex values as [re, im], or as CSV, with
floats to 17 significant digits, list entries as key1, key2, ..., complex
values as key_re, key_im, and a header that is the union of the records'
columns. There are no timestamps, so identical invocations produce
byte-identical output. Exit codes: 0 success, 1 numerical failure, 2 usage
or parse error.
"""

import argparse
import csv
import json
import sys
import warnings

import numpy as np

from .continuation import (
    RootSettings,
    StepSettings,
    continue_branch,
    continue_hopf_curve,
    solve_equilibrium,
)
from .derivs import DerivSettings
from .errors import ModelError, SdddeError
from .ivp import simulate
from .model import load_model
from .normalform import fold_coefficient, hopf_l1
from .spectral import characteristic_roots, linearize


def _plain(value):
    """A record field as plain Python: arrays and tuples become lists, numpy
    scalars Python scalars and bools 0/1; complex values stay complex."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    return int(value) if isinstance(value, bool) else value


def _cells(key, value):
    """(column, cell) pairs of one plain CSV field: list entries as key1, key2, ...,
    complex values as key_re and key_im, floats with 17 significant digits."""
    if isinstance(value, list):
        for i, v in enumerate(value, start=1):
            yield from _cells(f"{key}{i}", v)
    elif isinstance(value, complex):
        yield from _cells(f"{key}_re", value.real)
        yield from _cells(f"{key}_im", value.imag)
    elif isinstance(value, float):
        yield key, format(value, ".17g")
    else:  # int, str, or None, which csv writes as an empty cell
        yield key, value


def _write(records, fmt, stream):
    """(kind, data) records as NDJSON lines or as one CSV table whose header
    is the union of the records' columns, in first-seen order."""
    rows = [{"kind": kind, **{k: _plain(v) for k, v in data.items()}} for kind, data in records]
    if fmt == "ndjson":
        for row in rows:  # json encodes only complex values through default
            stream.write(json.dumps(row, separators=(",", ":"),
                                    default=lambda z: [z.real, z.imag]) + "\n")
        return
    flat = [dict(cell for key, value in row.items() for cell in _cells(key, value))
            for row in rows]
    columns = list(dict.fromkeys(column for row in flat for column in row))
    if columns:
        table = csv.writer(stream, lineterminator="\n")
        table.writerow(columns)
        table.writerows([row.get(column) for column in columns] for row in flat)


def _parse_assignments(pairs):
    out = {}
    for chunk in pairs or []:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ModelError(f"bad parameter assignment {item!r} (expected name=value)")
            name, _, value = item.partition("=")
            try:
                out[name.strip()] = float(value)
            except ValueError:
                raise ModelError(f"bad numeric value in {item!r}") from None
    return out


def _parse_vector(text, n, what):
    if text is None:
        return np.zeros(n)
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ModelError(f"bad {what}: expected comma-separated numbers") from None
    if len(values) != n:
        raise ModelError(f"{what} must have {n} components, got {len(values)}")
    return np.array(values)


def build_parser():
    top = argparse.ArgumentParser(
        prog="sddde",
        description="Bifurcation analysis of delay equations with state-dependent delays.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True, help="model file path")
        p.add_argument(
            "--par",
            action="append",
            default=[],
            help="parameter assignments, e.g. --par tau0=1,s0=4",
        )
        p.add_argument("--format", choices=("ndjson", "csv"), default="ndjson")
        p.add_argument("--guess", help="equilibrium guess, comma separated (default zeros)")

    def root_knobs(p):
        p.add_argument("--cheb-nodes", type=int, default=32, help="pseudospectral seed nodes")
        p.add_argument("--root-count", type=int, default=6, help="characteristic roots to report")
        p.add_argument("--re-cutoff", type=float, default=2.0, help="root window Re >= -cutoff")

    def deriv_knobs(p):
        p.add_argument("--deriv-radius", type=float, default=0.25, help="derivative circle radius")
        p.add_argument("--deriv-levels", type=int, default=2, help="derivative node levels")

    p_eq = sub.add_parser("eq", help="solve an equilibrium and report rightmost roots")
    common(p_eq)
    root_knobs(p_eq)

    p_roots = sub.add_parser("roots", help="characteristic roots at an equilibrium")
    common(p_roots)
    root_knobs(p_roots)

    p_hopf = sub.add_parser("hopf-nf", help="Hopf normal form (L1) at an equilibrium")
    common(p_hopf)
    deriv_knobs(p_hopf)
    p_hopf.add_argument("--omega-guess", type=float, required=True)

    p_fold = sub.add_parser("fold-nf", help="fold normal-form coefficient at a zero root")
    common(p_fold)
    deriv_knobs(p_fold)

    p_br = sub.add_parser(
        "branch",
        help="continue an equilibrium branch in one parameter",
        epilog=(
            "CSV columns: kind, param (free parameter), x1..xn (equilibrium), "
            "rightmost_re/_im (rightmost characteristic root), test_hopf (real part "
            "of the rightmost complex pair), test_fold (det of the frozen-delay "
            "Jacobian), stable (0/1), plus event/omega on event rows."
        ),
    )
    common(p_br)
    root_knobs(p_br)
    p_br.add_argument("--free", required=True, help="free parameter name")
    p_br.add_argument("--range", required=True, help="lo:hi for the free parameter")
    p_br.add_argument("--step-init", type=float, default=0.05)
    p_br.add_argument("--max-points", type=int, default=200)

    p_hc = sub.add_parser(
        "hopf-curve",
        help="continue a Hopf curve in two parameters",
        epilog=(
            "CSV columns: kind, <p1>, <p2> (the two free parameters), x1..xn "
            "(equilibrium), omega, residual (max norm of the extended system), "
            "optionally L1, plus event and note on L1_ZERO rows."
        ),
    )
    common(p_hc)
    deriv_knobs(p_hc)
    p_hc.add_argument("--free", required=True, help="two parameter names, comma separated")
    p_hc.add_argument("--omega-guess", type=float, required=True)
    p_hc.add_argument("--monitor-l1", action="store_true")
    p_hc.add_argument("--step-init", type=float, default=0.1)
    p_hc.add_argument("--max-points", type=int, default=30)

    p_sim = sub.add_parser("simulate", help="method-of-steps initial value run")
    common(p_sim)
    p_sim.add_argument("--history", help="constant history, comma separated (default: --guess equilibrium)")
    p_sim.add_argument("--t-end", type=float, required=True)
    p_sim.add_argument("--step", type=float, required=True)
    return top


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    records = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _dispatch(args, records)
        for w in caught:
            if args.format == "csv":
                print(f"sddde: warning: {w.message}", file=sys.stderr)
            else:
                records.append(("warning", {"message": str(w.message)}))
        _write(records, args.format, sys.stdout)
        return 0
    except ModelError as err:
        print(f"sddde: {err}", file=sys.stderr)
        return 2
    except SdddeError as err:
        print(f"sddde: {err}", file=sys.stderr)
        return 1
    except (ZeroDivisionError, ValueError, OverflowError, np.linalg.LinAlgError) as err:
        print(f"sddde: numerical failure: {err}", file=sys.stderr)
        return 1


# the flag that sets each settings field, by settings class
_KNOBS = {
    RootSettings: {"count": "--root-count", "re_cutoff": "--re-cutoff",
                   "cheb_nodes": "--cheb-nodes"},
    DerivSettings: {"radius": "--deriv-radius", "levels": "--deriv-levels"},
    StepSettings: {"initial": "--step-init", "max_points": "--max-points"},
}


def _settings(args, cls):
    """cls from the subcommand's flags, None if it has none; a bad value is a usage error."""
    flags = _KNOBS[cls]
    values = {field: getattr(args, flag[2:].replace("-", "_"), None)
              for field, flag in flags.items()}
    if None in values.values():
        return None
    try:
        return cls(**values)
    except SdddeError as err:  # each message starts with the field, which the flag replaces
        field, _, rest = str(err).partition(" ")
        raise ModelError(f"{flags[field]} {rest}") from None


def _dispatch(args, records):
    """Run the subcommand, appending its (kind, data) records to records."""
    model = load_model(args.model)
    assignments = _parse_assignments(args.par)
    params = model.params_from(assignments)
    roots_cfg, deriv, step = (_settings(args, cls) for cls in _KNOBS)

    def guess():
        return _parse_vector(args.guess, model.n, "--guess")

    def equilibrium():
        return solve_equilibrium(model, params, guess())

    if args.command in ("eq", "roots"):
        x = equilibrium()
        lin = linearize(model, params, x)
        rts = characteristic_roots(lin, roots_cfg.count, roots_cfg.re_cutoff, roots_cfg.cheb_nodes)
        if args.command == "roots":
            for lam, mult in rts:
                records.append(("point", {"root": lam, "multiplicity": mult}))
            return
        records.append(("result", {
            "x": x,
            "delays": np.asarray(lin.taus),
            "roots": [lam for lam, _ in rts],
            "stable": bool(max((z.real for z, _ in rts), default=-1.0) < 0),
        }))
        return

    if args.command == "hopf-nf":
        x = equilibrium()
        nf = hopf_l1(model, params, x, args.omega_guess, settings=deriv)
        records.append(("result", {
            "omega": nf.eig.omega,
            "L1": nf.L1,
            "criticality": nf.criticality,
            "g21": nf.g21,
            "p0": nf.eig.p0,
            "q0": nf.eig.q0,
            "h2_20": nf.h2_20.terms[0][0],
            "h2_11": nf.h2_11.terms[0][0] if nf.h2_11.terms else np.zeros(model.n, complex),
        }))
        return

    if args.command == "fold-nf":
        x = equilibrium()
        a = fold_coefficient(model, params, x, settings=deriv)
        records.append(("result", {"a": a, "x": x}))
        return

    if args.command == "branch":
        lo, _, hi = args.range.partition(":")
        try:
            prange = (float(lo), float(hi))
        except ValueError:
            raise ModelError("--range must be lo:hi") from None
        pts = continue_branch(model, assignments, args.free, prange, guess(), step=step,
                              roots=roots_cfg)
        for pt in pts:
            kind = "event" if pt.event else "point"
            data = {
                "param": pt.param,
                "x": pt.x,
                "rightmost": max(pt.roots, key=lambda z: z.real) if pt.roots else None,
                "test_hopf": pt.test_hopf,
                "test_fold": pt.test_fold,
                "stable": pt.stable,
            }
            if pt.event:
                data["event"] = pt.event
                if pt.omega is not None:
                    data["omega"] = pt.omega
            records.append((kind, data))
        return

    if args.command == "hopf-curve":
        names = [s.strip() for s in args.free.split(",") if s.strip()]
        if len(names) != 2:
            raise ModelError("--free must name exactly two parameters")
        pts = continue_hopf_curve(model, assignments, names, guess(), args.omega_guess,
                                  step=step, monitor_l1=args.monitor_l1, deriv_settings=deriv)
        for pt in pts:
            kind = "event" if pt.event else "point"
            data = {
                names[0]: pt.params[0],
                names[1]: pt.params[1],
                "x": pt.x,
                "omega": pt.omega,
                "residual": pt.residual,
            }
            if args.monitor_l1:
                data["L1"] = pt.L1
            if pt.event:
                data["event"] = pt.event
                if pt.event == "L1_ZERO":
                    data["note"] = "degenerate Hopf (Bautin candidate)"
            records.append((kind, data))
        return

    if args.command == "simulate":
        if args.history is not None:
            history = _parse_vector(args.history, model.n, "--history")
        else:
            history = equilibrium()
        traj = simulate(model, params, history, args.t_end, args.step)
        for k in range(traj.t.size):
            records.append(("point", {"t": traj.t[k], "x": traj.y[k]}))
        return

    raise ModelError(f"unknown command {args.command!r}")  # pragma: no cover


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
