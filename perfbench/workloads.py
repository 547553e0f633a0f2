"""The four benchmark workloads: seeded inputs, operations and references.

A workload is the list of operations of one pass. Every pass runs the same
operations on the same inputs, so CLI output must hash the same on every
pass. Seed 0 gives the acceptance-test inputs; other seeds perturb them
inside ranges where every operation is expected to succeed.

Operations call the library through module attributes at call time
(``sddde.simulate``, ``cli.run``), so the tracer's wrappers see them.
"""

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import sddde
import sddde.cli as cli
from sddde.spectral import _null_vectors, adjoint_coordinate, refine_root

WHY = {
    "hopf_curve_l1": (
        "heaviest README case: ~90% of its time is derivs -> sup_norm -> ExpPoly.eval "
        "(about 20 hopf_l1 calls), so a derivative-engine change shows here first"
    ),
    "continuation": (
        "branches and a Hopf curve with no derivs calls: root finding, linearize and "
        "FD-Jacobian Newton; bypass case for derivs, target for exact Jacobians"
    ),
    "spectral_projection": (
        "contour projections whose ExpPoly term lists grow to 281 terms; the same "
        "histfun layer as hopf_curve_l1, but few large term lists instead of many small"
    ),
    "ivp": (
        "RK4 simulate calls eval_functional on dense Hermite histories, not ExpPoly "
        "directions; the only ivp workload and the bypass case for spectral and derivs"
    ),
}

REFERENCES = {
    # computed L1 zero on the position_control Hopf curve, as pinned in the README
    "hopf_curve_l1": {"l1_zero": (1.0278, 5.9316), "tol": 1e-3},
    # Hopf curve identity of position_control with k = 1, and p = -pi/2 for scalar_nested
    "continuation": {"curve_tol": 1e-6, "scalar_hopf_p": -math.pi / 2, "hopf_tol": 1e-6},
    # criterion-6 bounds
    "spectral_projection": {"idempotence": 1e-8, "basis": 1e-8, "residual": 1e-10},
    # criterion 7: decay/growth rate against the rightmost root
    "ivp": {"rate_rel": 0.05},
}


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` is timed; ``check`` lists reference breaches."""

    name: str
    run: Callable
    check: Callable


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv):
    """sddde.cli.run in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_op(name, argv, check_records):
    def check(res):
        if res.code != 0:
            return [f"exit code {res.code}: {res.err.strip()}"]
        return check_records([json.loads(line) for line in res.out.splitlines()])

    return Op(name, lambda: run_cli(argv), check)


def build(name, seed, root, refs=None):
    """Operations of one pass of workload ``name`` for ``seed``."""
    refs = REFERENCES[name] if refs is None else refs
    rng = random.Random(seed)
    return _MAKERS[name](seed, rng, root, refs)


def _num(x):
    return repr(float(x))


# -- hopf_curve_l1 ------------------------------------------------------------


def on_curve_tau0(s0):
    """tau0 on the position_control Hopf curve (k = 1) at s0, by bisection."""

    def g(t):
        om = math.pi / (2 * t + s0)
        return 2 * om - math.sin(om * t) - math.sin(om * (t + s0))

    lo, hi = 0.4, 2.5
    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gmid = g(mid)
        if (gmid > 0) == (glo > 0):
            lo, glo = mid, gmid
        else:
            hi = mid
        if hi - lo <= 1e-14:
            break
    return 0.5 * (lo + hi)


def _hopf_curve_l1(seed, rng, root, refs):
    s0 = 5.0 if seed == 0 else rng.uniform(4.6, 5.4)
    tau0 = on_curve_tau0(s0)
    argv = [
        "hopf-curve", "--model", str(root / "models" / "position_control.mdl"),
        "--par", f"tau0={_num(tau0)},s0={_num(s0)},k=1,c=2,gamma=1",
        "--free", "tau0,s0", "--omega-guess", _num(math.pi / (2 * tau0 + s0)),
        "--guess", f"{_num(s0)},{_num(s0)}", "--monitor-l1",
        "--step-init", "0.35", "--max-points", "7",
    ]

    def check(records):
        signs = [np.sign(r["L1"]) for r in records if r["kind"] == "point"]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b and a != 0 and b != 0)
        zeros = [r for r in records if r["kind"] == "event" and r["event"] == "L1_ZERO"]
        breaches = []
        if changes != 1:
            breaches.append(f"{changes} L1 sign changes, expected 1")
        if len(zeros) != 1:
            breaches.append(f"{len(zeros)} L1_ZERO events, expected 1")
        for ev in zeros:
            dist = math.hypot(ev["tau0"] - refs["l1_zero"][0], ev["s0"] - refs["l1_zero"][1])
            if dist > refs["tol"]:
                breaches.append(
                    f"L1_ZERO at ({ev['tau0']:.5f}, {ev['s0']:.5f}) is {dist:.1e} "
                    f"from {refs['l1_zero']}"
                )
        return breaches

    return [_cli_op(f"hopf-curve --monitor-l1 s0={s0:.4f}", argv, check)]


# -- continuation -------------------------------------------------------------


def _curve_error(omega, tau0, s0):
    return max(
        abs(2 * omega - math.sin(omega * tau0) - math.sin(omega * (tau0 + s0))),
        abs(omega - math.pi / (2 * tau0 + s0)),
    )


def _continuation(seed, rng, root, refs):
    tau0 = 1.0 if seed == 0 else rng.uniform(0.95, 1.05)
    s0 = 4.0 if seed == 0 else rng.uniform(3.9, 4.1)
    p = -1.5 if seed == 0 else rng.uniform(-1.55, -1.45)
    poscontrol = str(root / "models" / "position_control.mdl")
    par = f"tau0={_num(tau0)},s0={_num(s0)},k=1,c=2,gamma=1"
    guess = f"{_num(s0)},{_num(s0)}"

    def hopf_events(records):
        return [r for r in records if r["kind"] == "event" and r["event"] == "HOPF"]

    def check_branch(records):
        events = hopf_events(records)
        breaches = [] if events else ["no HOPF event on the tau0 branch"]
        for ev in events:
            err = _curve_error(ev["omega"], ev["param"], s0)
            if err > refs["curve_tol"]:
                breaches.append(f"HOPF at tau0={ev['param']:.8f} breaks the curve identity by {err:.1e}")
        return breaches

    def check_curve(records):
        points = [r for r in records if r["kind"] == "point"]
        breaches = [] if points else ["no Hopf-curve points"]
        for r in points:
            err = _curve_error(r["omega"], r["tau0"], r["s0"])
            if err > refs["curve_tol"]:
                breaches.append(f"curve point ({r['tau0']:.6f}, {r['s0']:.6f}) off by {err:.1e}")
        return breaches

    def check_scalar(records):
        events = hopf_events(records)
        breaches = [] if events else ["no HOPF event on the p branch"]
        for ev in events:
            err = abs(ev["param"] - refs["scalar_hopf_p"])
            if err > refs["hopf_tol"]:
                breaches.append(f"HOPF at p={ev['param']:.10f}, {err:.1e} from {refs['scalar_hopf_p']}")
        return breaches

    return [
        _cli_op(
            f"branch position_control tau0={tau0:.4f}",
            ["branch", "--model", poscontrol, "--par", par, "--guess", guess,
             "--free", "tau0", "--range=0.5:2"],
            check_branch,
        ),
        _cli_op(
            f"hopf-curve s0={s0:.4f}",
            ["hopf-curve", "--model", poscontrol, "--par", par, "--guess", guess,
             "--free", "tau0,s0", "--omega-guess", "0.52"],
            check_curve,
        ),
        _cli_op(
            f"branch scalar_nested p={p:.4f}",
            ["branch", "--model", str(root / "models" / "scalar_nested.mdl"),
             "--par", f"p={_num(p)}", "--free", "p", "--range=-2:-1"],
            check_scalar,
        ),
    ]


# -- spectral_projection ------------------------------------------------------

# model -> (parameter that also guesses every equilibrium component, settings)
_CRITERION6 = {
    "scalar_nested": ("p", [{"p": v} for v in (-1.2, -1.4, -math.pi / 2, -1.7, -1.9)]),
    "position_control": ("s0", [
        {"tau0": a, "s0": b, "k": 1.0, "c": 2.0, "gamma": 1.0}
        for a, b in ((0.6, 2.0), (0.8, 3.0), (1.0, 4.0), (1.2, 4.5), (1.4, 5.0))
    ]),
}


def _direction(n, seed, rng):
    """Two-term ExpPoly direction; seed 0 is the criterion-6 direction."""
    if seed == 0:
        c1 = np.linspace(0.4, 1.0, n) + 0.1j
        c2 = np.linspace(-0.3, 0.5, n) + 0j
    else:
        c1 = np.array([complex(rng.uniform(0.3, 1.0), rng.uniform(-0.3, 0.3)) for _ in range(n)])
        c2 = np.array([complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3)) for _ in range(n)])
    return sddde.combine(
        1.0, sddde.ExpPoly.exponential(c1, 0.2 + 0.8j),
        1.0, sddde.ExpPoly.exponential(c2, -0.1 - 1.3j, power=1),
    )


def _projection_op(model, asg, guess, v, refs):
    def run():
        params = model.params_from(asg)
        x = sddde.solve_equilibrium(model, params, guess)
        lin = sddde.linearize(model, params, x)
        lams = [z for z, _ in sddde.characteristic_roots(lin, count=6, re_cutoff=3.0)]
        lam = max((z for z in lams if z.imag > 1e-9), key=lambda z: z.real)
        pv = sddde.spectral_projection(lin, [lam, np.conj(lam)], v)
        ppv = sddde.spectral_projection(lin, [lam, np.conj(lam)], pv)
        return lin, lams, lam, pv, ppv

    def check(result):
        lin, lams, lam, pv, ppv = result
        residual = max(refine_root(lin, z)[2] for z in lams)
        grid = np.linspace(-max(lin.tau_span, 1.0), 0.0, 17)
        scale = 1.0 + max(float(np.max(np.abs(pv.eval(t)))) for t in grid)
        idem = max(float(np.max(np.abs(ppv.eval(t) - pv.eval(t)))) for t in grid) / scale
        q, p = _null_vectors(sddde.char_matrix(lin, lam))
        p = p / (p @ sddde.char_matrix_deriv(lin, lam) @ q)
        qfun = sddde.ExpPoly.exponential(q, lam)
        coords = [
            adjoint_coordinate(lin, mu, row, f)
            for f in (qfun, qfun.conjugate())
            for mu, row in ((lam, p), (np.conj(lam), np.conj(p)))
        ]
        basis = max(abs(coords[0] - 1), abs(coords[1]), abs(coords[2]), abs(coords[3] - 1))
        breaches = []
        for what, value in (("residual", residual), ("idempotence", idem), ("basis", basis)):
            if not value <= refs[what]:
                breaches.append(f"{what} error {value:.1e} > {refs[what]:.0e}")
        return breaches

    return Op(f"projection {model.name} {asg}", run, check)


def _spectral_projection(seed, rng, root, refs):
    ops = []
    for name, (guess_key, settings) in _CRITERION6.items():
        model = sddde.load_model(root / "models" / f"{name}.mdl")
        v = _direction(model.n, seed, rng)
        for k in sorted(rng.sample(range(len(settings)), 2)):
            asg = settings[k]
            ops.append(_projection_op(model, asg, np.full(model.n, asg[guess_key]), v, refs))
    return ops


# -- ivp ------------------------------------------------------------------------


def _decay_rate(traj, xstar):
    dev = np.abs(traj.y[:, 0] - xstar[0])
    mask = traj.t > 20
    d, t = dev[mask], traj.t[mask]
    peaks = [(t[i], d[i]) for i in range(1, len(d) - 1) if d[i] > d[i - 1] and d[i] >= d[i + 1]]
    return np.polyfit([pk[0] for pk in peaks], np.log([pk[1] for pk in peaks]), 1)[0]


def _ivp(seed, rng, root, refs):
    model = sddde.load_model(root / "models" / "scalar_nested.mdl")
    phase = 0.0 if seed == 0 else rng.uniform(0.0, 2 * math.pi)
    ops = []
    for dp in (-0.05, +0.05):
        params = np.array([-math.pi / 2 + dp])
        xstar = params.copy()
        lin = sddde.linearize(model, params, xstar)
        rate = max(z.real for z, _ in sddde.characteristic_roots(lin, count=4))
        history = sddde.combine(
            1.0, sddde.ExpPoly.constant(xstar),
            1e-3, sddde.ExpPoly.exponential([np.exp(1j * phase)], 1j).real_part() * 2,
        )

        def run(params=params, history=history):
            return sddde.simulate(model, params, history, t_end=200.0, step=0.02)

        def check(traj, xstar=xstar, rate=rate):
            slope = _decay_rate(traj, xstar)
            err = abs(slope - rate) / abs(rate)
            if err > refs["rate_rel"]:
                return [f"rate {slope:.5f} is {err:.1%} from the rightmost root's {rate:.5f}"]
            return []

        ops.append(Op(f"simulate p=-pi/2{dp:+.2f} phase={phase:.3f}", run, check))
    return ops


_MAKERS = {
    "hopf_curve_l1": _hopf_curve_l1,
    "continuation": _continuation,
    "spectral_projection": _spectral_projection,
    "ivp": _ivp,
}
