"""Equilibrium branches, bifurcation detection, and Hopf-curve continuation.

Branches and Hopf curves run through one driver, _continue: each leg takes
the accepted points of the pseudo-arclength stepper _arclength (secant
predictor, corrector, step halving and growth), and the legs are joined as
reversed(backward) + [start] + forward. A branch leg starts with a natural
step and lands on the range end; a Hopf-curve leg starts along the
nullspace tangent. Either leg ends where a delay leaves [0, tau_max].

Events are sign changes of test functions: _test_hopf (real part of the
rightmost complex pair) and _test_fold (determinant of the frozen-delay
Jacobian) on branches, L1 on monitored Hopf curves. As each point of a leg
is accepted, _events locates every sign change since the previous point by
one Illinois secant along the curve, _locate_zero. An L1 sign change whose
located |L1| is not below both ends is a pole (near a fold-Hopf point or a
resonance): a warning, not an L1_ZERO.

Hopf curves are continued in two parameters through the extended real
system {equilibrium residual; Re/Im of Delta(i w) q0; Re/Im of (c.q0 - 1)}
with the normalization row c frozen per curve. Every Newton step takes the
exact Jacobian of its system, built from the model's symbolic slot
derivatives. Each y (corrector iterate, curve point or secant iterate) is
linearized once: its residual and Jacobian share that linearization and
Delta, Delta' at i omega, and its eigendata the linearization. A point builds
the eigendata of its pair once, by spectral.hopf_pair at (x, p, i omega):
that is its simplicity check, and with monitor_l1 both go to hopf_l1 as its
lin and eig.
"""

import itertools
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateEigenvalueError,
    DelayRangeError,
    ModelError,
    SdddeError,
)
from .normalform import hopf_l1
from .spectral import (
    RootSettings,
    _delta_pair,
    _null_vectors,
    char_matrix,
    characteristic_roots,
    hopf_eigendata,
    hopf_pair,
    linearize,
)

_IM_TOL = 1e-8
# step control of _arclength
_MIN_STEP = 1e-5
_GROW = 1.5
_SHRINK = 0.5
_CORRECTOR_TOL = 1e-10
_MAX_CORRECTOR_ITERS = 10
_FAST_ITERS = 3


@dataclass(frozen=True)
class StepSettings:
    initial: float = 0.05
    max_step: float = 0.5
    max_points: int = 400

    def __post_init__(self):
        for name in ("initial", "max_step"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise SdddeError(f"{name} must be positive and finite")
        if not self.max_points >= 1:
            raise SdddeError("max_points must be at least 1")


# ---------------------------------------------------------------------------
# Newton helpers


def newton(fun, jac, y0, tol=1e-10, max_iters=25):
    """Newton on a square system with the exact Jacobian jac(y).

    Each step is halved until the residual max-norm drops, down to 1/64.
    Returns (solution, residual max-norm, iterations used).
    """
    y = np.asarray(y0, dtype=float).copy()
    r = fun(y)
    for it in range(max_iters):
        nrm = np.max(np.abs(r))
        if nrm <= tol:
            return y, nrm, it
        try:
            delta = np.linalg.solve(jac(y), -r)
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular Jacobian in Newton iteration") from None
        if not np.all(np.isfinite(delta)):
            raise ConvergenceError("non-finite Newton update")
        scale = 2.0
        while scale > 1.0 / 64.0:
            scale *= 0.5
            y_try = y + scale * delta
            r = fun(y_try)
            if np.max(np.abs(r)) < nrm:
                break
        y = y_try
    nrm = np.max(np.abs(r))
    if nrm <= tol:
        return y, nrm, max_iters
    raise ConvergenceError(f"Newton did not converge (residual {nrm:.3e})")


def solve_equilibrium(model, params, guess, tol=1e-10):
    """Newton solve of f(x, ..., x, p) = 0 from the given guess."""
    params = np.asarray(params, dtype=float)
    x, _, _ = newton(
        lambda x: model.equilibrium_residual(params, x),
        lambda x: model.frozen_derivatives(params, x)[0].sum(axis=0),
        guess, tol=tol,
    )
    return x


# ---------------------------------------------------------------------------
# pseudo-arclength stepping, shared by branches and Hopf curves


def _correct(system, tangent, y_pred, tol, max_iters):
    """Newton on [residual(y); tangent.(y - y_pred)] from the prediction y_pred.

    system is the pair (residual, jacobian) of the underdetermined system.
    """
    residual, jacobian = system
    return newton(
        lambda y: np.concatenate([residual(y), [tangent @ (y - y_pred)]]),
        lambda y: np.vstack([jacobian(y), tangent]),
        y_pred, tol=tol, max_iters=max_iters,
    )


def _arclength(system, y, direction, step, underflow_msg):
    """Accepted pseudo-arclength points from y, computed lazily.

    Predicts along the normalized direction, then along the secant of the
    last two points; h starts at step.initial, halves on corrector failure
    down to _MIN_STEP and grows after fast convergence. A zero secant
    ends the steps.
    """
    h = step.initial
    while True:
        nrm = np.linalg.norm(direction)
        if nrm == 0:
            return
        tangent = direction / nrm
        while True:
            try:
                y_new, _, iters = _correct(
                    system, tangent, y + h * tangent, _CORRECTOR_TOL, _MAX_CORRECTOR_ITERS
                )
                break
            except ConvergenceError:
                h *= _SHRINK
                if h < _MIN_STEP:
                    raise ConvergenceError(underflow_msg) from None
        yield y_new
        direction = y_new - y
        y = y_new
        if iters <= _FAST_ITERS:
            h = min(h * _GROW, step.max_step)


def _leg_signs(direction):
    """Leg orientations for a direction: +1 forward, -1 backward."""
    signs = {"both": (+1.0, -1.0), "forward": (+1.0,), "backward": (-1.0,)}
    if direction not in signs:
        raise ModelError(f"direction must be 'both', 'forward' or 'backward', got {direction!r}")
    return signs[direction]


def _locate_zero(system, value, ya, yb, va, vb, span, tol):
    """Zero of a test function between two points ya, yb of a solution curve.

    value(y) returns (test value, payload); va and vb are the values at ya
    and yb, of opposite signs. Illinois secant in t along the chord ya +
    t (yb - ya), taking the bracket midpoint while an end value is not
    finite; each iterate is corrected onto the curve perpendicular to the
    chord. Stops when span (distance per unit t) times the bracket width or
    the last move in t is within tol, where the test value may be down to
    roundoff. Returns (y, payload) of the last evaluation.
    """
    seg = yb - ya
    tangent = seg / np.linalg.norm(seg)
    ta, tb = 0.0, 1.0
    t, kept = None, 0
    for _ in range(60):
        t_prev = t
        if np.isfinite(va) and np.isfinite(vb):
            t = min(max(tb - vb * (tb - ta) / (vb - va), 0.0), 1.0)
        else:
            t = 0.5 * (ta + tb)
        if t == t_prev:
            break  # the same corrected point again
        y_t, _, _ = _correct(system, tangent, ya + t * seg, _CORRECTOR_TOL, 12)
        v_t, payload = value(y_t)
        if np.sign(v_t) == np.sign(va):  # Illinois: halve the value of an end kept twice
            ta, va, vb, kept = t, v_t, (vb / 2 if kept == 1 else vb), 1
        else:
            tb, vb, va, kept = t, v_t, (va / 2 if kept == -1 else va), -1
        moved = tb - ta if t_prev is None else min(tb - ta, abs(t - t_prev))
        if span * moved <= tol:
            break
    return y_t, payload


# ---------------------------------------------------------------------------
# the continuation driver, shared by branches and Hopf curves

# A test function, whose sign changes between accepted points are events. The
# point field ``at`` holds its value at accepted points; value(y) returns (value,
# payload) at the secant iterates; event(y, payload, ends) makes the event point
# (None drops it); tol bounds the error in the components span of y.
_Test = namedtuple("_Test", "at value event span tol")


def _continue(system, start, steps, signs, max_points, make_point, tests):
    """Both legs from start = (y0, point), joined as reversed(backward) + [start] + forward.

    steps(sgn) yields the accepted y of the leg of orientation sgn;
    make_point(y) turns each into a point. A leg takes at most max_points
    of them, asking for no step beyond, and a DelayRangeError (a delay
    leaving [0, tau_max]) ends it. The events since the previous point
    precede each point of a leg.
    """
    legs = {}
    for sgn in signs:
        leg, prev = [], start
        try:
            for y in itertools.islice(steps(sgn), max_points):
                new = (y, make_point(y))
                leg += _events(system, tests, prev, new) + [new[1]]
                prev = new
        except DelayRangeError:
            pass
        legs[sgn] = leg
    return legs.get(-1.0, [])[::-1] + [start[1]] + legs.get(+1.0, [])


def _events(system, tests, a, b):
    """Event points between consecutive accepted points a and b, each a (y, point) pair.

    Each test whose values at a and b are finite and of opposite signs is
    located by _locate_zero, the span of the chord setting its distance
    per unit t. The events come in their order along the chord.
    """
    (ya, pa), (yb, pb) = a, b
    seg = yb - ya
    located = []
    for test in tests:
        va, vb = getattr(pa, test.at), getattr(pb, test.at)
        if not (np.isfinite(va) and np.isfinite(vb) and np.sign(va) * np.sign(vb) < 0):
            continue
        span = np.linalg.norm(seg[test.span])
        y, payload = _locate_zero(system, test.value, ya, yb, va, vb, span, test.tol)
        point = test.event(y, payload, (pa, pb))
        if point is not None:
            located.append(((y - ya) @ seg, point))
    return [point for _, point in sorted(located, key=lambda e: e[0])]


# ---------------------------------------------------------------------------
# one-parameter equilibrium branches


@dataclass(frozen=True)
class BranchPoint:
    param: float
    x: np.ndarray
    roots: tuple
    test_hopf: float
    test_fold: float
    stable: bool
    event: str | None = None
    omega: float | None = None


def _with_param(pvec, idx, value):
    pv = pvec.copy()
    pv[idx] = value
    return pv


def _test_hopf(lams):
    """Largest real part of a complex root (Hopf test function); -inf if none."""
    complex_res = [lam.real for lam in lams if abs(lam.imag) > _IM_TOL]
    return max(complex_res) if complex_res else float("-inf")


def _test_fold(lin):
    """det of the frozen-delay Jacobian sum_j A_j (fold test function)."""
    return float(np.linalg.det(sum(lin.A)))


def _make_point(lin, pvalue, roots_cfg):
    """Branch point at the equilibrium lin.xstar, with roots and test functions."""
    rts = characteristic_roots(lin, roots_cfg.count, roots_cfg.re_cutoff, roots_cfg.cheb_nodes)
    lams = tuple(lam for lam, _ in rts)
    return BranchPoint(
        param=float(pvalue),
        x=lin.xstar.copy(),
        roots=lams,
        test_hopf=_test_hopf(lams),
        test_fold=_test_fold(lin),
        stable=max((lam.real for lam in lams), default=float("-inf")) < 0.0,
    )


def continue_branch(
    model,
    assignments,
    free_name,
    prange,
    x_guess,
    step=StepSettings(),
    roots=RootSettings(),
    direction="both",
):
    """Continue the equilibrium branch over prange, detecting Hopf/fold points.

    Returns an ordered list of BranchPoint; detected bifurcations appear as
    extra points with event set to "HOPF" or "FOLD", located to 1e-8 in
    (x, p). Leaving the range, or the delay domain (a delay outside
    [0, tau_max]), terminates the corresponding direction normally.
    direction is "both", "forward" (increasing parameter) or "backward";
    anything else raises ModelError.
    """
    if free_name not in model.param_names:
        raise ModelError(f"unknown free parameter {free_name!r}")
    signs = _leg_signs(direction)
    fidx = model.param_names.index(free_name)
    pvec = model.params_from(assignments)
    lo, hi = float(min(prange)), float(max(prange))
    p0 = float(pvec[fidx])
    if not (lo <= p0 <= hi):
        raise ModelError(f"initial {free_name}={p0} outside range [{lo}, {hi}]")
    n = model.n
    system = _branch_system(model, pvec, fidx)

    def solve_at(pval, x_seed):
        return np.append(solve_equilibrium(model, _with_param(pvec, fidx, pval), x_seed), pval)

    def lin_at(y):
        return linearize(model, _with_param(pvec, fidx, y[n]), y[:n])

    def steps(sgn):
        """A natural first step, then arclength steps; the last lands on the range end."""
        p1 = p0 + sgn * step.initial
        if not (lo <= p1 <= hi):
            return
        y1 = solve_at(p1, x0)
        yield y1
        for y in _arclength(system, y1, y1 - y0, step,
                            "continuation step underflow (corrector keeps failing)"):
            if not lo <= y[n] <= hi:
                yield solve_at(hi if y[n] > hi else lo, y[:n])
                return
            yield y

    def value(y, event):
        lin = lin_at(y)
        if event == "FOLD":  # det(sum A_j) needs no roots
            return _test_fold(lin), (lin, None)
        point = _make_point(lin, y[n], roots)
        return point.test_hopf, (lin, point)

    x0 = solve_equilibrium(model, pvec, x_guess)
    y0 = np.append(x0, p0)
    start = _make_point(linearize(model, pvec, x0), p0, roots)
    tests = [_Test(f"test_{event.lower()}", partial(value, event=event),
                   partial(_branch_event, event, roots), slice(None), 1e-8)
             for event in ("HOPF", "FOLD")]
    return _continue(system, (y0, start), steps, signs, step.max_points,
                     lambda y: _make_point(lin_at(y), y[n], roots), tests)


def _branch_event(event, roots, y, payload, ends):
    """The located HOPF or FOLD point; None for a Hopf pair that fails validation.

    A FOLD's roots are computed here, at the located point only.
    """
    lin, point = payload
    point = replace(point or _make_point(lin, y[-1], roots), event=event)
    if event == "FOLD":
        return point
    pair = [lam for lam in point.roots if lam.imag > _IM_TOL]
    if not pair:
        return None
    cand = min(pair, key=lambda z: abs(z.real))
    try:
        return replace(point, omega=hopf_eigendata(lin, cand.imag).omega)
    except (DegenerateEigenvalueError, ConvergenceError) as err:
        warnings.warn(f"Hopf candidate at {point.param:.8g} failed validation: {err}")
        return None


def _branch_system(model, pvec_base, fidx):
    """Residual and exact Jacobian of the equilibrium condition in y = [x, p_free]."""
    n = model.n

    def residual(y):
        return model.equilibrium_residual(_with_param(pvec_base, fidx, y[n]), y[:n])

    def jacobian(y):
        A, fp = model.frozen_derivatives(_with_param(pvec_base, fidx, y[n]), y[:n])
        return np.hstack([A.sum(axis=0), fp[:, [fidx]]])

    return residual, jacobian


# ---------------------------------------------------------------------------
# two-parameter Hopf curves


@dataclass(frozen=True)
class HopfCurvePoint:
    params: tuple          # values of the two free parameters
    x: np.ndarray
    omega: float
    q0: np.ndarray         # the unit, phase-fixed q of eigentriple
    residual: float
    L1: float | None = None
    event: str | None = None


def _free_indices(model, free_names):
    names = tuple(free_names)
    if len(names) != 2 or len(set(names)) != 2:
        raise ModelError("Hopf-curve continuation needs two distinct free parameters")
    for name in names:
        if name not in model.param_names:
            raise ModelError(f"unknown free parameter {name!r}")
    return tuple(model.param_names.index(name) for name in names)


# The extended Hopf system at one y: its parts, linearization, and Delta and Delta' at i omega
_HopfState = namedtuple("_HopfState", "x q omega params lin D dD")


def _hopf_system(model, pvec_base, free, c_row, lin=None):
    """Residual, exact Jacobian and state of the extended Hopf system, y = [x, Re q, Im q, omega, p1, p2].

    state(y) is y's _HopfState. The state of the last y is kept, so the
    residual and the Jacobian at one y share one linearization and one
    Delta(i omega), and a caller taking eigendata at y can use its lin. The
    last linearization is kept apart, keyed on (x, p) only: a y that moves
    only q or omega gets new Delta and Delta' at i omega but no new
    linearization. lin, a linearization the caller already has, starts it.

    With E_j = exp(-i omega tau_j), w = Delta(i omega) q moves along a state
    component or free parameter z by -sum_j (d_z A_j - i omega d_z tau_j A_j) E_j q.
    """
    n = model.n
    last = [None, None]   # bytes of the last y, its state
    lins = [None if lin is None else lin.xstar.tobytes() + lin.params.tobytes(), lin]

    def state(y):
        key = y.tobytes()
        if key != last[0]:
            y = np.array(y, dtype=float)
            x, omega = y[:n], y[3 * n]
            pv = _with_param(pvec_base, free, y[3 * n + 1 : 3 * n + 3])
            lin_key = x.tobytes() + pv.tobytes()
            if lin_key != lins[0]:
                lins[:] = lin_key, linearize(model, pv, x, check_equilibrium=False)
            lin = lins[1]
            last[:] = key, _HopfState(x, y[n : 2 * n] + 1j * y[2 * n : 3 * n], omega, pv, lin,
                                      *_delta_pair(lin, 1j * omega))
        return last[1]

    def residual(y):
        s = state(y)
        w = s.D @ s.q
        norm = c_row @ s.q - 1.0
        return np.concatenate([model.equilibrium_residual(s.params, s.x), w.real, w.imag,
                               [norm.real, norm.imag]])

    def jacobian(y):
        s = state(y)
        A, fp = model.frozen_derivatives(s.params, s.x)
        dA, dtau = model.frozen_derivatives(s.params, s.x, order=2)
        z = list(range(n)) + [n + k for k in free]  # x, then the free parameters
        E = np.exp(-1j * s.omega * np.array(s.lin.taus))
        dw = (1j * s.omega * (A @ s.q).T @ (E[:, None] * dtau[:, z])
              - np.tensordot(E, dA[..., z], 1).swapaxes(1, 2) @ s.q)
        W = np.hstack([dw[:, :n], s.D, 1j * s.D, (1j * s.dD @ s.q)[:, None], dw[:, n:]])
        N = np.concatenate([np.zeros(n), c_row, 1j * c_row, np.zeros(3)])
        eq = np.hstack([A.sum(axis=0), np.zeros((n, 2 * n + 1)), fp[:, free]])
        return np.vstack([eq, W.real, W.imag, N.real, N.imag])

    return residual, jacobian, state


def _start_hopf_curve(model, assignments, free_names, x_guess, omega_guess):
    """Solve the extended Hopf system with the second free parameter fixed.

    Returns (y, c_row, system) where y stacks [x, Re q, Im q, omega, p1, p2]
    and system is the _hopf_system it solved, at y last. The linearization
    at the guess, taken for the null vectors, starts the system, so the
    first Newton iterate (the same x and p) reuses it.
    """
    f1, f2 = _free_indices(model, free_names)
    pvec = model.params_from(assignments)
    x0 = np.asarray(x_guess, dtype=float)
    try:
        x0 = solve_equilibrium(model, pvec, x0)
    except ConvergenceError:
        pass  # the full extended solve below still gets a chance
    lin = linearize(model, pvec, x0, check_equilibrium=False)
    q0, _ = _null_vectors(char_matrix(lin, 1j * float(omega_guess)))
    c_row = q0.conj() / (q0.conj() @ q0)

    y = np.concatenate([x0, q0.real, q0.imag, [float(omega_guess), pvec[f1], pvec[f2]]])
    system = _hopf_system(model, pvec, [f1, f2], c_row, lin)
    residual, jacobian, _ = system
    z, _, _ = newton(  # x, q, omega and p1 free; p2 = y[-1] fixed
        lambda z: residual(np.append(z, y[-1])), lambda z: jacobian(np.append(z, y[-1]))[:, :-1],
        y[:-1], tol=1e-11, max_iters=30,
    )
    return np.append(z, y[-1]), c_row, system


def continue_hopf_curve(
    model,
    assignments,
    free_names,
    x_guess,
    omega_guess,
    step=StepSettings(initial=0.1),
    monitor_l1=False,
    deriv_settings=None,
    direction="both",
):
    """Pseudo-arclength continuation of a Hopf curve in two parameters.

    Every accepted point satisfies the extended system to corrector
    tolerance; with monitor_l1 the first Lyapunov coefficient is computed
    at each point and its sign changes are located on the curve to 1e-6 in
    (p1, p2) and reported as L1_ZERO events (degenerate Hopf, Bautin
    candidate). A sign change through a pole of L1 is a warning instead.
    direction is "both", "forward" (first free parameter increasing at the
    start) or "backward"; anything else raises ModelError.
    """
    f1, f2 = _free_indices(model, free_names)
    signs = _leg_signs(direction)
    n = model.n
    # the system of the start, whose state is already at y0, newton's last iterate
    y0, _, (residual, jacobian, state) = _start_hopf_curve(model, assignments, free_names,
                                                           x_guess, omega_guess)
    system = (residual, jacobian)
    pars = slice(3 * n + 1, 3 * n + 3)

    def pair_at(y):
        """Linearization at y and EigenData of its critical pair, which must be simple."""
        lin = state(y).lin
        try:
            return lin, hopf_pair(lin, 1j * y[3 * n])
        except DegenerateEigenvalueError as err:
            raise DegenerateEigenvalueError(
                f"loss of simplicity of the critical pair along the Hopf curve: {err}"
            ) from None

    def curve_l1(lin, eig):
        return hopf_l1(model, lin.params, lin.xstar, eig.omega, settings=deriv_settings, eig=eig,
                       lin=lin).L1

    def point_at(y, monitor=monitor_l1):
        lin, eig = pair_at(y)
        return HopfCurvePoint(
            params=(float(y[3 * n + 1]), float(y[3 * n + 2])),
            x=y[:n].copy(),
            omega=float(y[3 * n]),
            q0=eig.q0,
            residual=float(np.max(np.abs(residual(y)))),
            L1=curve_l1(lin, eig) if monitor else None,
        )

    def steps(sgn):
        """Arclength steps from the nullspace tangent of the extended system."""
        _, _, Vh = np.linalg.svd(jacobian(y0))
        tangent = Vh[-1]
        # deterministic orientation: first free parameter increases for sgn=+1
        ref = tangent[3 * n + 1]
        if abs(ref) < 1e-12:
            ref = tangent[int(np.argmax(np.abs(tangent)))]
        return _arclength(system, y0, tangent * (np.sign(ref) * sgn), step,
                          "Hopf-curve corrector failure after step underflow")

    def l1_zero(y, l1, ends):
        if abs(l1) < min(abs(pt.L1) for pt in ends):
            return replace(point_at(y, monitor=False), L1=l1, event="L1_ZERO")
        where = ", ".join(f"{model.param_names[k]}={v:.8g}" for k, v in zip((f1, f2), y[pars]))
        warnings.warn(f"L1 changes sign through a pole, not a zero, at {where} "
                      f"(L1 = {l1:.6g}): no L1_ZERO reported")
        return None

    tests = ([_Test("L1", lambda y: (curve_l1(*pair_at(y)),) * 2, l1_zero, pars, 1e-6)]
             if monitor_l1 else [])
    return _continue(system, (y0, point_at(y0)), steps, signs, step.max_points, point_at, tests)
