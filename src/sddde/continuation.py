"""Equilibrium branches, bifurcation detection, and Hopf-curve continuation.

Branches and Hopf curves share one pseudo-arclength stepper, _arclength
(secant predictor, corrector, step halving and growth). On branches the
test functions _test_hopf (real part of the rightmost complex pair) and
_test_fold (determinant of the frozen-delay Jacobian) are evaluated at
every accepted point.

Hopf curves are continued in two parameters through the extended real
system {equilibrium residual; Re/Im of Delta(i w) q0; Re/Im of (c.q0 - 1)}
with the normalization row c frozen per curve. L1 can be monitored along
the curve. A sign change of any test function (HOPF, FOLD, L1_ZERO)
between two accepted points is located by one Illinois secant along the
curve, _locate_zero. Every Newton step takes the exact Jacobian of its
system, built from the model's symbolic slot derivatives.
"""

import math
import warnings
from dataclasses import dataclass, replace

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
    _nullity,
    char_matrix,
    char_matrix_deriv,
    characteristic_roots,
    hopf_eigendata,
    linearize,
    phase_fixed,
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


@dataclass(frozen=True)
class RootSettings:
    count: int = 6
    re_cutoff: float = 2.0
    cheb_nodes: int = 32

    def __post_init__(self):
        if not self.count >= 1:
            raise SdddeError("count must be at least 1")
        if not math.isfinite(self.re_cutoff):
            raise SdddeError("re_cutoff must be finite")
        if not self.cheb_nodes >= 1:
            raise SdddeError("cheb_nodes must be at least 1")


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
    """Accepted pseudo-arclength steps (y, h) from y, computed lazily.

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
        yield y_new, h
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
# one-parameter equilibrium branches


@dataclass(frozen=True)
class BranchPoint:
    param: float
    x: np.ndarray
    roots: tuple
    test_hopf: float
    test_fold: float
    stable: bool
    step: float
    event: str | None = None
    omega: float | None = None


def _with_param(pvec, idx, value):
    pv = pvec.copy()
    pv[idx] = value
    return pv


def _roots(lin, cfg):
    rts = characteristic_roots(lin, cfg.count, cfg.re_cutoff, cfg.cheb_nodes)
    return tuple(lam for lam, _ in rts)


def _test_hopf(lams):
    """Largest real part of a complex root (Hopf test function); -inf if none."""
    complex_res = [lam.real for lam in lams if abs(lam.imag) > _IM_TOL]
    return max(complex_res) if complex_res else float("-inf")


def _test_fold(lin):
    """det of the frozen-delay Jacobian sum_j A_j (fold test function)."""
    return float(np.linalg.det(sum(lin.A)))


def _make_point(lin, pvalue, roots_cfg, step):
    """Branch point at the equilibrium lin.xstar, with roots and test functions."""
    lams = _roots(lin, roots_cfg)
    return BranchPoint(
        param=float(pvalue),
        x=lin.xstar.copy(),
        roots=lams,
        test_hopf=_test_hopf(lams),
        test_fold=_test_fold(lin),
        stable=max((lam.real for lam in lams), default=float("-inf")) < 0.0,
        step=float(step),
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
    extra points with event set to "HOPF" or "FOLD". Leaving the range
    terminates the corresponding direction normally. direction is "both",
    "forward" (increasing parameter) or "backward"; anything else raises
    ModelError.
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

    x0 = solve_equilibrium(model, pvec, x_guess)
    start = _make_point(linearize(model, pvec, x0), p0, roots, 0.0)
    legs = {
        sgn: _branch_leg(model, pvec, fidx, (lo, hi), start, sgn, step, roots) for sgn in signs
    }
    return list(reversed(legs.get(-1.0, []))) + [start] + legs.get(+1.0, [])


def _branch_system(model, pvec_base, fidx):
    """Residual and exact Jacobian of the equilibrium condition in y = [x, p_free]."""
    n = model.n

    def residual(y):
        return model.equilibrium_residual(_with_param(pvec_base, fidx, y[n]), y[:n])

    def jacobian(y):
        A, fp = model.frozen_derivatives(_with_param(pvec_base, fidx, y[n]), y[:n])
        return np.hstack([A.sum(axis=0), fp[:, [fidx]]])

    return residual, jacobian


def _branch_leg(model, pvec_base, fidx, bounds, start, sgn, step, roots):
    """One direction: a natural first step, then arclength steps to the range end."""
    lo, hi = bounds
    n = model.n
    system = _branch_system(model, pvec_base, fidx)
    out = []

    def solve_at(pval, x_seed):
        return solve_equilibrium(model, _with_param(pvec_base, fidx, pval), x_seed)

    def lin_at(y):
        return linearize(model, _with_param(pvec_base, fidx, y[n]), y[:n])

    def accept(pval, x, h):
        prev = out[-1] if out else start
        y = np.append(x, pval)
        out.append(_make_point(lin_at(y), y[n], roots, h))
        _detect_events(system, lin_at, roots, prev, out[-1], out)

    p1 = start.param + sgn * step.initial
    if not (lo <= p1 <= hi):
        return out
    x1 = solve_at(p1, start.x)
    accept(p1, x1, sgn * step.initial)
    y1 = np.concatenate([x1, [p1]])
    steps = _arclength(
        system, y1, y1 - np.concatenate([start.x, [start.param]]), step,
        "continuation step underflow (corrector keeps failing)",
    )
    while len(out) < step.max_points:
        y_new, h = next(steps, (None, None))
        if y_new is None:
            break
        p_new = float(y_new[n])
        if lo <= p_new <= hi:
            accept(p_new, y_new[:n], h)
            continue
        # land exactly on the boundary and stop this leg
        p_end = hi if p_new > hi else lo
        accept(p_end, solve_at(p_end, y_new[:n]), sgn * h)
        break
    return out


def _detect_events(system, lin_at, roots, pt_a, pt_b, out):
    """Locate the test-function zeros between two branch points on the branch.

    Each bracketed sign change of test_hopf or test_fold is located by
    _locate_zero on the branch system, to 1e-8 along the chord in (x, p):
    the parameter alone stops moving at a fold. The event point is the
    locator's last evaluation; FOLD iterates need only det(sum A_j), so
    their roots are computed once, at the located point. Events are
    inserted before pt_b, in their order along the chord.
    """
    ya, yb = (np.append(pt.x, pt.param) for pt in (pt_a, pt_b))
    seg = yb - ya
    located = []
    for event, test in (("HOPF", "test_hopf"), ("FOLD", "test_fold")):
        va, vb = getattr(pt_a, test), getattr(pt_b, test)
        if not (np.isfinite(va) and np.isfinite(vb) and np.sign(va) * np.sign(vb) < 0):
            continue

        def value(y, event=event):
            lin = lin_at(y)
            if event == "FOLD":
                return _test_fold(lin), (lin, None)
            point = _make_point(lin, y[-1], roots, pt_b.step)
            return point.test_hopf, (lin, point)

        y, (lin, point) = _locate_zero(system, value, ya, yb, va, vb, np.linalg.norm(seg), 1e-8)
        point = replace(point or _make_point(lin, y[-1], roots, pt_b.step), event=event)
        if event == "HOPF":
            pair = [lam for lam in point.roots if lam.imag > _IM_TOL]
            if not pair:
                continue
            cand = min(pair, key=lambda z: abs(z.real))
            try:
                point = replace(point, omega=hopf_eigendata(lin, cand.imag).omega)
            except (DegenerateEigenvalueError, ConvergenceError) as err:
                warnings.warn(f"Hopf candidate at {point.param:.8g} failed validation: {err}")
                continue
        located.append(((y - ya) @ seg, point))
    if located:
        last = out.pop()
        out.extend(point for _, point in sorted(located, key=lambda e: e[0]))
        out.append(last)


# ---------------------------------------------------------------------------
# two-parameter Hopf curves


@dataclass(frozen=True)
class HopfCurvePoint:
    params: tuple          # values of the two free parameters
    x: np.ndarray
    omega: float
    q0: np.ndarray         # phase-fixed copy
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


def _hopf_system(model, pvec_base, free, c_row):
    """Residual and exact Jacobian of the extended Hopf system, y = [x, Re q, Im q, omega, p1, p2].

    With E_j = exp(-i omega tau_j), w = Delta(i omega) q moves along a state
    component or free parameter z by -sum_j (d_z A_j - i omega d_z tau_j A_j) E_j q.
    """
    n = model.n

    def unpack(y):
        pv = _with_param(pvec_base, free, y[3 * n + 1 : 3 * n + 3])
        return y[:n], y[n : 2 * n] + 1j * y[2 * n : 3 * n], y[3 * n], pv

    def residual(y):
        x, q, omega, pv = unpack(y)
        lin = linearize(model, pv, x, check_equilibrium=False)
        eqres = model.equilibrium_residual(pv, x)
        w = char_matrix(lin, 1j * omega) @ q
        norm = c_row @ q - 1.0
        return np.concatenate([eqres, w.real, w.imag, [norm.real, norm.imag]])

    def jacobian(y):
        x, q, omega, pv = unpack(y)
        lin = linearize(model, pv, x, check_equilibrium=False)
        A, fp = model.frozen_derivatives(pv, x)
        dA, dtau = model.frozen_derivatives(pv, x, order=2)
        z = list(range(n)) + [n + k for k in free]  # x, then the free parameters
        E = np.exp(-1j * omega * np.array(lin.taus))
        dw = (1j * omega * (A @ q).T @ (E[:, None] * dtau[:, z])
              - np.tensordot(E, dA[..., z], 1).swapaxes(1, 2) @ q)
        D = char_matrix(lin, 1j * omega)
        dD = 1j * char_matrix_deriv(lin, 1j * omega) @ q
        W = np.hstack([dw[:, :n], D, 1j * D, dD[:, None], dw[:, n:]])
        N = np.concatenate([np.zeros(n), c_row, 1j * c_row, np.zeros(3)])
        eq = np.hstack([A.sum(axis=0), np.zeros((n, 2 * n + 1)), fp[:, free]])
        return np.vstack([eq, W.real, W.imag, N.real, N.imag])

    return residual, jacobian


def start_hopf_curve(model, assignments, free_names, x_guess, omega_guess):
    """Solve the extended Hopf system with the second free parameter fixed.

    Returns (y, c_row) where y stacks [x, Re q, Im q, omega, p1, p2].
    """
    f1, f2 = _free_indices(model, free_names)
    pvec = model.params_from(assignments)
    x0 = np.asarray(x_guess, dtype=float)
    try:
        x0 = solve_equilibrium(model, pvec, x0)
    except ConvergenceError:
        pass  # the full extended solve below still gets a chance
    lin = linearize(model, pvec, x0, check_equilibrium=False)
    D = char_matrix(lin, 1j * float(omega_guess))
    _, _, Vh = np.linalg.svd(D)
    q0 = Vh[-1].conj()
    c_row = q0.conj() / (q0.conj() @ q0)

    y = np.concatenate([x0, q0.real, q0.imag, [float(omega_guess), pvec[f1], pvec[f2]]])
    residual, jacobian = _hopf_system(model, pvec, [f1, f2], c_row)
    z, _, _ = newton(  # x, q, omega and p1 free; p2 = y[-1] fixed
        lambda z: residual(np.append(z, y[-1])), lambda z: jacobian(np.append(z, y[-1]))[:, :-1],
        y[:-1], tol=1e-11, max_iters=30,
    )
    return np.append(z, y[-1]), c_row


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
    at each point and its sign changes are refined on the curve and
    reported as L1_ZERO events (degenerate Hopf, Bautin candidate).
    direction is "both", "forward" (first free parameter increasing at the
    start) or "backward"; anything else raises ModelError.
    """
    f1, f2 = _free_indices(model, free_names)
    signs = _leg_signs(direction)
    pvec_base = model.params_from(assignments)
    n = model.n
    y0, c_row = start_hopf_curve(model, assignments, free_names, x_guess, omega_guess)
    system = _hopf_system(model, pvec_base, [f1, f2], c_row)
    residual = system[0]

    def curve_l1(y):
        pv = _with_param(pvec_base, [f1, f2], y[3 * n + 1 : 3 * n + 3])
        return hopf_l1(model, pv, y[:n], y[3 * n], settings=deriv_settings).L1

    def make_point(y, event=None, L1=None):
        res = float(np.max(np.abs(residual(y))))
        q = y[n : 2 * n] + 1j * y[2 * n : 3 * n]
        point = HopfCurvePoint(
            params=(float(y[3 * n + 1]), float(y[3 * n + 2])),
            x=y[:n].copy(),
            omega=float(y[3 * n]),
            q0=phase_fixed(q / np.linalg.norm(q))[0],
            residual=res,
            L1=None,
            event=event,
        )
        if _simplicity_lost(model, pvec_base, f1, f2, y, n):
            raise DegenerateEigenvalueError(
                "loss of simplicity of the critical pair along the Hopf curve"
            )
        if monitor_l1:
            point = replace(point, L1=curve_l1(y) if L1 is None else L1)
        return point

    start = make_point(y0)
    legs = {sgn: _curve_leg(system, make_point, y0, sgn, step, n) for sgn in signs}
    forward = legs.get(+1.0, [])
    backward = legs.get(-1.0, [])
    pts = [pt for _, pt in reversed(backward)] + [start] + [pt for _, pt in forward]
    ys = [y for y, _ in reversed(backward)] + [y0] + [y for y, _ in forward]

    if monitor_l1:
        pts = _locate_l1_zeros(system, make_point, curve_l1, ys, pts, n)
    return pts


def _curve_leg(system, make_point, y_start, sgn, step, n):
    """One direction: arclength steps from the nullspace tangent of the extended system."""
    _, _, Vh = np.linalg.svd(system[1](y_start))
    tangent = Vh[-1]
    # deterministic orientation: first free parameter increases for sgn=+1
    ref = tangent[3 * n + 1]
    if abs(ref) < 1e-12:
        ref = tangent[int(np.argmax(np.abs(tangent)))]
    steps = _arclength(
        system, y_start, tangent * (np.sign(ref) * sgn), step,
        "Hopf-curve corrector failure after step underflow",
    )
    out = []
    try:
        while len(out) < step.max_points:
            y_new, _ = next(steps, (None, None))
            if y_new is None:
                break
            out.append((y_new, make_point(y_new)))
    except DelayRangeError:
        pass  # the curve left the model's delay domain: end this leg
    return out


def _simplicity_lost(model, pvec_base, f1, f2, y, n):
    pv = _with_param(pvec_base, [f1, f2], y[3 * n + 1 : 3 * n + 3])
    lin = linearize(model, pv, y[:n], check_equilibrium=False)
    return _nullity(char_matrix(lin, 1j * y[3 * n])) > 1


def _locate_l1_zeros(system, make_point, curve_l1, ys, pts, n):
    """Insert an L1_ZERO event at each L1 sign change, located to 1e-6 in (p1, p2)."""
    out = list(pts)
    inserted = 0
    for k in range(len(pts) - 1):
        a, b = pts[k], pts[k + 1]
        if a.L1 is None or b.L1 is None or a.L1 == 0.0:
            continue
        if np.sign(a.L1) * np.sign(b.L1) >= 0:
            continue
        seg = ys[k + 1] - ys[k]
        span = np.hypot(seg[3 * n + 1], seg[3 * n + 2])  # (p1, p2) distance per unit t
        y_t, l_t = _locate_zero(
            system, lambda y: (curve_l1(y),) * 2, ys[k], ys[k + 1], a.L1, b.L1, span, 1e-6
        )
        out.insert(k + 1 + inserted, make_point(y_t, event="L1_ZERO", L1=l_t))
        inserted += 1
    return out
