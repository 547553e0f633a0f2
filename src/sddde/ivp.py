"""Method-of-steps initial-value solver, used as a dynamical oracle.

Fixed-step classical RK4 on Python floats; delayed values come from
cubic-Hermite dense output over completed steps (value and derivative per
node, kept as float lists and returned as arrays). When an evaluated delay
is shorter than the step the stage values are resolved by a small number
of fixed-point sweeps over a tentative interpolant for the current step.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SdddeError
from .model import as_history, history_floats

_SWEEP_LIMIT = 5
_SWEEP_TOL = 1e-12


@dataclass
class Trajectory:
    """Times, states, and dense-output data of one simulation run."""

    t: np.ndarray         # node times, t[0] = 0
    y: np.ndarray         # (N+1, n) states
    yp: np.ndarray        # (N+1, n) derivatives F(u_t) at the nodes
    history: object       # initial history callable on [-tau_max, 0]
    step: float

    @property
    def n(self):
        return self.y.shape[1]

    def __call__(self, time):
        """Dense evaluation; exact at nodes, cubic Hermite in between, no extrapolation."""
        if time <= 0.0:
            return np.asarray(self.history(time), dtype=float)
        near = int(round(time / self.step))
        if 0 <= near < len(self.t) and abs(time - self.t[near]) <= 1e-12 * max(1.0, abs(time)):
            return self.y[near].copy()
        if time > self.t[-1]:
            raise SdddeError(f"time {time:.6g} is beyond the trajectory end {self.t[-1]:.6g}")
        return np.array(_interpolate(self.y, self.yp, self.step, time))

    def tail_history(self, at_time):
        """History callable u_{at_time}(theta) for restarting a simulation."""

        def hist(theta):
            return self(at_time + theta)

        return hist


def _interpolate(y, yp, h, time):
    """Cubic Hermite value at time from nodes k*h with values y and slopes yp."""
    idx = int(time / h)
    s = (time - idx * h) / h
    return _hermite(y[idx], yp[idx], y[idx + 1], yp[idx + 1], s, h)


def _hermite(y0, m0, y1, m1, s, h):
    """Cubic Hermite on [0, h] at s in [0, 1], componentwise; a list of floats."""
    s2 = s * s
    s3 = s2 * s
    a, b, c, d = 2 * s3 - 3 * s2 + 1, (s3 - 2 * s2 + s) * h, -2 * s3 + 3 * s2, (s3 - s2) * h
    return [a * v0 + b * d0 + c * v1 + d * d1 for v0, d0, v1, d1 in zip(y0, m0, y1, m1)]


class _DenseState:
    """History access across {initial history, completed steps, tentative step}."""

    def __init__(self, history, step):
        self.history = history
        self.h = step
        self.y = []               # node values and slopes, lists of floats
        self.yp = []
        self.tentative = None     # (y_next, yp_next) during the current step
        self.used_tentative = False

    def value(self, time):
        if time <= 0.0:
            return self.history(time)
        h = self.h
        k = len(self.y) - 1      # completed steps span [0, k*h]
        if int(time / h) < k:
            return _interpolate(self.y, self.yp, h, time)
        if self.tentative is None:
            raise SdddeError("history query beyond computed trajectory")
        self.used_tentative = True
        s = (time - k * h) / h
        return _hermite(self.y[k], self.yp[k], *self.tentative, min(s, 1.0), h)


def simulate(model, params, history, t_end, step, tau_max=None):
    """Integrate the sd-DDE from a history on [-tau_max, 0] to t_end.

    history may be an ExpPoly, a constant vector, or a callable; step is
    the fixed RK4 step, and t_end must be a whole number of steps (to a
    relative 1e-9). Stage values needing not-yet-computed history are
    resolved by fixed-point sweeps (error if they do not settle).
    """
    if step <= 0:
        raise SdddeError("step must be positive")
    params = np.asarray(params, dtype=float)
    hist = as_history(history, model.n)
    x0 = history_floats(hist(0.0), model.n)
    if tau_max is None:
        tau_max = model.resolve_tau_max(params, x0)

    nsteps = int(round(t_end / step))
    if nsteps < 1:
        raise SdddeError("t_end must cover at least one step")
    if abs(nsteps * step - t_end) > 1e-9 * abs(t_end):
        raise SdddeError(f"t_end={t_end:g} is not a whole number of steps of {step:g}")

    dense = _DenseState(hist, step)
    dense.y.append(x0)

    def rhs(t_abs, y_cur):
        def u(theta):
            if theta == 0.0:
                return y_cur
            return dense.value(t_abs + theta)

        return model.eval_functional(params, u, tau_max=tau_max).tolist()

    dense.yp.append(rhs(0.0, x0))

    h = step
    for k in range(nsteps):
        t0 = k * h
        y0 = dense.y[-1]
        f0 = dense.yp[-1]
        y_next, m_next = y0, f0
        for _ in range(_SWEEP_LIMIT):
            dense.tentative = (y_next, m_next)
            dense.used_tentative = False
            k1 = f0
            k2 = rhs(t0 + h / 2, [a + (h / 2) * b for a, b in zip(y0, k1)])
            k3 = rhs(t0 + h / 2, [a + (h / 2) * b for a, b in zip(y0, k2)])
            k4 = rhs(t0 + h, [a + h * b for a, b in zip(y0, k3)])
            y_new = [a + (h / 6) * (b1 + 2 * b2 + 2 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)]
            m_new = rhs(t0 + h, y_new)
            settled = not dense.used_tentative or all(  # a NaN never settles
                abs(a - b) <= _SWEEP_TOL for a, b in zip(y_new + m_new, y_next + m_next)
            )
            y_next, m_next = y_new, m_new
            if settled:
                break
        else:
            raise ConvergenceError(
                f"fixed-point sweeps for short delays did not settle at t={t0 + h:.6g}"
            )
        dense.tentative = None
        dense.y.append(y_next)
        dense.yp.append(m_next)

    return Trajectory(
        t=np.arange(nsteps + 1) * h,
        y=np.array(dense.y),
        yp=np.array(dense.yp),
        history=hist,
        step=step,
    )
