"""Method-of-steps initial-value solver, used as a dynamical oracle.

Fixed-step classical RK4 on Python floats. Each stage calls the model's
compiled float functional on the dense state itself: node values and
slopes as float lists, the initial history for times up to 0, and the
tentative next node of the current step. That code reads delayed values by
the cubic Hermite formula of :func:`_hermite`, which also serves
:class:`Trajectory`. When an evaluated delay is shorter than the step the
stage values are resolved by a small number of fixed-point sweeps over the
tentative node.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SdddeError
from .model import _floats, as_history, history_floats

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
    evals: int            # functional evaluations: 4 per sweep, plus the first slope

    @property
    def n(self):
        return self.y.shape[1]

    def __call__(self, time):
        """Dense evaluation; exact at nodes, cubic Hermite in between, no extrapolation."""
        if not math.isfinite(time):
            raise SdddeError("time must be finite")
        if time <= 0.0:
            return np.asarray(self.history(time), dtype=float)
        near = int(round(time / self.step))
        if 0 <= near < len(self.t) and abs(time - self.t[near]) <= 1e-12 * max(1.0, abs(time)):
            return self.y[near].copy()
        if time > self.t[-1]:
            raise SdddeError(f"time {time:.6g} is beyond the trajectory end {self.t[-1]:.6g}")
        return np.array(_interpolate(self.y, self.yp, self.step, time))


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


def simulate(model, params, history, t_end, step):
    """Integrate the sd-DDE from a history on [-tau_max, 0] to t_end.

    history may be an ExpPoly, a constant vector, or a callable; step is
    the fixed RK4 step, and t_end must be a whole number of steps (to a
    relative 1e-9). Stage values needing not-yet-computed history are
    resolved by fixed-point sweeps (error if they do not settle).
    """
    if not 0.0 < step < math.inf:
        raise SdddeError("step must be positive and finite")
    if not math.isfinite(t_end):
        raise SdddeError("t_end must be finite")
    hist = as_history(history, model.n)
    x0 = history_floats(hist(0.0), model.n)
    tau_max = model.resolve_tau_max(params, x0)

    nsteps = int(round(t_end / step))
    if nsteps < 1:
        raise SdddeError("t_end must cover at least one step")
    if abs(nsteps * step - t_end) > 1e-9 * abs(t_end):
        raise SdddeError(f"t_end={t_end:g} is not a whole number of steps of {step:g}")
    P = _floats(params, (model.n_p,), "parameter vector")

    F = model._functional
    h = step
    y, yp = [x0], []   # node values and slopes; during step k, y[k + 1] is tentative
    sweeps = 0
    yp.append(F(P, hist, tau_max, x0, 0.0, h, 0, y, yp)[0])
    for k in range(nsteps):
        t0 = k * h
        y0, k1 = y[k], yp[k]
        y.append(y0)  # the first tentative node repeats node k
        yp.append(k1)
        for _ in range(_SWEEP_LIMIT):
            sweeps += 1
            k2, used2 = F(P, hist, tau_max, [a + (h / 2) * b for a, b in zip(y0, k1)],
                          t0 + h / 2, h, k, y, yp)
            k3, used3 = F(P, hist, tau_max, [a + (h / 2) * b for a, b in zip(y0, k2)],
                          t0 + h / 2, h, k, y, yp)
            k4, used4 = F(P, hist, tau_max, [a + h * b for a, b in zip(y0, k3)],
                          t0 + h, h, k, y, yp)
            y_new = [a + (h / 6) * (b1 + 2 * b2 + 2 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)]
            m_new, used5 = F(P, hist, tau_max, y_new, t0 + h, h, k, y, yp)
            settled = not (used2 or used3 or used4 or used5) or all(  # a NaN never settles
                abs(a - b) <= _SWEEP_TOL for a, b in zip(y_new + m_new, y[-1] + yp[-1])
            )
            y[-1], yp[-1] = y_new, m_new
            if settled:
                break
        else:
            raise ConvergenceError(
                f"fixed-point sweeps for short delays did not settle at t={t0 + h:.6g}"
            )

    return Trajectory(t=np.arange(nsteps + 1) * h, y=np.array(y), yp=np.array(yp),
                      history=hist, step=step, evals=1 + 4 * sweeps)
