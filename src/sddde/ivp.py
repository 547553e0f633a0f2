"""Method-of-steps initial-value solver, used as a dynamical oracle.

Fixed-step classical RK4 on Python floats (Bellen & Zennaro, *Numerical
Methods for Delay Differential Equations*, OUP 2003). :func:`simulate`
validates its inputs and hands the run to the loop the model compiles on the
first run (``Model.rk4_steps``), its one float evaluator of the functional:
the first slope, and every step, sweep and stage after it, is straight-line
code on scalar locals that reads the dense state itself, the initial history
for times up to 0, and the tentative next node of the current step. The dense
state is one flat list of floats per component for the node values and one
for the slopes; a step appends and replaces floats, so the loop allocates no
object the cyclic garbage collector has to track and scan again, and the
lists become the C-contiguous arrays of :class:`Trajectory` once, at the
end. The loop reads delayed values by the cubic Hermite formula of
:func:`_hermite`, which also serves :class:`Trajectory`. When an evaluated
delay is shorter than the step the stage values are resolved by a small
number of fixed-point sweeps over the tentative node.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SdddeError
from .model import _floats, as_history, history_floats


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

    y, yp, sweeps = model.rk4_steps(P, hist, tau_max, step, nsteps, x0)
    return Trajectory(t=np.arange(nsteps + 1) * step, y=y, yp=yp, history=hist, step=step,
                      evals=1 + 4 * sweeps)
