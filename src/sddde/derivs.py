"""Directional and multilinear derivatives of the functional at an equilibrium.

Along an exponential-polynomial direction v the functional of an sd-DDE is
analytic in the deviation, state-dependent delays included, so

    D^jF(x*)[v]^j = j!/(2 pi i) oint F(x* + delta v) delta^(-j-1) d delta,

and the trapezoid rule on a circle |delta| = r converges geometrically
(Lyness & Moler, SIAM J. Numer. Anal. 4, 1967; Bornemann, Found. Comput.
Math. 11, 2011). One vectorized call evaluates F at N = 8 * 2**(levels - 1)
nodes; each coarser level reads every other node, so the consistency row
costs no further evaluations. Symmetric j-linear forms come from
polarization over the complex directions themselves. Every derivative goes
through directional_derivative.
"""

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import DelayRangeError, NumericalError, SdddeError
from .histfun import combine, sup_norm

MAX_ORDER = 5

_COARSE_NODES = 8
_CONSISTENCY_REL = 1e-4
_HALVINGS = 8


@dataclass(frozen=True)
class DerivSettings:
    radius: float = 0.25
    levels: int = 2

    def __post_init__(self):
        if not (0.0 < self.radius <= 1.0):
            raise SdddeError("radius must lie in (0, 1]")
        if not (1 <= self.levels <= 6):
            raise SdddeError("levels must lie in 1..6")


def check_consistency(what, error, size, scale):
    """NumericalError when error exceeds what an estimate of magnitude size,
    whose parts reach scale, may be off by."""
    gap = float(np.max(np.abs(error)))
    tol = max(_CONSISTENCY_REL * size, 1e-8 * (1.0 + scale))
    if gap > tol:
        raise NumericalError(
            f"derivative accuracy insufficient: {what} {gap:.2e} (tolerance {tol:.2e})"
        )


def _taylor_row(values, nodes, order, levels):
    """Order-th Taylor coefficient from the nodes of each level; level m reads
    every 2**(levels - 1 - m)-th node, as a run at levels = m + 1 reads all."""
    row = []
    for m in range(levels):
        stride = 2 ** (levels - 1 - m)
        sub = np.ascontiguousarray(values[:, ::stride])
        weights = np.conj(nodes[::stride]) ** order
        row.append(np.sum(sub * weights, axis=1) / sub.shape[1])
    return np.array(row)


def directional_derivative(
    model, params, xstar, v, order, settings=None, tau_max=None, *, all_levels=False
):
    """Order-j derivative of delta -> F(x* + delta v) at delta = 0.

    v is an ExpPoly, real-valued (conjugate-paired; the result is real) or
    complex; order is at most MAX_ORDER. F is evaluated on the circle of
    radius settings.radius, for v scaled to unit sup norm, and at its centre
    in one call. The nodes must bear out that F is analytic inside: the
    circle's mean is F(x*) (a singularity inside breaks it), the top level
    agrees with the next and, along a real direction, the result is real.
    When a check refuses or a delay leaves its range, the radius halves, at
    most _HALVINGS times; then the error is raised. all_levels returns the
    row of node levels, shape (levels, n): entry m is bit for bit the value
    that levels = m + 1 gives.
    """
    settings = settings or DerivSettings()
    if not (1 <= order <= MAX_ORDER):
        raise SdddeError(f"derivative order must be in 1..{MAX_ORDER}, got {order}")
    if tau_max is None:
        tau_max = model.resolve_tau_max(params, xstar)

    real = (v - v.conjugate()).is_zero
    nrm = sup_norm(v, -tau_max, 0.0)
    if nrm == 0.0:
        row = np.zeros((settings.levels, model.n), dtype=float if real else complex)
        return row if all_levels else row[-1]
    direction = v * (1.0 / nrm)
    count = _COARSE_NODES * 2 ** (settings.levels - 1)
    nodes = np.exp(2j * np.pi * np.arange(count) / count)
    radius = settings.radius
    for halving in itertools.count():
        try:
            deltas = np.append(radius * nodes, 0.0)
            values = model.eval_on_nodes(params, xstar, direction, deltas, tau_max)
            circle, centre = values[:, :-1], values[:, -1]
            row = _taylor_row(circle, nodes, order, settings.levels)
            size = float(np.max(np.abs(row[-1])))
            check_consistency(
                "circle mean misses F(x*) by", circle.mean(axis=1) - centre,
                float(np.max(np.abs(centre))), float(np.max(np.abs(circle))),
            )
            if settings.levels > 1:
                check_consistency("node levels disagree by", row[-1] - row[-2], size, size)
            if real:
                check_consistency("real direction has imaginary part", row[-1].imag, size, size)
            break
        except (DelayRangeError, NumericalError):
            if halving == _HALVINGS:
                raise
            radius /= 2
    row = (row.real if real else row) * (factorial(order) * (nrm / radius) ** order)
    return row if all_levels else row[-1]


def multilinear_form(model, params, xstar, directions, settings=None, *, all_levels=False):
    """Symmetric j-linear form F_j(v_1, ..., v_j) for complex ExpPoly directions.

    Polarization over the directions as they are,
    F_j = sum over eps in {+1, -1}^(j-1) of (prod eps) D^jF[v_1 + sum eps_i v_i]
    / (2^(j-1) j!); a sum that vanishes contributes nothing and is skipped.
    all_levels returns the row of node levels as in directional_derivative.
    """
    settings = settings or DerivSettings()
    j = len(directions)
    if not (1 <= j <= 3):
        raise SdddeError("multilinear_form supports orders 1..3")
    tau_max = model.resolve_tau_max(params, xstar)
    out = np.zeros((settings.levels, model.n), dtype=complex)
    for eps in itertools.product((1, -1), repeat=j - 1):
        summed = directions[0]
        for e, w in zip(eps, directions[1:]):
            summed = combine(1.0, summed, float(e), w)
        if not summed.is_zero:
            out += np.prod(eps) * directional_derivative(
                model, params, xstar, summed, j, settings, tau_max=tau_max, all_levels=True
            )
    out /= 2 ** (j - 1) * factorial(j)
    return out if all_levels else out[-1]
