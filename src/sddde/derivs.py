"""Directional and multilinear derivatives of the functional at an equilibrium.

Along an exponential-polynomial direction v the functional of an sd-DDE is
analytic in the deviation, state-dependent delays included, so

    D^jF(x*)[v]^j = j!/(2 pi i) oint F(x* + delta v) delta^(-j-1) d delta,

and the trapezoid rule on a circle |delta| = r converges geometrically
(Lyness & Moler, SIAM J. Numer. Anal. 4, 1967; Bornemann, Found. Comput.
Math. 11, 2011). Derivatives are computed as a stack, the rows of one
TermStack: one vectorized call evaluates F at N = 8 * 2**(levels - 1) nodes
on the circle of every row, each on its own row of nodes; each coarser
level reads every other node, so the consistency row costs no further
evaluations. Every derivative goes through _derivatives:
directional_derivative is its stack of one, and multilinear_forms polarizes
the complex directions of its forms into one stack.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import DelayRangeError, NumericalError, SdddeError
from .histfun import TermStack

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


def _gaps(error, size, scale):
    """Largest |error| per job along the last axis of the 2-d error, and the
    tolerance of an estimate of magnitude size whose parts reach scale."""
    by_size, by_scale = _CONSISTENCY_REL * size, 1e-8 * (1.0 + scale)
    return np.max(np.abs(error), axis=0), np.where(by_scale > by_size, by_scale, by_size)


def _refusal(what, gap, tol):
    return NumericalError(
        f"derivative accuracy insufficient: {what} {gap:.2e} (tolerance {tol:.2e})"
    )


def consistency_refusal(what, error, size, scale):
    """The NumericalError when error exceeds what an estimate of magnitude
    size, whose parts reach scale, may be off by; else None."""
    (gap,), tol = _gaps(np.reshape(error, (-1, 1)), size, scale)
    return _refusal(what, gap, float(tol)) if gap > tol else None


def _taylor_row(values, nodes, orders, levels):
    """Taylor coefficients of each job's order from the nodes of each level:
    values (n, K, N) to rows (levels, n, K). Level m reads every
    2**(levels - 1 - m)-th node, as a run at levels = m + 1 reads all."""
    row = []
    for m in range(levels):
        stride = 2 ** (levels - 1 - m)
        sub = np.ascontiguousarray(values[..., ::stride])
        weights = {order: np.conj(nodes[::stride]) ** order for order in set(orders)}
        row.append(np.sum(sub * np.array([weights[o] for o in orders]), axis=-1) / sub.shape[-1])
    return np.array(row)


def _derivatives(model, params, xstar, stack, orders, settings, tau_max):
    """Rows of node levels, shape (levels, n), of D^jF[v] for each row v of
    the TermStack stack, real-valued (conjugate-paired; its row is real) or
    complex, and its order j in orders.

    F is evaluated on a circle of radius settings.radius, for v scaled to
    unit sup norm, and at its centre; the circles of all jobs are one
    eval_on_nodes call on their rows. The nodes of each job must bear out
    that F is analytic inside: the circle's mean is F(x*) (a singularity
    inside breaks it), the top level agrees with the next and, along a real
    direction, the result is real. A job that a check refuses halves its
    radius, at most _HALVINGS times, and goes to the next stack. A stacked
    call that fails as a whole (a delay out of range, a floating-point
    error) cannot name its direction, so its jobs go on as stacks of one.
    Row entry m is bit for bit the value that levels = m + 1 gives, and
    every row is the one its job gives alone. The error of the first job
    in list order that is still refused is raised.
    """
    levels = settings.levels
    count = _COARSE_NODES * 2 ** (levels - 1)
    nodes = np.exp(2j * np.pi * np.arange(count) / count)
    real = stack.is_real().tolist()
    norms = stack.sup_norms(-tau_max, 0.0).tolist()
    radius, halvings = [settings.radius] * len(stack), [0] * len(stack)
    rows = [np.zeros((levels, model.n), dtype=float if r else complex) for r in real]
    scale = np.array([1.0 / norm if norm != 0.0 else 0.0 for norm in norms])
    unit = stack.with_coefs(stack.coefs * scale[:, None, None])  # as ExpPoly * scale[k]
    queue = [[k for k, norm in enumerate(norms) if norm != 0.0]]
    failed = {}
    while queue:
        first_failed = min(failed, default=len(stack))
        jobs = [k for k in queue.pop(0) if k < first_failed]
        if not jobs:
            continue
        deltas = np.array([np.append(radius[k] * nodes, 0.0) for k in jobs])
        try:
            values = model.eval_on_nodes(params, xstar, unit.take(jobs), deltas, tau_max)
        except (DelayRangeError, NumericalError) as err:
            if len(jobs) > 1:
                queue[:0] = [[k] for k in jobs]
                continue
            refused = {jobs[0]: err}
        else:
            circle, centre = values[..., :-1], values[..., -1]
            row = _taylor_row(circle, nodes, [orders[k] for k in jobs], levels)
            size = np.max(np.abs(row[-1]), axis=0)
            checks = [("circle mean misses F(x*) by", circle.mean(axis=-1) - centre,
                       np.max(np.abs(centre), axis=0), np.max(np.abs(circle), axis=(0, 2)))]
            if levels > 1:
                checks.append(("node levels disagree by", row[-1] - row[-2], size, size))
            checks.append(("real direction has imaginary part",
                           row[-1].imag * np.array([real[k] for k in jobs]), size, size))
            refused = {}
            for what, error, *bounds in checks:  # a job keeps its first refusal
                gap, tol = _gaps(error, *bounds)
                for i in np.flatnonzero(gap > tol):
                    refused.setdefault(jobs[i], _refusal(what, gap[i], tol[i]))
            for i, k in enumerate(jobs):
                if k not in refused:
                    order = orders[k]
                    rows[k] = (row[:, :, i].real if real[k] else row[:, :, i]) * (
                        factorial(order) * (norms[k] / radius[k]) ** order
                    )
        retry = []
        for k, err in refused.items():
            if halvings[k] == _HALVINGS:
                failed[k] = err
            else:
                halvings[k] += 1
                radius[k] /= 2
                retry.append(k)
        if retry:
            queue.insert(0, retry)
    if failed:
        raise failed[min(failed)]
    return rows


def directional_derivative(model, params, xstar, v, order, settings=None, *, all_levels=False):
    """Order-j derivative of delta -> F(x* + delta v) at delta = 0.

    v is an ExpPoly, real-valued (conjugate-paired; the result is real) or
    complex; order is at most MAX_ORDER. It is _derivatives' stack of one,
    with its checks and radius halving. all_levels returns the row of node
    levels, shape (levels, n): entry m is bit for bit the value that
    levels = m + 1 gives.
    """
    settings = settings or DerivSettings()
    if not (1 <= order <= MAX_ORDER):
        raise SdddeError(f"derivative order must be in 1..{MAX_ORDER}, got {order}")
    tau_max = model.resolve_tau_max(params, xstar)
    (row,) = _derivatives(model, params, xstar, TermStack([v]), [order], settings, tau_max)
    return row if all_levels else row[-1]


def multilinear_forms(model, params, xstar, forms, settings=None, *, all_levels=False):
    """Symmetric forms F_j(v_1, ..., v_j), one per list of complex ExpPoly
    directions in forms, from one stack of derivatives.

    Polarization over the directions as they are,
    F_j = sum over eps in {+1, -1}^(j-1) of (prod eps) D^jF[v_1 + sum eps_i v_i]
    / (2^(j-1) j!); a sum that vanishes has norm 0, so _derivatives skips it.
    all_levels returns the rows of node levels as in directional_derivative.
    """
    settings = settings or DerivSettings()
    if not all(1 <= len(directions) <= MAX_ORDER for directions in forms):
        raise SdddeError(f"multilinear_form supports orders 1..{MAX_ORDER}")
    tau_max = model.resolve_tau_max(params, xstar)
    given = TermStack([v for directions in forms for v in directions])
    sums, jobs, first = [], [], 0
    for f, directions in enumerate(forms):
        summed = given.take([first])  # row s: v_1 + sum eps_i v_i, eps_i = -1 per set bit of s
        for w in range(first + 1, first + len(directions)):
            summed = summed.plus_minus(given.take([w]))
        first += len(directions)
        sums.append(summed.coefs)
        jobs += [(f, (-1) ** bin(s).count("1"), len(directions)) for s in range(len(summed))]
    rows = _derivatives(model, params, xstar, given.with_coefs(np.concatenate(sums)),
                        [order for *_, order in jobs], settings, tau_max)
    out = [np.zeros((settings.levels, model.n), dtype=complex) for _ in forms]
    for (f, sign, _), row in zip(jobs, rows):
        out[f] += sign * row
    for f, directions in enumerate(forms):
        out[f] /= 2 ** (len(directions) - 1) * factorial(len(directions))
    return out if all_levels else [form[-1] for form in out]


def multilinear_form(model, params, xstar, directions, settings=None, *, all_levels=False):
    """Symmetric j-linear form F_j(v_1, ..., v_j) for complex ExpPoly
    directions, j at most MAX_ORDER: multilinear_forms of one form."""
    (form,) = multilinear_forms(model, params, xstar, [directions], settings,
                                all_levels=all_levels)
    return form
