"""Directional and multilinear derivatives of the functional at an equilibrium.

Along an exponential-polynomial direction v the functional of an sd-DDE is
analytic in the deviation, state-dependent delays included, so

    D^jF(x*)[v]^j = j!/(2 pi i) oint F(x* + delta v) delta^(-j-1) d delta,

and the trapezoid rule on a circle |delta| = r converges geometrically
(Lyness & Moler, SIAM J. Numer. Anal. 4, 1967; Bornemann, Found. Comput.
Math. 11, 2011). Derivatives are computed as a stack: one vectorized call
evaluates F at N = 8 * 2**(levels - 1) nodes on the circle of every
direction of the stack, each direction on its own row of nodes; each
coarser level reads every other node, so the consistency row costs no
further evaluations. Symmetric j-linear forms come from polarization over
the complex directions themselves. Every derivative goes through
_derivatives: directional_derivative is its stack of one, and
multilinear_forms polarizes a list of forms into one stack.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import DelayRangeError, NumericalError, SdddeError
from .histfun import TermStack, combine

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


def check_consistency(what, error, size, scale):
    """NumericalError when error exceeds what an estimate of magnitude size,
    whose parts reach scale, may be off by."""
    (gap,), tol = _gaps(np.reshape(error, (-1, 1)), size, scale)
    if gap > tol:
        raise _refusal(what, gap, float(tol))


def _is_real(v):
    """v equals its conjugate: every term's conjugate is a term, exactly."""
    terms = {(power, exponent): coef for coef, power, exponent in v.terms}
    for coef, power, exponent in v.terms:
        partner = terms.get((power, exponent.conjugate()))
        if partner is None or not (partner == np.conj(coef)).all():
            return False
    return True


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


def _derivatives(model, params, xstar, jobs, settings, tau_max):
    """Rows of node levels, shape (levels, n), of D^jF[v] for each (v, j) in jobs.

    Each v is an ExpPoly, real-valued (conjugate-paired; its row is real)
    or complex. F is evaluated on a circle of radius settings.radius, for v
    scaled to unit sup norm, and at its centre; the circles of all jobs are
    one stacked eval_on_nodes call. The nodes of each job must bear out that
    F is analytic inside: the circle's mean is F(x*) (a singularity inside
    breaks it), the top level agrees with the next and, along a real
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
    real = [_is_real(v) for v, _ in jobs]
    norms = TermStack([v for v, _ in jobs]).sup_norms(-tau_max, 0.0).tolist()
    radius = [settings.radius] * len(jobs)
    halvings = [0] * len(jobs)
    rows = [np.zeros((levels, model.n), dtype=float if r else complex) for r in real]
    directions = {k: v * (1.0 / norms[k]) for k, (v, _) in enumerate(jobs) if norms[k] != 0.0}
    queue = [list(directions)]
    failed = {}
    while queue:
        first_failed = min(failed, default=len(jobs))
        stack = [k for k in queue.pop(0) if k < first_failed]
        if not stack:
            continue
        deltas = np.array([np.append(radius[k] * nodes, 0.0) for k in stack])
        try:
            values = model.eval_on_nodes(
                params, xstar, [directions[k] for k in stack], deltas, tau_max
            )
        except (DelayRangeError, NumericalError) as err:
            if len(stack) > 1:
                queue[:0] = [[k] for k in stack]
                continue
            refused = {stack[0]: err}
        else:
            circle, centre = values[..., :-1], values[..., -1]
            row = _taylor_row(circle, nodes, [jobs[k][1] for k in stack], levels)
            size = np.max(np.abs(row[-1]), axis=0)
            checks = [("circle mean misses F(x*) by", circle.mean(axis=-1) - centre,
                       np.max(np.abs(centre), axis=0), np.max(np.abs(circle), axis=(0, 2)))]
            if levels > 1:
                checks.append(("node levels disagree by", row[-1] - row[-2], size, size))
            checks.append(("real direction has imaginary part",
                           row[-1].imag * np.array([real[k] for k in stack]), size, size))
            refused = {}
            for what, error, *bounds in checks:  # a job keeps its first refusal
                gap, tol = _gaps(error, *bounds)
                for i in np.flatnonzero(gap > tol):
                    refused.setdefault(stack[i], _refusal(what, gap[i], tol[i]))
            for i, k in enumerate(stack):
                if k not in refused:
                    order = jobs[k][1]
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
    (row,) = _derivatives(model, params, xstar, [(v, order)], settings, tau_max)
    return row if all_levels else row[-1]


def multilinear_forms(model, params, xstar, forms, settings=None, *, all_levels=False):
    """Symmetric forms F_j(v_1, ..., v_j), one per list of complex ExpPoly
    directions in forms, from one stack of derivatives.

    Polarization over the directions as they are,
    F_j = sum over eps in {+1, -1}^(j-1) of (prod eps) D^jF[v_1 + sum eps_i v_i]
    / (2^(j-1) j!); a sum that vanishes contributes nothing and is skipped.
    all_levels returns the rows of node levels as in directional_derivative.
    """
    settings = settings or DerivSettings()
    if not all(1 <= len(directions) <= MAX_ORDER for directions in forms):
        raise SdddeError(f"multilinear_form supports orders 1..{MAX_ORDER}")
    tau_max = model.resolve_tau_max(params, xstar)
    jobs, signs = [], []
    for f, directions in enumerate(forms):
        sums = [((), directions[0])]  # (eps, v_1 + sum eps_i v_i), each prefix summed once
        for w in directions[1:]:
            sums = [(eps + (e,), combine(1.0, v, float(e), w)) for eps, v in sums for e in (1, -1)]
        for eps, summed in sums:
            if not summed.is_zero:
                jobs.append((summed, len(directions)))
                signs.append((f, np.prod(eps)))
    out = [np.zeros((settings.levels, model.n), dtype=complex) for _ in forms]
    for (f, sign), row in zip(signs, _derivatives(model, params, xstar, jobs, settings, tau_max)):
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
