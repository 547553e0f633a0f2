"""Directional and multilinear derivatives of the functional at an equilibrium.

The functional of an sd-DDE is differentiable at an equilibrium along smooth
exponential-polynomial directions. Order-j derivatives are taken by central
finite differences in the scalar deviation, Richardson-extrapolated; one
pass of stencils gives the whole Richardson row, so the consistency check
one level coarser costs no further evaluations. Forms in powers of one
eigenfunction, F_j(q^k, qbar^(j-k)), are phase-sampled along Re(e^{i phi} q);
general symmetric j-linear forms are recovered through the polarization
identity, and complex directions are split into real and imaginary parts
(the functional itself is only defined on real histories, so complex
perturbations of the state are never taken). Every derivative goes through
directional_derivative.
"""

import itertools
from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .errors import SdddeError
from .histfun import ExpPoly, combine, sup_norm

MAX_ORDER = 5

_NORM_SAMPLES = 201


@dataclass(frozen=True)
class DerivSettings:
    base_step: float = 5e-3
    richardson_levels: int = 2
    direction_normalization: bool = True

    def __post_init__(self):
        if not (1e-6 < self.base_step < 1e-1):
            raise SdddeError("base_step must lie in (1e-6, 1e-1)")
        if self.richardson_levels < 1:
            raise SdddeError("richardson_levels must be >= 1")


def _eval_stencil(model, params, xstar, direction, order, step, tau_max, centre):
    """Plain central-difference estimate of d^order/d delta^order F(x*+delta v).

    centre is F(x*), the zero-offset value of even orders, evaluated once per pass.
    """
    hist = direction.eval_real if isinstance(direction, ExpPoly) else direction
    total = np.zeros(model.n)
    for k in range(order + 1):
        offset = (order / 2 - k) * step
        coeff = (-1) ** k * comb(order, k)
        if offset == 0.0:
            value = centre
        else:
            value = model.eval_functional(params, _Perturbed(xstar, offset, hist), tau_max=tau_max)
        total += coeff * value
    return total / step**order


class _Perturbed:
    """History theta -> xstar + delta * v(theta)."""

    __slots__ = ("xstar", "delta", "vfun")

    def __init__(self, xstar, delta, vfun):
        self.xstar = xstar
        self.delta = delta
        self.vfun = vfun

    def __call__(self, theta):
        return self.xstar + self.delta * self.vfun(theta)


def directional_derivative(
    model, params, xstar, v, order, settings=None, tau_max=None, *, all_levels=False
):
    """Order-j derivative of delta -> F(x* + delta v) at delta = 0.

    v must be a real-valued (conjugate-paired) ExpPoly. Order is limited to
    MAX_ORDER; delays perturbed during stenciling must stay in range, which
    surfaces as DelayRangeError.

    With all_levels the top row of the Richardson tableau is returned, shape
    (richardson_levels, n): entry m is bit for bit the value that
    richardson_levels = m + 1 gives, so one pass of stencils yields both the
    estimate and its one-level-coarser consistency check.
    """
    settings = settings or DerivSettings()
    if not (1 <= order <= MAX_ORDER):
        raise SdddeError(f"derivative order must be in 1..{MAX_ORDER}, got {order}")
    params = np.asarray(params, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    if tau_max is None:
        tau_max = model.resolve_tau_max(params, xstar)

    scale = 1.0
    direction = v
    if settings.direction_normalization:
        nrm = sup_norm(v, -tau_max, 0.0, _NORM_SAMPLES)
        if nrm == 0.0:
            row = np.zeros((settings.richardson_levels, model.n))
            return row if all_levels else row[-1]
        scale = nrm
        direction = v * (1.0 / nrm)
    centre = model.eval_functional(params, xstar, tau_max=tau_max) if order % 2 == 0 else None
    row = _richardson_row(
        lambda h: _eval_stencil(model, params, xstar, direction, order, h, tau_max, centre),
        settings.base_step,
        settings.richardson_levels,
    ) * scale**order
    return row if all_levels else row[-1]


def _richardson_row(estimate, step, levels):
    """Top row T[0, m], m < levels, of the tableau over steps step / 2**i."""
    # central stencils have pure h^2 error expansions
    table = [estimate(step / 2**i) for i in range(levels)]
    row = [table[0]]
    for m in range(1, levels):
        table = [
            (4**m * table[i + 1] - table[i]) / (4**m - 1) for i in range(len(table) - 1)
        ]
        row.append(table[0])
    return np.array(row)


def _real_form(model, params, xstar, directions, settings, tau_max):
    """Richardson row of the symmetric j-linear form on real ExpPoly
    directions, via polarization."""
    j = len(directions)
    total = np.zeros((settings.richardson_levels, model.n))
    if any(w.is_zero for w in directions):
        return total
    # the eps <-> -eps terms are equal, so fix eps_1 = +1 and double
    for eps in itertools.product(*([(1,)] + [(1, -1)] * (j - 1))):
        summed = directions[0]
        for e, w in zip(eps[1:], directions[1:]):
            summed = combine(1.0, summed, float(e), w)
        sign = 1 if eps.count(-1) % 2 == 0 else -1
        total += sign * directional_derivative(
            model, params, xstar, summed, j, settings, tau_max=tau_max, all_levels=True
        )
    return 2.0 * total / (2**j * factorial(j))


def multilinear_form(
    model, params, xstar, directions, settings=None, tau_max=None, *, all_levels=False
):
    """Symmetric j-linear form F_j(v_1, ..., v_j) for complex ExpPoly directions.

    Complex directions are expanded by multilinearity into real/imaginary
    parts (2^j real form evaluations), each real form coming from the
    polarization identity over signed diagonal directional derivatives.
    all_levels returns the Richardson row as in directional_derivative.
    """
    settings = settings or DerivSettings()
    j = len(directions)
    if not (1 <= j <= 3):
        raise SdddeError("multilinear_form supports orders 1..3")
    params = np.asarray(params, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    if tau_max is None:
        tau_max = model.resolve_tau_max(params, xstar)
    parts = [(v.real_part(), v.imag_part()) for v in directions]
    out = np.zeros((settings.richardson_levels, model.n), dtype=complex)
    for which in itertools.product((0, 1), repeat=j):
        chosen = [parts[i][s] for i, s in enumerate(which)]
        contrib = _real_form(model, params, xstar, chosen, settings, tau_max)
        out += (1j) ** sum(which) * contrib
    return out if all_levels else out[-1]


def phase_forms(
    model, params, xstar, q, order, settings=None, tau_max=None, *, all_levels=False
):
    """Forms F_j(q^k, qbar^(j-k)), k = 0..j, from j + 1 phase samples.

    g(phi) = D^jF[Re(e^{i phi} q)] is a trigonometric polynomial whose
    e^{i(2k-j)phi} coefficient is 2^-j C(j,k) F_j(q^k, qbar^(j-k)), and
    g(phi + pi) = (-1)^j g(phi), so the samples phi_m = m pi/(j+1), m = 0..j,
    determine every coefficient: F2(q,q) and F2(q,qbar) from 3 directional
    derivatives, F3(q,q,qbar) from 4. Returns a list indexed by k;
    all_levels gives Richardson rows as in directional_derivative.
    """
    phis = np.pi * np.arange(order + 1) / (order + 1)
    samples = [
        directional_derivative(
            model, params, xstar, (q * np.exp(1j * phi)).real_part(), order, settings,
            tau_max=tau_max, all_levels=True,
        )
        for phi in phis
    ]
    forms = []
    for k in range(order + 1):
        weights = np.exp(-1j * (2 * k - order) * phis) * (2**order / comb(order, k) / (order + 1))
        rows = sum(w * g for w, g in zip(weights, samples))
        forms.append(rows if all_levels else rows[-1])
    return forms


def richardson_discrepancy(model, params, xstar, directions, settings=None, tau_max=None):
    """|form at (levels) - form at (levels - 1)|, both read off one tableau.

    Used as a smoothness diagnostic: a large gap between the extrapolated
    estimate and the one a level coarser flags a direction on which F is not
    smooth enough for the requested order. Zero when richardson_levels is 1.
    """
    row = multilinear_form(
        model, params, xstar, directions, settings, tau_max=tau_max, all_levels=True
    )
    return float(np.max(np.abs(row[-1] - row[max(len(row) - 2, 0)])))
