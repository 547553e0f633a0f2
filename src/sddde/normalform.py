"""Hopf and fold normal forms on the center manifold.

The Hopf pipeline computes the order-2 center-manifold coefficients from
the characteristic matrix and the quadratic form, then the cubic
normal-form coefficient

    g21 = p0 [ F3 q q qbar + F2 qbar h20 + F2 q h11 ],    L1 = Re(g21)/(2 w),

with criticality subcritical for L1 > 0 and supercritical for L1 < 0.
Every form, F2(q, q), F2(q, qbar), F3(q, q, qbar) and the two on h20 and
h11, is a multilinear form: contour-integral derivatives polarized over
the complex directions. hopf_l1 takes them from multilinear_forms in two
stacks: hopf_h2's F2(q, q) and F2(q, qbar) (3 derivatives), then the three
forms of the bracket (8 derivatives). The fold coefficient is the
quadratic coefficient on the one-dimensional center manifold of a simple
zero root, a = p0 F2(q, q) / 2.

The homological equations at order 2 are the two regular solves of
hopf_h2, Delta(2 i w) h20 = F2(q, q) and Delta(0) h11 = 2 F2(q, qbar),
both through _solve_regular. The resonant orders need no solve: hopf_l1
and fold_coefficient project onto p0 directly.
"""

from dataclasses import dataclass, replace

import numpy as np

from .derivs import (_HALVINGS, DerivSettings, consistency_refusal, multilinear_form,
                     multilinear_forms)
from .errors import DegenerateEigenvalueError, ResonanceError
from .histfun import ExpPoly
from .spectral import (EigenData, char_matrix, char_matrix_deriv, eigenfunction, eigentriple,
                       hopf_eigendata, linearize, phase_fixed, require_equilibrium)

_DEGENERACY_TOL = 1e-8
_SINGULAR_TOL = 1e-10
_HOPF_REAL_TOL = 1e-6  # |Re lam| of a Hopf root, relative to max(1, omega)


@dataclass(frozen=True)
class HopfNF:
    eig: EigenData
    h2_20: ExpPoly
    h2_11: ExpPoly
    g21: complex
    L1: float
    criticality: str


def _solve_regular(mat, rhs, what):
    s = np.linalg.svd(mat, compute_uv=False)
    if s[-1] < _SINGULAR_TOL * max(s[0], 1.0):
        raise ResonanceError(what)
    return np.linalg.solve(mat, rhs)


def hopf_h2(model, params, xstar, eig, settings=None, lin=None):
    """Order-2 center-manifold coefficients (h2_20, h2_11) as ExpPoly.

    h2_11 is constant, h2_20 a pure exp(2 i w theta) term; F2(q, q) and
    F2(q, qbar) come from one multilinear_forms stack. Raises ResonanceError
    when Delta(0) (fold-Hopf) or Delta(2 i w) (1:2 resonance) is singular.
    """
    lin = lin or linearize(model, params, xstar)
    q = eigenfunction(eig)
    f2qq, f2qqbar = multilinear_forms(model, params, xstar, [[q, q], [q, q.conjugate()]], settings)
    h20_coef = _solve_regular(
        char_matrix(lin, 2j * eig.omega), f2qq,
        "resonant Hopf: 1:2 resonance, Delta(2 i w) singular",
    )
    h11_coef = _solve_regular(
        char_matrix(lin, 0.0), 2.0 * f2qqbar, "resonant Hopf: Delta(0) singular (fold-Hopf)"
    )
    h2_20 = ExpPoly.exponential(h20_coef, 2j * eig.omega)
    h2_11 = ExpPoly.constant(h11_coef)
    return h2_20, h2_11


def hopf_l1(model, params, xstar, omega_guess, settings=None, eig=None, lin=None):
    """Full Hopf normal form at an equilibrium with a simple pair near i w.

    The cubic bracket is evaluated at the configured node level and checked
    against the value one level coarser, read off the same circles. A
    bracket they refuse is computed again at half the radius, as a refused
    job is, at most _HALVINGS times; then the last refusal ("derivative
    accuracy insufficient") is raised. h2 keeps its stage's radius. A given
    eig is re-fixed to the phase_fixed convention first, so externally
    rotated eigenvectors give the same result. A given lin is the caller's linearization at (params, xstar);
    the point must be an equilibrium either way. A root whose "real_part"
    residual |Re lam| exceeds 1e-6 max(1, w) is no Hopf root and raises
    DegenerateEigenvalueError.
    """
    settings = settings or DerivSettings()
    params = np.asarray(params, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    require_equilibrium(model, params, xstar)
    lin = lin or linearize(model, params, xstar, check_equilibrium=False)
    if eig is None:
        eig = hopf_eigendata(lin, omega_guess)
    else:
        q0, phase = phase_fixed(eig.q0)
        if phase != 1.0:
            eig = replace(eig, q0=q0, p0=eig.p0 * phase)
    real_part = eig.residuals.get("real_part", 0.0)
    if real_part > _HOPF_REAL_TOL * max(1.0, eig.omega):
        raise DegenerateEigenvalueError(
            f"not a Hopf point: the root near i*{eig.omega:.6g} has real part "
            f"|Re lambda| = {real_part:.3g}"
        )
    h2_20, h2_11 = hopf_h2(model, params, xstar, eig, settings, lin=lin)
    q = eigenfunction(eig)
    qbar = q.conjugate()
    for _ in range(_HALVINGS + 1):
        terms = multilinear_forms(model, params, xstar, [[q, q, qbar], [qbar, h2_20], [q, h2_11]],
                                  settings, all_levels=True)
        rows = terms[0] + terms[1] + terms[2]
        scale = max(float(np.max(np.abs(t[-1]))) for t in terms)
        refusal = settings.levels > 1 and consistency_refusal(
            "node levels disagree by", rows[-1] - rows[-2], float(np.max(np.abs(rows[-1]))), scale)
        if not refusal:
            break
        settings = replace(settings, radius=settings.radius / 2)
    else:
        raise refusal
    g21 = complex(eig.p0 @ rows[-1])
    L1 = g21.real / (2.0 * eig.omega)
    if L1 > _DEGENERACY_TOL:
        crit = "subcritical"
    elif L1 < -_DEGENERACY_TOL:
        crit = "supercritical"
    else:
        crit = "degenerate"
    return HopfNF(eig=eig, h2_20=h2_20, h2_11=h2_11, g21=g21, L1=L1, criticality=crit)


def fold_coefficient(model, params, xstar, settings=None):
    """Quadratic coefficient a of the fold normal form at a simple zero root.

    a = p0 F2(q, q) / 2 with (q0, p0) the eigentriple of the zero root,
    p0 Delta'(0) q0 = 1; the fold is non-degenerate iff a != 0.
    """
    params = np.asarray(params, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    lin = linearize(model, params, xstar)
    D0 = char_matrix(lin, 0.0).real
    s = np.linalg.svd(D0, compute_uv=False)
    top = max(s[0], 1.0)
    if s[-1] > 1e-6 * top:
        raise DegenerateEigenvalueError(
            f"no zero root: smallest singular value of Delta(0) is {s[-1]:.2e}"
        )
    if lin.n > 1 and s[-2] < 1e-6 * top:
        raise DegenerateEigenvalueError("zero root is not simple")
    q0, p0 = eigentriple(D0, char_matrix_deriv(lin, 0.0).real)
    q = ExpPoly.constant(q0)
    f2qq = multilinear_form(model, params, xstar, [q, q], settings)
    return float(0.5 * (p0 @ f2qq.real))
