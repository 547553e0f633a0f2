"""Hopf and fold normal forms on the center manifold.

The Hopf pipeline computes the order-2 center-manifold coefficients from
the characteristic matrix and the quadratic form, then the cubic
normal-form coefficient

    g21 = p0 [ F3 q q qbar + F2 qbar h20 + F2 q h11 ],    L1 = Re(g21)/(2 w),

with criticality subcritical for L1 > 0 and supercritical for L1 < 0.
Every form, F2(q, q), F2(q, qbar), F3(q, q, qbar) and the two on h20 and
h11, is a multilinear_form: contour-integral derivatives polarized over
the complex directions. The fold coefficient is the quadratic coefficient
on the one-dimensional center manifold of a simple zero root,
a = p0 F2(q, q) / 2.

hopf_h2 solves the HomologicalSystems of hopf_order2_systems, and
_solve_regular is the one regular solve, shared with the generic
homological-equation solver. Resonant orders carry a normal-form unknown
and are solved through a bordered system with the solution forced
orthogonal to the nullspace of L_h^T. hopf_l1 and fold_coefficient keep
the direct p0 formulas: off the bifurcation set the bordered alpha is a
different approximation.
"""

from dataclasses import dataclass, replace

import numpy as np

from .derivs import DerivSettings, check_consistency, multilinear_form
from .errors import DegenerateEigenvalueError, NumericalError, ResonanceError
from .histfun import ExpPoly
from .spectral import (
    EigenData,
    char_matrix,
    char_matrix_deriv,
    eigenfunction,
    hopf_eigendata,
    linearize,
    phase_fixed,
)

_DEGENERACY_TOL = 1e-8
_SINGULAR_TOL = 1e-10


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


def hopf_h2(model, params, xstar, eig, settings=None, lin=None, forms=None):
    """Order-2 center-manifold coefficients (h2_20, h2_11) as ExpPoly.

    h2_11 is constant, h2_20 a pure exp(2 i w theta) term. forms, if given,
    holds precomputed "f2qq" = F2(q, q) and "f2qqbar" = F2(q, qbar), else
    both come from multilinear_form. Raises ResonanceError when Delta(0)
    (fold-Hopf) or Delta(2 i w) (1:2 resonance) is singular.
    """
    lin = lin or linearize(model, params, xstar)
    if forms is None:
        q = eigenfunction(eig)
        forms = {name: multilinear_form(model, params, xstar, [q, w], settings)
                 for name, w in (("f2qq", q), ("f2qqbar", q.conjugate()))}
    f2qq, f2qqbar = forms["f2qq"], forms["f2qqbar"]
    sys20, sys11 = hopf_order2_systems(lin, eig, f2qq, f2qqbar)
    h20_coef = _solve_regular(
        sys20.L_h, sys20.rhs, "resonant Hopf: 1:2 resonance, Delta(2 i w) singular"
    )
    h11_coef = _solve_regular(
        sys11.L_h, sys11.rhs, "resonant Hopf: Delta(0) singular (fold-Hopf)"
    )
    h2_20 = ExpPoly.exponential(h20_coef, 2j * eig.omega)
    h2_11 = ExpPoly.constant(h11_coef)
    return h2_20, h2_11


def hopf_l1(model, params, xstar, omega_guess, settings=None, lin=None, eig=None):
    """Full Hopf normal form at an equilibrium with a simple pair near i w.

    The cubic bracket is evaluated at the configured node level and checked
    against the value one level coarser, read off the same circles;
    disagreement beyond the consistency tolerance raises "derivative
    accuracy insufficient". A given eig is re-fixed to the phase_fixed
    convention first, so externally rotated eigenvectors give the same
    result.
    """
    settings = settings or DerivSettings()
    params = np.asarray(params, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    lin = lin or linearize(model, params, xstar)
    if eig is None:
        eig = hopf_eigendata(lin, omega_guess)
    else:
        q0, phase = phase_fixed(eig.q0)
        if phase != 1.0:
            eig = replace(eig, q0=q0, p0=eig.p0 * phase)
    h2_20, h2_11 = hopf_h2(model, params, xstar, eig, settings, lin=lin)
    q = eigenfunction(eig)
    qbar = q.conjugate()
    terms = [
        multilinear_form(model, params, xstar, dirs, settings, all_levels=True)
        for dirs in ([q, q, qbar], [qbar, h2_20], [q, h2_11])
    ]
    rows = terms[0] + terms[1] + terms[2]
    bracket = rows[-1]
    if settings.levels > 1:
        scale = max(float(np.max(np.abs(t[-1]))) for t in terms)
        check_consistency(
            "node levels disagree by", bracket - rows[-2], float(np.max(np.abs(bracket))), scale
        )
    g21 = complex(eig.p0 @ bracket)
    L1 = g21.real / (2.0 * eig.omega)
    if L1 > _DEGENERACY_TOL:
        crit = "subcritical"
    elif L1 < -_DEGENERACY_TOL:
        crit = "supercritical"
    else:
        crit = "degenerate"
    return HopfNF(eig=eig, h2_20=h2_20, h2_11=h2_11, g21=g21, L1=L1, criticality=crit)


def fold_coefficient(model, params, xstar, settings=None, lin=None):
    """Quadratic coefficient a of the fold normal form at a simple zero root.

    a = p0 F2(q, q) / 2 with p0 Delta'(0) q0 = 1; the fold is
    non-degenerate iff a != 0.
    """
    params = np.asarray(params, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    lin = lin or linearize(model, params, xstar)
    D0 = char_matrix(lin, 0.0).real
    s = np.linalg.svd(D0, compute_uv=False)
    top = max(s[0], 1.0)
    if s[-1] > 1e-6 * top:
        raise DegenerateEigenvalueError(
            f"no zero root: smallest singular value of Delta(0) is {s[-1]:.2e}"
        )
    if lin.n > 1 and s[-2] < 1e-6 * top:
        raise DegenerateEigenvalueError("zero root is not simple")
    U, _, Vh = np.linalg.svd(D0)
    q0 = Vh[-1]
    p0 = U[:, -1]
    q0, _ = phase_fixed(q0)
    scale = p0 @ char_matrix_deriv(lin, 0.0).real @ q0
    if abs(scale) < 1e-8:
        raise DegenerateEigenvalueError(
            "zero root is not simple: |p0 Delta'(0) q0| ~ 0 before scaling"
        )
    p0 = p0 / scale
    q = ExpPoly.constant(q0)
    f2qq = multilinear_form(model, params, xstar, [q, q], settings)
    return float(0.5 * (p0 @ f2qq.real))


# ---------------------------------------------------------------------------
# generic homological systems


@dataclass(frozen=True)
class HomologicalSystem:
    """Linear system L_h h0 = L_alpha alpha + rhs for one monomial order.

    L_alpha has zero columns at non-resonant orders (alpha empty). When
    L_h is singular with kernel dimension d, [L_h, -L_alpha] must have
    full rank and alpha is the unique d-vector making the system solvable.
    """

    order: int
    L_h: np.ndarray
    L_alpha: np.ndarray
    rhs: np.ndarray
    kernel_dim: int


def homological_solve(sys):
    """(h0, alpha) for a HomologicalSystem.

    Non-resonant orders solve directly (alpha empty). Resonant orders use
    the bordered system that forces h0 orthogonal to null(L_h^T).
    """
    k = sys.L_h.shape[0]
    d = sys.L_alpha.shape[1] if sys.L_alpha.size else 0
    if d == 0:
        h0 = _solve_regular(
            sys.L_h, sys.rhs, "homological system is singular but carries no normal-form unknown"
        )
        return h0, np.zeros(0, dtype=complex)
    if sys.kernel_dim != d:
        raise NumericalError(
            f"normal-form unknown dimension {d} does not match kernel dimension "
            f"{sys.kernel_dim}"
        )
    U, s, _ = np.linalg.svd(sys.L_h)
    null_lh_t = U[:, k - d:].conj()  # columns span null(L_h^T)
    bordered = np.zeros((k + d, k + d), dtype=complex)
    bordered[:k, :k] = sys.L_h
    bordered[:k, k:] = -sys.L_alpha
    bordered[k:, :k] = null_lh_t.conj().T
    rhs = np.concatenate([sys.rhs, np.zeros(d, dtype=complex)])
    sb = np.linalg.svd(bordered, compute_uv=False)
    if sb[-1] < 1e-12 * max(sb[0], 1.0):
        raise NumericalError("bordered homological system is rank deficient")
    sol = np.linalg.solve(bordered, rhs)
    return sol[:k], sol[k:]


def hopf_order2_systems(lin, eig, f2qq, f2qqbar):
    """Homological systems whose solutions are the h2_20 / h2_11 coefficients."""
    sys20 = HomologicalSystem(
        order=2,
        L_h=char_matrix(lin, 2j * eig.omega),
        L_alpha=np.zeros((lin.n, 0), dtype=complex),
        rhs=np.asarray(f2qq, dtype=complex),
        kernel_dim=0,
    )
    sys11 = HomologicalSystem(
        order=2,
        L_h=char_matrix(lin, 0.0),
        L_alpha=np.zeros((lin.n, 0), dtype=complex),
        rhs=2.0 * np.asarray(f2qqbar, dtype=complex),
        kernel_dim=0,
    )
    return sys20, sys11


def hopf_order3_system(lin, eig, bracket):
    """Resonant order-3 system; alpha is the cubic coefficient g21/2.

    Built so that Re(alpha)/omega equals L1: L_h = Delta(i w), L_alpha =
    -Delta'(i w) q0, rhs = bracket/2.
    """
    return HomologicalSystem(
        order=3,
        L_h=char_matrix(lin, 1j * eig.omega),
        L_alpha=-(char_matrix_deriv(lin, 1j * eig.omega) @ eig.q0)[:, None],
        rhs=0.5 * np.asarray(bracket, dtype=complex),
        kernel_dim=1,
    )


def fold_order2_system(lin, q0, f2qq):
    """Resonant order-2 system at a simple zero root; alpha is the fold a."""
    return HomologicalSystem(
        order=2,
        L_h=char_matrix(lin, 0.0),
        L_alpha=-(char_matrix_deriv(lin, 0.0) @ np.asarray(q0, dtype=complex))[:, None],
        rhs=0.5 * np.asarray(f2qq, dtype=complex),
        kernel_dim=1,
    )
