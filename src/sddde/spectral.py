"""Frozen-delay linearization and spectral machinery.

The linearization at an equilibrium freezes the state-dependent delays at
their equilibrium values and differentiates the coefficient function slot
by slot. Its characteristic matrix is

    Delta(lambda) = lambda*I - sum_j A_j exp(-lambda*tau_j),

whose roots are the eigenvalues. Root finding seeds a Chebyshev
pseudospectral discretization of the generator and refines all seeds in one
batched Newton on the stacked bordered systems [Delta(lambda) q; c.q - 1] = 0,
each seed until its residual is below 1e-13 or stops falling below 1e-10 (the
roundoff floor). A Linearization keeps its seeds and their refinements, so
roots are computed once per linearization and seed prefix.

One simple-root rule: eigentriple alone decides whether lam is a simple
root, from one SVD of Delta(lam) that gives (q, p) with p Delta'(lam) q = 1;
it refuses nullity above 1 and |p Delta' q| < 1e-8 for unit null vectors (a
Jordan chain). Hopf and fold normal forms, Hopf-curve points and
the spectral projection all use it. Every critical eigenvector follows one
phase convention, phase_fixed: its largest-magnitude component is real positive.

The resolvent acts in closed form on ExpPoly data. The spectral projection
P_c, from contour moments, maps an ExpPoly to theta^k exp(z theta) terms,
one per critical root z and Jordan-chain position k; the contour nodes of a
root are solved as one stack, with no ExpPoly built per node.
"""

import warnings
from dataclasses import dataclass, field
from math import factorial, perm, pi

import numpy as np

from .errors import ConvergenceError, DegenerateEigenvalueError, NumericalError, SdddeError
from .histfun import ExpPoly, combine

_RESIDUAL_TOL = 1e-10
_NULLITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Linearization:
    """Matrices A_j and frozen delays tau_j of the linearized problem.

    The instance is frozen and its arrays are never written after `linearize`
    builds them, so `characteristic_roots` keeps its root seeds here: per
    cheb_nodes, the sorted generator eigenvalues and the refinement results of
    the longest seed prefix refined so far. Equality and hashing are by
    identity; the memo takes no part in repr.
    """

    A: tuple            # m matrices, each (n, n)
    taus: tuple         # m frozen delays, taus[0] == 0
    params: np.ndarray
    xstar: np.ndarray
    _seeds: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self):
        return self.A[0].shape[0]

    @property
    def tau_span(self):
        return max(self.taus)


def require_equilibrium(model, params, xstar):
    """NumericalError unless f(x*, ..., x*, p) is at most 1e-10 in every component."""
    res = model.equilibrium_residual(params, xstar)
    if np.max(np.abs(res)) > 1e-10:
        raise NumericalError(
            f"linearize requires an equilibrium; residual is {np.max(np.abs(res)):.3e}"
        )


def linearize(model, params, xstar, check_equilibrium=True):
    """Linearization at an equilibrium: A_j = df/dx@j exactly, from the model's derivative ASTs."""
    params = np.asarray(params, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    if check_equilibrium:
        require_equilibrium(model, params, xstar)
    A, _ = model.frozen_derivatives(params, xstar)
    taus = model.frozen_delays(params, xstar)
    return Linearization(tuple(A), tuple(float(t) for t in taus), params, xstar)


def char_matrix(lin, lam):
    """Delta(lambda) = lambda*I - sum_j A_j exp(-lambda*tau_j), (..., n, n) for an array."""
    lam = np.asarray(lam)[..., None, None]
    out = lam * np.eye(lin.n, dtype=complex)
    for Aj, tau in zip(lin.A, lin.taus):
        out = out - Aj * np.exp(-lam * tau)
    return out


def char_matrix_deriv(lin, lam):
    """d/dlambda of the characteristic matrix: I + sum_j tau_j A_j e^{-lam tau_j}."""
    lam = np.asarray(lam)[..., None, None]
    out = np.eye(lin.n, dtype=complex)
    for Aj, tau in zip(lin.A, lin.taus):
        out = out + tau * Aj * np.exp(-lam * tau)
    return out


# ---------------------------------------------------------------------------
# pseudospectral seeding


def _cheb(nnodes):
    """Chebyshev extreme points on [-1, 1] and differentiation matrix."""
    x = np.cos(np.arange(nnodes + 1) * pi / nnodes)
    c = np.hstack([2.0, np.ones(nnodes - 1), 2.0]) * (-1.0) ** np.arange(nnodes + 1)
    X = np.tile(x, (nnodes + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(nnodes + 1))
    D -= np.diag(D.sum(axis=1))
    return x, D


def _interp_row(theta_nodes, weights, y):
    d = y - theta_nodes
    hit = np.abs(d) < 1e-13
    if np.any(hit):
        row = np.zeros(theta_nodes.size)
        row[np.argmax(hit)] = 1.0
        return row
    q = weights / d
    return q / q.sum()


def generator_eigenvalues(lin, cheb_nodes=32):
    """Eigenvalues of the Chebyshev-discretized linear generator (root seeds)."""
    n = lin.n
    span = lin.tau_span
    if span == 0.0:
        return np.linalg.eigvals(sum(lin.A))
    x, D = _cheb(cheb_nodes)
    theta = (x - 1.0) * span / 2.0        # theta_0 = 0, theta_N = -span
    Dth = D * (2.0 / span)
    M = np.kron(Dth, np.eye(n))
    w = np.hstack([0.5, np.ones(cheb_nodes - 1), 0.5]) * (-1.0) ** np.arange(cheb_nodes + 1)
    row = np.zeros((n, n * (cheb_nodes + 1)))
    for Aj, tau in zip(lin.A, lin.taus):
        row += np.kron(_interp_row(theta, w, -tau), Aj)
    M[:n, :] = row
    return np.linalg.eigvals(M)


def _null_vectors(mat):
    """(right, left) unit null-ish vectors from the smallest singular pair."""
    U, _, Vh = np.linalg.svd(mat)
    return Vh[-1].conj(), U[:, -1].conj()


def _nullity(mat):
    """Numerical nullity of a matrix, or of each matrix of a stack."""
    s = np.linalg.svd(mat, compute_uv=False)
    return np.sum(s < _NULLITY_TOL * np.maximum(s[..., :1], 1.0), axis=-1)


def _refine_roots(lin, seeds, max_iter=40):
    """Newton on [Delta(lam) q; c.q - 1] from all seeds at once, one stack of
    bordered systems per step. A seed freezes once its residual is below 1e-13,
    or below _RESIDUAL_TOL and no smaller than at its previous step: Newton
    then sits at the roundoff floor, which for |lam| >~ 10 lies above 1e-13.
    Each seed's iterates depend on that seed alone, so a batch gives bit for
    bit what its members give in batches of one.

    Returns per seed (lam, q, residual) with unit q, or its ConvergenceError.
    """
    n = lin.n
    lam = np.array(seeds, dtype=complex)
    q = np.linalg.svd(char_matrix(lin, lam))[2][:, -1].conj()
    cc = q.conj()
    out, live = [None] * lam.size, np.arange(lam.size)
    last = np.full(lam.size, np.inf)
    for _ in range(max_iter):
        D = char_matrix(lin, lam[live])
        r = np.concatenate([D @ q[live, :, None], cc[live, None] @ q[live, :, None] - 1.0], axis=1)
        size = np.max(np.abs(r), axis=(1, 2))
        go = ~((size < 1e-13) | ((size < _RESIDUAL_TOL) & (size >= last[live])))
        last[live] = size
        live, D, r = live[go], D[go], r[go]
        if not live.size:
            break
        J = np.zeros((live.size, n + 1, n + 1), dtype=complex)
        J[:, :n, :n] = D
        J[:, :n, n:] = char_matrix_deriv(lin, lam[live]) @ q[live, :, None]
        J[:, n, :n] = cc[live]
        try:
            delta = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:  # solve seed by seed and retire the singular ones
            delta = np.zeros_like(r)
            for i, k in enumerate(live):
                try:
                    delta[i] = np.linalg.solve(J[i], -r[i])
                except np.linalg.LinAlgError:
                    out[k] = ConvergenceError(f"singular bordered system at lambda={lam[k]:.6g}")
            keep = np.array([out[k] is None for k in live])
            live, delta = live[keep], delta[keep]
        q[live] = q[live] + delta[:, :n, 0]
        lam[live] = lam[live] + delta[:, n, 0]
    q = q / np.array([np.linalg.norm(v) for v in q]).reshape(-1, 1)
    res = char_matrix(lin, lam) @ q[:, :, None]
    for k in [k for k, err in enumerate(out) if err is None]:
        residual = float(np.linalg.norm(res[k, :, 0]))
        out[k] = ConvergenceError(
            f"root refinement stalled near lambda={lam[k]:.6g} (residual {residual:.2e})"
        ) if residual > _RESIDUAL_TOL else (complex(lam[k]), q[k], residual)
    return out


def refine_root(lin, lam0, max_iter=40):
    """_refine_roots from the one seed lam0: (lam, q, residual), or raises ConvergenceError."""
    result = _refine_roots(lin, [lam0], max_iter)[0]
    if isinstance(result, ConvergenceError):
        raise result
    return result


def characteristic_roots(lin, count=8, re_cutoff=2.0, cheb_nodes=32):
    """Roots of det Delta with Re >= -re_cutoff, sorted by descending real part.

    Returns a list of (root, multiplicity); multiplicity is the numerical
    nullity of Delta at the root. Fewer roots than requested, or dropped
    seeds, are reported as warnings.

    The seeds with Re >= -re_cutoff - 0.5 are a prefix of the generator
    eigenvalues sorted by descending real part. `lin` keeps the seeds and the
    results of the longest prefix refined so far, so a later call refines only
    the seeds beyond it; as refinement is per seed, every call returns what it
    returns on a fresh linearization.
    """
    if count < 1:
        raise SdddeError("count must be >= 1")
    if cheb_nodes not in lin._seeds:
        seeds = generator_eigenvalues(lin, cheb_nodes)
        order = np.lexsort((-seeds.imag, -seeds.real))  # descending Re, ties by Im
        lin._seeds[cheb_nodes] = (seeds[order], [])
    seeds, results = lin._seeds[cheb_nodes]
    seeds = seeds[: np.count_nonzero(seeds.real >= -re_cutoff - 0.5)]
    if seeds.size > len(results):
        results += _refine_roots(lin, seeds[len(results):])
    found = []
    for seed, result in zip(seeds, results):
        if len(found) >= 4 * count:
            break
        if isinstance(result, ConvergenceError):
            warnings.warn(f"dropped root seed {seed:.4g}: {result}", stacklevel=2)
            continue
        lam = result[0]
        if lam.real < -re_cutoff:
            continue
        if any(abs(lam - other) < 1e-8 * (1.0 + abs(other)) for other in found):
            continue
        found.append(lam)
        if abs(lam.imag) > 1e-9:
            found.append(lam.conjugate())
    found.sort(key=lambda z: (-z.real, abs(z.imag), -np.sign(z.imag)))
    found = found[:count] if len(found) > count else found
    # keep conjugate pairs intact after truncation
    if found and abs(found[-1].imag) > 1e-9 and found[-1].conjugate() not in found:
        found.append(found[-1].conjugate())
        found.sort(key=lambda z: (-z.real, abs(z.imag), -np.sign(z.imag)))
    if len(found) < count:
        warnings.warn(f"requested {count} roots, found {len(found)}", stacklevel=2)
    return [(lam, int(k)) for lam, k in zip(found, _nullity(char_matrix(lin, found)))]


# ---------------------------------------------------------------------------
# Hopf eigendata


@dataclass(frozen=True)
class EigenData:
    """Critical pair +-i*omega with normalized right/adjoint eigenvectors.

    Invariants: Delta(i w) q0 ~ 0, p0 Delta(i w) ~ 0, p0 Delta'(i w) q0 = 1,
    and the largest-magnitude component of q0 is real positive (phase_fixed).
    """

    omega: float
    q0: np.ndarray
    p0: np.ndarray
    residuals: dict = field(default_factory=dict)

    @property
    def lam(self):
        return 1j * self.omega


def phase_fixed(v):
    """(v / phase, phase) for the unit phase of v's largest-|.| component, so
    that component of v / phase is real positive (a real v is sign-flipped)."""
    k = int(np.argmax(np.abs(v)))
    phase = v[k] / abs(v[k])
    return v / phase, phase


def eigentriple(D, dD):
    """(q, p) of the simple root lam of D = Delta(lam), dD = Delta'(lam), from
    one SVD of D: q phase_fixed, p dD q = 1. Refuses nullity above 1, or
    |p dD q| < 1e-8 for the unit null vectors, with DegenerateEigenvalueError."""
    U, s, Vh = np.linalg.svd(D)
    nullity = np.sum(s < _NULLITY_TOL * max(s[0], 1.0))  # the rule of _nullity
    if nullity > 1:
        raise DegenerateEigenvalueError(f"root is not simple: Delta has nullity {nullity}")
    q, p = Vh[-1].conj(), U[:, -1].conj()
    scale = p @ dD @ q
    if abs(scale) < _NULLITY_TOL:
        raise DegenerateEigenvalueError(
            f"non-semisimple or degenerate root: |p Delta' q| = {abs(scale):.2e} before scaling"
        )
    q, _ = phase_fixed(q)
    return q, p / (p @ dD @ q)


def hopf_pair(lin, lam):
    """EigenData of the simple pair +-i w, w = |Im lam|, from eigentriple at
    i w; its "real_part" residual is |Re lam|."""
    omega = abs(lam.imag)
    D, dD = char_matrix(lin, 1j * omega), char_matrix_deriv(lin, 1j * omega)
    q0, p0 = eigentriple(D, dD)
    residuals = {
        "right": float(np.linalg.norm(D @ q0)),
        "left": float(np.linalg.norm(p0 @ D)),
        "real_part": abs(lam.real),
        "normalization": abs(p0 @ dD @ q0 - 1.0),
    }
    return EigenData(omega=float(omega), q0=q0, p0=p0, residuals=residuals)


def hopf_eigendata(lin, omega_guess):
    """Refine the root near i*omega_guess, then hopf_pair at it."""
    lam, _, _ = refine_root(lin, 1j * float(omega_guess))
    if lam.imag == 0:
        raise DegenerateEigenvalueError(
            f"no oscillatory root near i*{omega_guess:.6g}; found {lam:.6g}"
        )
    return hopf_pair(lin, lam)


def eigenfunction(eig):
    """The critical eigenfunction q(theta) = q0 exp(i w theta) as ExpPoly."""
    return ExpPoly.exponential(eig.q0, 1j * eig.omega)


# ---------------------------------------------------------------------------
# resolvent, adjoint pairing, spectral projection

_SERIES_CUTOFF = 1e-6
_SERIES_TERMS = 12
_CONTOUR_NODES = 64
_MOMENTS = 8          # contour moments M_0..M_7 examined per critical root
_MOMENT_TOL = 1e-6


def _antiderivative(power, alpha):
    """c_0..c_k with int s^k e^{alpha s} ds = e^{alpha s} sum_i c_i s^{k-i}, k = power."""
    return [(-1.0) ** i * perm(power, i) / alpha ** (i + 1) for i in range(power + 1)]


def _series_weights(power):
    """w_t with int_theta^0 s^k e^{alpha s} ds = -sum_t w_t alpha^t theta^{k+t+1}."""
    return np.array([1.0 / (factorial(t) * (power + t + 1)) for t in range(_SERIES_TERMS)])


def exp_integral(v, lam):
    """I(theta) = int_theta^0 exp(lam (theta - s)) v(s) ds as an ExpPoly."""
    terms = []
    for coef, power, mu in v.terms:
        alpha = mu - lam
        if abs(alpha) < _SERIES_CUTOFF:
            # near-resonant: expand exp(alpha s) to keep coefficients benign
            terms += [(-coef * w * alpha**t, power + t + 1, lam)
                      for t, w in enumerate(_series_weights(power))]
        else:
            c = _antiderivative(power, alpha)
            terms.append((coef * c[-1], 0, lam))
            terms += [(-coef * ci, power - i, mu) for i, ci in enumerate(c)]
    return ExpPoly(v.dim, terms)


def _boundary_data(lin, lams, v):
    """b(lambda) = v(0) + sum_j A_j I_lambda v(-tau_j), one row per lambda of a 1-d array:
    exp_integral's closed form per term on the (lambda, tau_j) grid, or its
    series at the lambdas a mask finds within _SERIES_CUTOFF of the term exponent."""
    lam, theta = np.asarray(lams, dtype=complex)[:, None], -np.array(lin.taus)
    e_lam, out = np.exp(lam * theta), np.tile(v.eval(0.0), (lam.size, 1))
    for coef, power, mu in v.terms:
        alpha = mu - lam
        near = np.abs(alpha[:, 0]) < _SERIES_CUTOFF
        c = _antiderivative(power, np.where(near[:, None], 1.0, alpha))
        g = c[-1] * e_lam - np.exp(mu * theta) * np.polyval(c, theta)
        g[near] = -e_lam[near] * theta ** (power + 1) * (
            (alpha[near] * theta)[..., None] ** np.arange(_SERIES_TERMS) @ _series_weights(power))
        out += g @ (np.array(lin.A) @ coef)
    return out


def _resolvent_x0(lin, lams, v):
    """Delta(lambda)^{-1} b(lambda) at each lambda of a 1-d array, as one stacked
    solve; refuses a (numerical) characteristic root among them."""
    lams = np.asarray(lams, dtype=complex)
    D = char_matrix(lin, lams)
    hit = lams[_nullity(D) > 0]
    if hit.size:
        raise NumericalError(f"resolvent undefined: lambda={hit[0]:.6g} is a characteristic root")
    return np.linalg.solve(D, _boundary_data(lin, lams, v)[..., None])[..., 0]


def resolvent_apply(lin, lam, v):
    """R(lambda) v: x(theta) = e^{lam theta} x0 + I(theta) in closed form, with
    x0 = Delta(lambda)^{-1} [v(0) + A[I]]; errors if lambda is a characteristic root."""
    x0 = _resolvent_x0(lin, [lam], v)[0]
    return combine(1.0, ExpPoly.exponential(x0, lam), 1.0, exp_integral(v, lam))


def adjoint_coordinate(lin, lam, p_row, v):
    """Coordinate functional of the eigentriple (lam, ., p): p [v(0) + A[I_lam v]].

    This is the residue of the resolvent at a simple root lam with the
    p Delta'(lam) q = 1 normalization; equivalently the adjoint-eigenvector
    pairing written with integrals over [0, tau_j].
    """
    return p_row @ _boundary_data(lin, [lam], v)[0]


def _root_pool(lin, around):
    cut = max(2.0, 2.0 * max(abs(z) for z in around))
    try:
        roots = characteristic_roots(lin, count=12, re_cutoff=cut)
    except NumericalError:
        roots = []
    return [z for z, _ in roots]


def spectral_projection(lin, critical, v, radius=None):
    """P_c v = sum over the critical roots z of e^{z theta} sum_k M_k theta^k / k!.

    M_k = (1/2 pi i) oint (lam - z)^k Delta(lam)^{-1} b(lam) dlam are the
    contour moments (Beyn, Linear Algebra Appl. 436, 2012), by the trapezoid
    rule on 64 nodes of a circle around z whose default radius is half the
    distance to the nearest other root, all nodes in one stacked solve (a node
    on a characteristic root is refused). The resolvent's I_lam v part is
    entire in lam and integrates to zero. A simple root keeps M_0 only, any
    other root its moments up to the first negligible one (its Jordan
    chain). A later moment with |M_k| span^k / k! > 1e-6 (1 + |M_0|) is
    refused: z is not a root when Delta(z) is nonsingular, and the contour
    encloses extra roots otherwise. An empty list of critical roots, or
    one that is not finite, is refused before any root is computed.
    """
    critical = [complex(z) for z in critical]
    if not critical:
        raise NumericalError("spectral projection needs at least one critical root")
    bad = [z for z in critical if not np.isfinite(z)]
    if bad:
        raise NumericalError(f"critical root {bad[0]:.6g} is not finite")
    if radius is None:
        others = _root_pool(lin, critical) + critical
        radii = []
        for z in critical:
            gap = min((abs(w - z) for w in others if abs(w - z) > 1e-8), default=1.0)
            radii.append(max(0.5 * gap, 1e-3))
    else:
        radii = [float(radius)] * len(critical)

    span = lin.tau_span if lin.tau_span > 0 else 1.0
    nodes = np.exp(2j * pi * np.arange(_CONTOUR_NODES) / _CONTOUR_NODES)
    terms = []
    for z, rho in zip(critical, radii):
        offsets = rho * nodes
        x0 = _resolvent_x0(lin, z + offsets, v)
        moments = [np.mean(offsets[:, None] ** (k + 1) * x0, axis=0) for k in range(_MOMENTS)]
        sizes = [np.max(np.abs(mk)) * span**k / factorial(k) for k, mk in enumerate(moments)]
        tol = _MOMENT_TOL * (1.0 + sizes[0])
        try:
            eigentriple(char_matrix(lin, z), char_matrix_deriv(lin, z))
            keep = 1  # a simple root: M_0 only
        except DegenerateEigenvalueError:  # any other root: its Jordan chain
            keep = next((k for k in range(1, _MOMENTS) if sizes[k] <= tol), _MOMENTS)
        late = max(sizes[keep:], default=sizes[-1])
        if late > tol and _nullity(char_matrix(lin, z)) == 0:
            raise NumericalError(f"{z:.6g} is not a characteristic root: Delta is nonsingular "
                                 f"there, and a contour moment around it does not vanish "
                                 f"({late:.2e})")
        if late > tol:
            raise NumericalError(f"a contour moment around {z:.6g} does not vanish ({late:.2e}); "
                                 "the contour likely encloses extra roots")
        terms += [(moments[k] / factorial(k), k, z) for k in range(keep)]
    return ExpPoly(v.dim, terms)
