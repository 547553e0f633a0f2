"""Exponential-polynomial history functions.

An :class:`ExpPoly` is a finite sum of terms ``coef * theta**power *
exp(exponent*theta)`` with complex vector coefficients. The class is closed
under differentiation, linear combination and multiplication by real
polynomials, which makes it the direction space on which functionals with
state-dependent delays can be differentiated: every evaluation is exact
term arithmetic, never a sampling grid.

Real-valued directions are represented by conjugate term pairs; use
:meth:`ExpPoly.real_part` or build them with ``exponential(c, lam) +
exponential(conj(c), conj(lam))``.
"""

from math import comb

import numpy as np

from .errors import SdddeError

# coefficients below this magnitude are dropped during normalization
_COEF_FLOOR = 1e-300


def _term_key(power, exponent):
    return (power, exponent.real, exponent.imag)


class ExpPoly:
    """Vector-valued sum of ``q * theta**kappa * exp(lam*theta)`` terms.

    Immutable after construction; terms with identical (power, exponent)
    are merged and zero terms removed.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim, terms=()):
        if dim < 1:
            raise SdddeError("ExpPoly dim must be a positive integer")
        merged = {}
        for coef, power, exponent in terms:
            coef = np.asarray(coef, dtype=complex)
            if coef.shape != (dim,):
                raise SdddeError(
                    f"coefficient shape {coef.shape} does not match dim {dim}"
                )
            power = int(power)
            if power < 0:
                raise SdddeError("term power must be non-negative")
            exponent = complex(exponent)
            key = _term_key(power, exponent)
            if key in merged:
                merged[key] = (merged[key][0] + coef, power, exponent)
            else:
                merged[key] = (coef, power, exponent)
        keys = sorted(merged)
        coefs = np.array([merged[key][0] for key in keys], dtype=complex).reshape(-1, dim)
        coefs[np.abs(coefs) < _COEF_FLOOR] = 0.0
        coefs.setflags(write=False)
        kept = (coefs != 0).any(axis=1).tolist()
        out = tuple(
            (coef, *merged[key][1:]) for key, coef, keep in zip(keys, coefs, kept) if keep
        )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", out)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ExpPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(dim):
        return ExpPoly(dim)

    @staticmethod
    def constant(vec):
        vec = np.atleast_1d(np.asarray(vec, dtype=complex))
        return ExpPoly(vec.size, [(vec, 0, 0.0)])

    @staticmethod
    def exponential(coef, exponent, power=0):
        """theta -> coef * theta**power * exp(exponent*theta)."""
        coef = np.atleast_1d(np.asarray(coef, dtype=complex))
        return ExpPoly(coef.size, [(coef, power, exponent)])

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def eval(self, theta):
        """Exact value at theta as a complex vector."""
        out = np.zeros(self.dim, dtype=complex)
        for coef, power, exponent in self.terms:
            out += coef * (theta ** power if power else 1.0) * np.exp(exponent * theta)
        return out

    __call__ = eval

    def eval_real(self, theta):
        return self.eval(theta).real

    # -- calculus ------------------------------------------------------

    def derivative(self, order=1):
        """Exact symbolic derivative; ``derivative(f, 0)`` is ``f``."""
        if order < 0:
            raise SdddeError("derivative order must be non-negative")
        f = self
        for _ in range(order):
            terms = []
            for coef, power, exponent in f.terms:
                if power:
                    terms.append((coef * power, power - 1, exponent))
                if exponent != 0:
                    terms.append((coef * exponent, power, exponent))
            f = ExpPoly(self.dim, terms)
        return f

    def conjugate(self):
        return ExpPoly(
            self.dim,
            [(np.conj(c), p, np.conj(complex(e))) for c, p, e in self.terms],
        )

    def real_part(self):
        """(f + conj(f)) / 2, exact on the term list."""
        return combine(0.5, self, 0.5, self.conjugate())

    # -- arithmetic sugar ---------------------------------------------

    def __add__(self, other):
        return combine(1.0, self, 1.0, other)

    def __sub__(self, other):
        return combine(1.0, self, -1.0, other)

    def __mul__(self, scalar):
        return ExpPoly(self.dim, [(c * scalar, p, e) for c, p, e in self.terms])

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __repr__(self):
        return f"ExpPoly(dim={self.dim}, nterms={len(self.terms)})"


def combine(a, f, b, g):
    """a*f + b*g with merged, normalized term lists."""
    if f.dim != g.dim:
        raise SdddeError(f"dimension mismatch: {f.dim} vs {g.dim}")
    terms = [(c * a, p, e) for c, p, e in f.terms]
    terms += [(c * b, p, e) for c, p, e in g.terms]
    return ExpPoly(f.dim, terms)


def poly_multiply(f, root, multiplicity):
    """Multiply f by (theta - root)**multiplicity, expanding exactly."""
    multiplicity = int(multiplicity)
    if multiplicity < 0:
        raise SdddeError("multiplicity must be non-negative")
    terms = []
    for coef, power, exponent in f.terms:
        for i in range(multiplicity + 1):
            factor = comb(multiplicity, i) * (-root) ** (multiplicity - i)
            terms.append((coef * factor, power + i, exponent))
    return ExpPoly(f.dim, terms)


class TermStack:
    """The terms of K ExpPolys of one dim as arrays, in list and term order,
    so that one set of array operations reads all K of them.

    Each value is the per-term arithmetic of one ExpPoly, summed over its
    terms in order from zero, so every ExpPoly's values are bit for bit
    those of a stack of one.
    """

    def __init__(self, fs):
        terms = [(k, r, term) for k, f in enumerate(fs) for r, term in enumerate(f.terms)]
        self.count = len(fs)
        self.owner = np.array([k for k, _, _ in terms], dtype=int)
        self.coefs = np.array([t[0] for _, _, t in terms], dtype=complex).reshape(-1, fs[0].dim)
        self.powers = np.array([t[1] for _, _, t in terms], dtype=int)
        self.exponents = np.array([t[2] for _, _, t in terms], dtype=complex)
        rank = np.array([r for _, r, _ in terms], dtype=int)
        # the r-th terms of the ExpPolys that have one, and their owners
        self._ranks = [(at, self.owner[at]) for at in (
            np.flatnonzero(rank == r) for r in range(rank.max(initial=-1) + 1))]

    def _sum(self, values):
        """Per-term values, shape (T, ...), summed per ExpPoly in term order: (K, ...)."""
        out = np.zeros((self.count,) + values.shape[1:], dtype=complex)
        for at, owner in self._ranks:
            out[owner] += values[at]
        return out

    def eval_rows(self, theta):
        """ExpPoly k at the points of row k of theta, shape (dim, K, N) for theta
        of shape (K, N); a scalar theta is read by all of them, shape (dim, K, 1)."""
        theta = np.asarray(theta, dtype=complex)
        if theta.ndim == 0:
            theta = np.broadcast_to(theta, (self.count, 1))
        at = theta[self.owner]
        powered = np.empty_like(at)
        for power in set(self.powers.tolist()):
            sel = self.powers == power
            powered[sel] = at[sel] ** power
        values = powered * np.exp(self.exponents[:, None] * at)
        return self._sum(self.coefs[:, :, None] * values[:, None, :]).transpose(1, 0, 2)

    def sup_norms(self, lo, hi, samples=201):
        """sup_norm of each ExpPoly, as an array of K values."""
        grid = np.linspace(lo, hi, samples)
        # scalar powers: array ** power rounds differently from theta ** power
        polys = {power: np.array([t**power for t in grid]) if power else np.ones(samples)
                 for power in set(self.powers.tolist())}
        poly = np.array([polys[power] for power in self.powers.tolist()]).reshape(-1, samples)
        index = {}  # one exp per distinct exponent
        which = [index.setdefault(e, len(index)) for e in self.exponents.tolist()]
        exps = np.exp(np.array(list(index), dtype=complex)[:, None] * grid)[which]
        vals = self.coefs[:, None, :] * poly[:, :, None] * exps[:, :, None]
        return np.max(np.abs(self._sum(vals)), axis=(1, 2))


def sup_norm(f, lo, hi, samples=201):
    """max over a theta grid of the largest component magnitude.

    Grid-sampled; adequate for step scaling and test tolerances, not a
    certified bound. Each term is evaluated on the whole grid at once with
    the arithmetic and term order of :meth:`ExpPoly.eval`, so the result is
    the per-point maximum bit for bit. TermStack.sup_norms gives it for
    many ExpPolys at once.
    """
    return float(TermStack([f]).sup_norms(lo, hi, samples)[0])
