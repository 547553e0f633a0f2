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
        out = []
        for key in sorted(merged):
            coef, power, exponent = merged[key]
            coef = np.where(np.abs(coef) < _COEF_FLOOR, 0.0, coef)
            if np.any(coef != 0):
                coef.setflags(write=False)
                out.append((coef, power, exponent))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", tuple(out))

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

    def eval_many(self, theta):
        """Exact values at an array of (complex) theta, shape (dim,) + theta.shape."""
        theta = np.asarray(theta, dtype=complex)
        out = np.zeros((self.dim,) + theta.shape, dtype=complex)
        for coef, power, exponent in self.terms:
            out += np.multiply.outer(coef, theta**power * np.exp(exponent * theta))
        return out

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


def sup_norm(f, lo, hi, samples=201):
    """max over a theta grid of the largest component magnitude.

    Grid-sampled; adequate for step scaling and test tolerances, not a
    certified bound. Each term is evaluated on the whole grid at once with
    the arithmetic and term order of :meth:`ExpPoly.eval`, so the result is
    the per-point maximum bit for bit.
    """
    grid = np.linspace(lo, hi, samples)
    vals = np.zeros((samples, f.dim), dtype=complex)
    for coef, power, exponent in f.terms:
        # scalar powers: array ** power rounds differently from theta ** power
        poly = np.array([t**power for t in grid]) if power else np.ones(samples)
        vals += coef * poly[:, None] * np.exp(exponent * grid)[:, None]
    return float(np.max(np.abs(vals)))
