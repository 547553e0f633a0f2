"""Exponential-polynomial history functions.

An :class:`ExpPoly` is a finite sum of terms ``coef * theta**power *
exp(exponent*theta)`` with complex vector coefficients. The class is closed
under differentiation, linear combination and multiplication by real
polynomials, which makes it the direction space on which functionals with
state-dependent delays can be differentiated: every evaluation is exact
term arithmetic, never a sampling grid. The derivative engine holds its
directions as one coefficient array, a :class:`TermStack`.

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
    """K ExpPolys of one dim as one array over their basis, the sorted union
    of their (power, exponent) keys and its conjugates: coefs (K, B, dim) and
    has (K, B), the terms each row holds. A term a row lacks is never
    evaluated or added, so a row's values are its ExpPoly's, bit for bit."""

    def __init__(self, fs):
        terms = [(p, e) for f in fs for _, p, e in f.terms]
        basis = sorted({_term_key(p, e): (p, e)  # closed under conjugation
                        for p, e in [(p, e.conjugate()) for p, e in terms] + terms}.items())
        column = {key: b for b, (key, _) in enumerate(basis)}
        self.partner = [column[_term_key(p, e.conjugate())] for _, (p, e) in basis]
        self.powers = np.array([p for _, (p, _) in basis], dtype=int)
        self.exponents = np.array([e for _, (_, e) in basis], dtype=complex)
        self.coefs = np.zeros((len(fs), len(basis), fs[0].dim), dtype=complex)
        for k, f in enumerate(fs):
            for coef, p, e in f.terms:
                self.coefs[k, column[_term_key(p, e)]] = coef
        self.has = self.coefs.any(axis=-1)

    def __len__(self):
        return len(self.coefs)

    def with_coefs(self, coefs):
        """Rows of coefficients on this basis, floored in place as ExpPoly floors."""
        coefs[np.abs(coefs) < _COEF_FLOOR] = 0.0
        out = object.__new__(TermStack)
        out.__dict__.update(vars(self), coefs=coefs, has=coefs.any(axis=-1))
        return out

    def take(self, rows):
        return self.with_coefs(self.coefs[rows])

    def plus_minus(self, other):
        """Rows v + w and v - w for each row v and the one row w of other, each
        as combine(1.0, v, +-1.0, w) gives it."""
        fa = np.repeat(self.coefs, 2, axis=0) * 1.0
        gb = other.coefs * np.tile([1.0, -1.0], len(self))[:, None, None]
        in_f, in_g = np.repeat(self.has, 2, axis=0)[..., None], other.has[..., None]
        return self.with_coefs(np.where(in_f & in_g, fa + gb, np.where(in_f, fa, gb)))

    def is_real(self):
        """Per row: each coefficient is the conjugate of its conjugate key's, exactly."""
        return (self.coefs[:, self.partner] == self.coefs.conj()).all(axis=(1, 2))

    def eval_rows(self, theta):
        """Row k at the points of row k of theta, shape (dim, K, N) for theta
        of shape (K, N); a scalar theta is read by all of them, shape (dim, K, 1)."""
        theta = np.asarray(theta, dtype=complex)
        if theta.ndim == 0:
            theta = np.broadcast_to(theta, (len(self), 1))
        rows, terms = np.nonzero(self.has)
        at, powers = theta[rows], self.powers[terms]
        powered = np.empty_like(at)
        for power in set(powers.tolist()):
            powered[powers == power] = at[powers == power] ** power
        values = powered * np.exp(self.exponents[terms][:, None] * at)
        out = np.zeros((len(self), self.coefs.shape[-1], theta.shape[-1]), dtype=complex)
        np.add.at(out, rows, self.coefs[rows, terms][:, :, None] * values[:, None, :])
        return out.transpose(1, 0, 2)

    def sup_norms(self, lo, hi, samples=201):
        """sup_norm of each row, as an array of K values."""
        grid = np.linspace(lo, hi, samples)
        # scalar powers: array ** power rounds differently from theta ** power
        polys = {power: np.array([t**power for t in grid]) if power else np.ones(samples)
                 for power in set(self.powers.tolist())}
        rows, terms = np.nonzero(self.has)
        poly = np.array([polys[power] for power in self.powers[terms].tolist()])
        vals = self.coefs[rows, terms][:, None, :] * poly.reshape(-1, samples)[:, :, None]
        out = np.zeros((len(self), samples, self.coefs.shape[-1]), dtype=complex)
        np.add.at(out, rows, vals * np.exp(self.exponents[terms][:, None] * grid)[:, :, None])
        return np.max(np.abs(out), axis=(1, 2))


def sup_norm(f, lo, hi, samples=201):
    """max over a theta grid of the largest component magnitude: grid-sampled,
    adequate for step scaling and test tolerances, not a certified bound. It
    is the per-point maximum of ExpPoly.eval bit for bit (TermStack.sup_norms)."""
    return float(TermStack([f]).sup_norms(lo, hi, samples)[0])
