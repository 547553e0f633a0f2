import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sddde import ExpPoly, SdddeError, combine, poly_multiply, sup_norm
from sddde.histfun import TermStack


def exp_i():
    return ExpPoly.exponential([1.0], 1j)


class TestEval:
    def test_exponential_at_zero(self):
        assert exp_i().eval(0.0) == pytest.approx(1.0)

    def test_exponential_quarter_turn(self):
        assert exp_i().eval(-np.pi / 2) == pytest.approx(-1j)

    def test_constant(self):
        f = ExpPoly.constant([-4.0])
        for theta in (0.0, -1.3, -10.0):
            assert f.eval(theta) == pytest.approx(-4.0)


class TestDerivative:
    def test_first_derivative_structure(self):
        df = exp_i().derivative()
        assert len(df.terms) == 1
        for theta in (0.0, -0.7, -2.0):
            assert df.eval(theta) == pytest.approx(1j * np.exp(1j * theta))

    def test_complex_coefficient_derivative_value(self):
        # d/dtheta (0.4+0.8i) e^{2i theta} at -pi/2, cross-checked by central FD
        f = ExpPoly.exponential([0.4 + 0.8j], 2j)
        df = f.derivative()
        val = df.eval(-np.pi / 2)[0]
        assert val == pytest.approx(1.6 - 0.8j, abs=1e-12)
        h = 1e-5
        fd = (f.eval(-np.pi / 2 + h) - f.eval(-np.pi / 2 - h)) / (2 * h)
        assert val == pytest.approx(fd[0], abs=1e-6)

    def test_second_derivative_value(self):
        d2 = exp_i().derivative(2)
        assert d2.eval(-np.pi / 2)[0] == pytest.approx(1j, abs=1e-12)
        df = exp_i().derivative()
        h = 1e-5
        fd = (df.eval(-np.pi / 2 + h) - df.eval(-np.pi / 2 - h)) / (2 * h)
        assert d2.eval(-np.pi / 2)[0] == pytest.approx(fd[0], abs=1e-6)

    def test_order_zero_is_identity(self):
        f = ExpPoly.exponential([2.0, -1.0], 0.3 - 0.2j, power=2)
        for theta in (-1.0, 0.0):
            assert np.allclose(f.derivative(0).eval(theta), f.eval(theta))

    def test_term_count_growth(self):
        f = ExpPoly.exponential([1.0], 0.5 + 1j, power=3)
        assert len(f.derivative().terms) <= 2 * len(f.terms)


class TestCombine:
    def test_conjugate_pair_sum(self):
        f = combine(1.0, exp_i(), 1.0, ExpPoly.exponential([1.0], -1j))
        assert f.eval(0.0)[0] == pytest.approx(2.0)
        assert abs(f.eval(-1.1)[0].imag) < 1e-15

    def test_scalar_multiple(self):
        f = ExpPoly.exponential([1.5], 0.7j, power=1)
        c = 2.5 - 0.5j
        g = combine(c, f, 0.0, f)
        for theta in (0.0, -2.2):
            assert g.eval(theta)[0] == pytest.approx(c * f.eval(theta)[0])

    def test_dimension_mismatch(self):
        with pytest.raises(SdddeError, match="dimension mismatch"):
            combine(1.0, ExpPoly.constant([1.0]), 1.0, ExpPoly.constant([1.0, 2.0]))


class TestPolyMultiply:
    def test_constructed_double_zero(self):
        one = ExpPoly.constant([1.0])
        w = poly_multiply(one, -np.pi / 2, 2)
        assert w.eval(-np.pi / 2)[0] == pytest.approx(0.0, abs=1e-14)
        assert w.derivative().eval(-np.pi / 2)[0] == pytest.approx(0.0, abs=1e-14)
        # away from the root it is (theta + pi/2)^2
        assert w.eval(0.0)[0] == pytest.approx((np.pi / 2) ** 2)

    def test_zero_multiplicity_is_identity(self):
        f = exp_i()
        assert np.allclose(poly_multiply(f, 1.0, 0).eval(-0.4), f.eval(-0.4))


coef_st = st.complex_numbers(
    min_magnitude=0.01, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


@st.composite
def exppoly_st(draw, dim=1, max_terms=3):
    nterms = draw(st.integers(1, max_terms))
    terms = []
    for _ in range(nterms):
        coef = np.array([draw(coef_st) for _ in range(dim)])
        power = draw(st.integers(0, 3))
        exponent = complex(
            draw(st.floats(-1.0, 1.0)), draw(st.floats(-3.0, 3.0))
        )
        terms.append((coef, power, exponent))
    return ExpPoly(dim, terms)


class TestProperties:
    @given(f=exppoly_st(), theta=st.floats(-3.0, 0.0), order=st.integers(1, 3))
    @settings(max_examples=60)
    def test_derivative_matches_finite_difference(self, f, theta, order):
        h = 1e-5
        lower = f.derivative(order - 1)
        fd = (lower.eval(theta + h) - lower.eval(theta - h)) / (2 * h)
        exact = f.derivative(order).eval(theta)
        bound = 1e-6 * (1.0 + sup_norm(f, -3.0, 0.0, 61))
        assert np.max(np.abs(exact - fd)) <= bound

    @given(f=exppoly_st(), theta=st.floats(-3.0, 0.0))
    @settings(max_examples=40)
    def test_conjugate_pairs_evaluate_real(self, f, theta):
        g = combine(1.0, f, 1.0, f.conjugate())
        value = g.eval(theta)
        assert np.max(np.abs(value.imag)) <= 1e-14 * (1.0 + np.max(np.abs(value)))

    @given(
        f=exppoly_st(),
        g=exppoly_st(),
        a=coef_st,
        b=coef_st,
        theta=st.floats(-2.0, 0.0),
    )
    @settings(max_examples=40)
    def test_combine_is_bilinear(self, f, g, a, b, theta):
        lhs = combine(a, f, b, g).eval(theta)
        rhs = a * f.eval(theta) + b * g.eval(theta)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1.0 + np.max(np.abs(rhs)))

    @given(
        f=st.one_of(exppoly_st(), exppoly_st(dim=2, max_terms=4)),
        lo=st.floats(-12.0, -0.1),
        samples=st.sampled_from([2, 61, 201]),
    )
    # numpy can round theta**2 at theta = -2.759 differently as a scalar and in an array
    @example(f=ExpPoly.exponential([1.0], 0.0, power=2), lo=-2.759, samples=61)
    @settings(max_examples=60)
    def test_sup_norm_is_the_per_point_maximum(self, f, lo, samples):
        # the vectorized grid evaluation reproduces eval() bit for bit
        grid = np.linspace(lo, 0.0, samples)
        reference = max(float(np.max(np.abs(f.eval(t)))) for t in grid)
        assert sup_norm(f, lo, 0.0, samples) == reference

    @given(f=exppoly_st(max_terms=2))
    @settings(max_examples=30)
    def test_merging_keeps_terms_canonical(self, f):
        doubled = combine(1.0, f, 1.0, f)
        assert len(doubled.terms) <= len(f.terms)
        half = combine(0.5, doubled, 0.0, doubled)
        for theta in (-1.0, 0.0):
            assert np.allclose(half.eval(theta), f.eval(theta))


class TestTermStack:
    @given(
        fs=st.lists(exppoly_st(dim=2, max_terms=4), min_size=1, max_size=5),
        lo=st.floats(-12.0, -0.1),
    )
    @settings(max_examples=40)
    def test_stacked_sup_norms_are_each_sup_norm(self, fs, lo):
        # zero ExpPolys included: their norm is 0
        fs = fs + [ExpPoly.zero(2)]
        assert TermStack(fs).sup_norms(lo, 0.0, 61).tolist() == [sup_norm(f, lo, 0.0, 61) for f in fs]

    @given(
        fs=st.lists(exppoly_st(dim=2, max_terms=4), min_size=1, max_size=5),
        theta=st.lists(st.floats(-3.0, 0.0), min_size=1, max_size=4),
        shift=st.complex_numbers(max_magnitude=0.5),
    )
    @settings(max_examples=40)
    def test_row_k_reads_expoly_k(self, fs, theta, shift):
        rows = np.array([[t * (k + 1) / len(fs) + shift for t in theta] for k in range(len(fs))])
        got = TermStack(fs).eval_rows(rows)
        assert got.shape == (2, len(fs), len(theta))
        # a scalar theta is -tau of a delay that reads no state, so it is real (on a
        # complex scalar the loop would take numpy's scalar arithmetic, which may round
        # differently)
        scalar = TermStack(fs).eval_rows(theta[0])
        assert scalar.shape == (2, len(fs), 1)
        for k, f in enumerate(fs):
            assert np.array_equal(got[:, k], eval_terms(f, rows[k]))
            assert np.array_equal(scalar[:, k, 0], eval_terms(f, theta[0]))


def eval_terms(f, theta):
    """The reference term loop: f at complex theta, shape (dim,) + theta.shape."""
    theta = np.asarray(theta, dtype=complex)
    out = np.zeros((f.dim,) + theta.shape, dtype=complex)
    for coef, power, exponent in f.terms:
        out += np.multiply.outer(coef, theta**power * np.exp(exponent * theta))
    return out
