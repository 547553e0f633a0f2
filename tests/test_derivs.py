import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sddde.derivs
from sddde import (
    DelayRangeError,
    DerivSettings,
    ExpPoly,
    NumericalError,
    SdddeError,
    combine,
    directional_derivative,
    eigenfunction,
    hopf_eigendata,
    linearize,
    multilinear_form,
    parse_model,
    poly_multiply,
    sup_norm,
)

from sddde.derivs import multilinear_forms
from sddde.histfun import TermStack
from sddde.model import Model

from conftest import sympy_expr
from test_histfun import exppoly_st

PI_2 = np.pi / 2


@pytest.fixture(scope="module")
def scalar_setup(scalar_model):
    params = np.array([-PI_2])
    xstar = np.array([-PI_2])
    lin = linearize(scalar_model, params, xstar)
    eig = hopf_eigendata(lin, 1.0)
    return scalar_model, params, xstar, lin, eig


@pytest.fixture(scope="module")
def poscontrol_setup(poscontrol_model, poscontrol_ref):
    params = poscontrol_model.params_from(poscontrol_ref)
    xstar = np.array([4.0, 4.0])
    eig = hopf_eigendata(linearize(poscontrol_model, params, xstar), np.pi / 6)
    return poscontrol_model, params, xstar, eig


@pytest.fixture
def stack_sizes(monkeypatch):
    """The number of directions of each eval_on_nodes call."""
    sizes = []
    on_nodes = Model.eval_on_nodes

    def stacked(model, params, xstar, v, *args):
        sizes.append(len(v) if isinstance(v, TermStack) else 1)
        return on_nodes(model, params, xstar, v, *args)

    monkeypatch.setattr(Model, "eval_on_nodes", stacked)
    return sizes


def two_re_exp_i():
    """v(theta) = 2 Re e^{i theta}."""
    return ExpPoly.exponential([1.0], 1j) + ExpPoly.exponential([1.0], -1j)


class TestDirectionalDerivative:
    def test_second_derivative_matches_analytic(self, scalar_setup):
        model, params, xstar, _, _ = scalar_setup
        v = two_re_exp_i()
        got = directional_derivative(model, params, xstar, v, 2)
        v0 = v.eval(0.0).real[0]
        v1 = v.derivative().eval(-PI_2).real[0]
        assert got[0] == pytest.approx(-2 * v0 * v1, abs=1e-6)

    def test_third_derivative_matches_analytic(self, scalar_setup):
        model, params, xstar, _, _ = scalar_setup
        v = two_re_exp_i()
        got = directional_derivative(model, params, xstar, v, 3)
        v0 = v.eval(0.0).real[0]
        v2 = v.derivative(2).eval(-PI_2).real[0]
        assert got[0] == pytest.approx(-3 * v0**2 * v2, abs=1e-5)

    def test_first_derivative_is_frozen_linearization(self, scalar_setup):
        model, params, xstar, lin, _ = scalar_setup
        rng = np.random.default_rng(7)
        for _ in range(4):
            c = rng.normal() + 1j * rng.normal()
            lam = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(0.5, 2.0)
            v = ExpPoly.exponential([c], lam) + ExpPoly.exponential([np.conj(c)], np.conj(lam))
            got = directional_derivative(model, params, xstar, v, 1)
            expected = sum(
                Aj @ v.eval(-tau).real for Aj, tau in zip(lin.A, lin.taus)
            )
            assert np.max(np.abs(got - expected)) < 1e-8

    def test_order_cap(self, scalar_setup):
        model, params, xstar, _, _ = scalar_setup
        with pytest.raises(SdddeError, match="order"):
            directional_derivative(model, params, xstar, two_re_exp_i(), 6)

    def test_settings_validation(self):
        with pytest.raises(SdddeError, match="radius"):
            DerivSettings(radius=2.0)
        with pytest.raises(SdddeError, match="levels"):
            DerivSettings(levels=0)

    def test_real_direction_gives_real_array(self, scalar_setup):
        model, params, xstar, _, eig = scalar_setup
        q = eigenfunction(eig)
        assert directional_derivative(model, params, xstar, q.real_part(), 3).dtype == float
        assert directional_derivative(model, params, xstar, q, 3).dtype == complex

    def test_radius_halves_past_a_branch_point(self):
        # F(x* + delta) = p - sqrt(x* + delta): the branch point delta = -x* lies
        # inside the default circle, and the level gap shows it
        model = parse_model(
            'name="sq"\ndim=1\nparameters=["p"]\ntau_max=2\n'
            'delays=["0", "1"]\nrhs=["p - sqrt(x1@2)"]\n'
        )
        got = directional_derivative(model, [0.3], [0.09], ExpPoly.constant([1.0]), 2)
        assert got[0] == pytest.approx(0.25 * 0.09**-1.5, abs=1e-6)  # 9.259259...

    def test_delay_near_tau_max(self):
        # tau = 1.9 + x1@1 leaves [0, 2] on the default circle; a smaller one fits.
        # F(x* + delta cos) = -sin(delta cos(1.9 + delta)), so D^2F = 2 sin(1.9)
        model = parse_model(
            'name="near"\ndim=1\nparameters=["p"]\ntau_max=2\n'
            'delays=["0", "1.9 + x1@1"]\nrhs=["p - sin(x1@2)"]\n'
        )
        v = ExpPoly.exponential([1.0], 1j).real_part()
        got = directional_derivative(model, [0.0], [0.0], v, 2)
        assert got[0] == pytest.approx(2 * np.sin(1.9), abs=1e-9)

    def test_enclosed_pole_is_refused(self):
        # F(x* + delta) = 1/(1e-3 + delta): every circle down to the smallest radius
        # encloses the pole, and there the Taylor sums read 0 at every level alike
        model = parse_model(
            'name="pole"\ndim=1\nparameters=[]\ntau_max=1\ndelays=["0"]\n'
            'rhs=["1/(x1@1 + 0.001)"]\n'
        )
        with pytest.raises(NumericalError, match="circle mean misses F"):
            directional_derivative(model, [], [0.0], ExpPoly.constant([1.0]), 2)
        with pytest.raises(NumericalError, match="numerical failure: divide by zero"):
            directional_derivative(model, [], [-1e-3], ExpPoly.constant([1.0]), 2)


class TestMultilinearForm:
    def test_f2_q_qbar(self, scalar_setup):
        model, params, xstar, _, eig = scalar_setup
        q = eigenfunction(eig)
        val = multilinear_form(model, params, xstar, [q, q.conjugate()])
        assert val[0] == pytest.approx(-2.0, abs=1e-6)

    def test_f2_q_q(self, scalar_setup):
        model, params, xstar, _, eig = scalar_setup
        q = eigenfunction(eig)
        val = multilinear_form(model, params, xstar, [q, q])
        assert val[0] == pytest.approx(-2.0, abs=1e-6)

    def test_f3_q_q_qbar(self, scalar_setup):
        model, params, xstar, _, eig = scalar_setup
        q = eigenfunction(eig)
        val = multilinear_form(model, params, xstar, [q, q, q.conjugate()])
        assert val[0] == pytest.approx(-1j, abs=1e-5)

    def test_f3_exact_on_scalar_model(self, scalar_setup):
        # F(x* + v) = -v(-pi/2 + v(0)), so F3(u, v, w) = -[u''(t*) v(0) w(0) + (2 more)]
        # at t* = -pi/2; for (q, q, qbar) that is -(a^2 qbar''(t*) + 2|a|^2 q''(t*)), a = q(0)
        model, params, xstar, _, eig = scalar_setup
        q = eigenfunction(eig)
        a = q.eval(0.0)[0]
        q2 = q.derivative(2).eval(-PI_2)[0]
        exact = -(a**2 * np.conj(q2) + 2 * abs(a) ** 2 * q2)
        assert exact == pytest.approx(-1j, abs=1e-9)  # q = e^{i theta} up to eigensolver error
        got = multilinear_form(model, params, xstar, [q, q, q.conjugate()])
        assert abs(got[0] - exact) <= 1e-12

    def test_homogeneity_in_first_argument(self, scalar_setup):
        model, params, xstar, _, eig = scalar_setup
        q = eigenfunction(eig)
        base = multilinear_form(model, params, xstar, [q, q.conjugate()])
        for c in (0.5, 1.7 + 0.9j, 2.0 * np.exp(0.4j)):
            scaled = multilinear_form(model, params, xstar, [q * c, q.conjugate()])
            assert np.max(np.abs(scaled - c * base)) <= 1e-6 * max(1.0, abs(c) * np.max(np.abs(base)))

    def test_symmetry_under_permutation(self, scalar_setup):
        model, params, xstar, _, eig = scalar_setup
        q = eigenfunction(eig)
        h = ExpPoly.exponential([0.3 - 0.6j], 2j)
        dirs = [q, q.conjugate(), h]
        vals = [
            multilinear_form(model, params, xstar, [dirs[i] for i in perm])
            for perm in itertools.permutations(range(3))
        ]
        scale = np.max(np.abs(vals[0])) + 1e-30
        for v in vals[1:]:
            assert np.max(np.abs(v - vals[0])) <= 1e-8 * scale

    def test_level_consistency(self, scalar_setup):
        model, params, xstar, _, eig = scalar_setup
        q = eigenfunction(eig)
        row = multilinear_form(model, params, xstar, [q, q, q.conjugate()], all_levels=True)
        assert np.max(np.abs(row[-1] - row[-2])) <= 1e-4 * 1.0  # |F3 q q qbar| = 1

    @pytest.mark.parametrize("order", [4, 5])
    def test_diagonal_form_is_the_directional_derivative(self, poscontrol_setup, order):
        model, params, xstar, eig = poscontrol_setup
        v = eigenfunction(eig).real_part()
        form = multilinear_form(model, params, xstar, [v] * order)
        dd = directional_derivative(model, params, xstar, v, order)
        assert np.max(np.abs(form - dd)) <= 1e-10 * np.max(np.abs(dd))

    def test_order_cap(self, scalar_setup):
        model, params, xstar, _, eig = scalar_setup
        with pytest.raises(SdddeError, match="orders 1..5"):
            multilinear_form(model, params, xstar, [eigenfunction(eig)] * 6)

    def test_vanishing_polarization_sums_are_skipped(self, scalar_setup, stack_sizes):
        model, params, xstar, _, eig = scalar_setup
        q = eigenfunction(eig)
        multilinear_form(model, params, xstar, [q, q])  # q - q = 0
        assert stack_sizes == [1]


class TestNodeLevels:
    def test_row_entries_equal_separate_runs(self, scalar_setup):
        model, params, xstar, _, eig = scalar_setup
        v = combine(1.0, eigenfunction(eig).real_part(), 0.3, two_re_exp_i().derivative())
        for order in (2, 3):
            row = directional_derivative(
                model, params, xstar, v, order, DerivSettings(levels=3), all_levels=True
            )
            assert row.shape == (3, model.n)
            for m in range(3):
                alone = directional_derivative(
                    model, params, xstar, v, order, DerivSettings(levels=m + 1)
                )
                assert np.array_equal(row[m], alone)

    def test_form_row_coarse_entry_equals_separate_run(self, scalar_setup):
        model, params, xstar, _, eig = scalar_setup
        q = eigenfunction(eig)
        dirs = [q, q, q.conjugate()]
        row = multilinear_form(model, params, xstar, dirs, all_levels=True)
        coarse = multilinear_form(model, params, xstar, dirs, DerivSettings(levels=1))
        assert np.array_equal(row[-2], coarse)
        assert np.array_equal(row[-1], multilinear_form(model, params, xstar, dirs))


def stacked_rows(model, params, xstar, jobs, settings=DerivSettings()):
    """The rows of one stack of (direction, order) jobs."""
    tau_max = model.resolve_tau_max(params, xstar)
    return sddde.derivs._derivatives(model, params, xstar, TermStack([v for v, _ in jobs]),
                                     [order for _, order in jobs], settings, tau_max)


def assert_rows_are_solo(model, params, xstar, jobs, rows, settings=DerivSettings()):
    for (v, order), row in zip(jobs, rows):
        alone = directional_derivative(model, params, xstar, v, order, settings, all_levels=True)
        assert row.dtype == alone.dtype
        assert np.array_equal(row, alone)


class TestStackedRows:
    """Each row out of a stack is bit for bit its direction's solo derivative."""

    @pytest.mark.parametrize("setup", ["scalar_setup", "poscontrol_setup"])
    def test_rows_equal_solo_derivatives(self, setup, request, stack_sizes):
        model, params, xstar, *_, eig = request.getfixturevalue(setup)
        q = eigenfunction(eig)
        n = model.n
        directions = [
            q,
            q.real_part(),
            q.conjugate(),
            ExpPoly.exponential(np.linspace(0.6, -0.3, n), 0.2 + 0.8j).real_part(),
            combine(1.0, ExpPoly.exponential(np.full(n, 0.5 - 0.2j), -0.3j, power=1), 1.0, q),
        ]
        jobs = [(v, order) for v in directions for order in range(1, 6)]
        settings = DerivSettings(levels=3)
        rows = stacked_rows(model, params, xstar, jobs, settings)
        assert stack_sizes == [len(jobs)]
        assert [row.shape for row in rows] == [(3, n)] * len(jobs)
        assert [row.dtype for row in rows[5:10]] == [np.dtype(float)] * 5
        assert_rows_are_solo(model, params, xstar, jobs, rows, settings)

    def test_branch_point_halves_only_its_direction(self, stack_sizes):
        # F = p - sqrt(x1@2) with the branch point 0.09 from x*: the constant
        # direction's circle encloses it; e^(3 theta) is read at e^-3 of its norm
        model = parse_model(
            'name="sq"\ndim=1\nparameters=["p"]\ntau_max=2\n'
            'delays=["0", "1"]\nrhs=["p - sqrt(x1@2)"]\n'
        )
        jobs = [(ExpPoly.exponential([1.0], 3.0), 2), (ExpPoly.constant([1.0]), 2)]
        rows = stacked_rows(model, [0.3], [0.09], jobs)
        assert stack_sizes[0] == 2 and len(stack_sizes) > 1
        assert stack_sizes[1:] == [1] * (len(stack_sizes) - 1)
        assert rows[1][-1][0] == pytest.approx(0.25 * 0.09**-1.5, abs=1e-6)
        assert_rows_are_solo(model, [0.3], [0.09], jobs, rows)

    def test_delay_out_of_range_splits_the_stack(self, stack_sizes):
        # tau = 1.9 + x1@1 leaves [0, 2] along cos on the default circle; along
        # sin it stays at 1.9. The stacked call cannot name its direction, so
        # both go on alone
        model = parse_model(
            'name="near"\ndim=1\nparameters=["p"]\ntau_max=2\n'
            'delays=["0", "1.9 + x1@1"]\nrhs=["p - sin(x1@2)"]\n'
        )
        cos = ExpPoly.exponential([1.0], 1j).real_part()
        sin = ExpPoly.exponential([-0.5j], 1j) + ExpPoly.exponential([0.5j], -1j)
        jobs = [(sin, 2), (cos, 2)]
        with pytest.raises(DelayRangeError):
            model.eval_on_nodes([0.0], [0.0], cos, 0.25 * np.exp(2j * np.pi * np.arange(16) / 16),
                                2.0)
        del stack_sizes[:]
        rows = stacked_rows(model, [0.0], [0.0], jobs)
        assert stack_sizes[:2] == [2, 1] and len(stack_sizes) > 3
        assert stack_sizes[1:] == [1] * (len(stack_sizes) - 1)
        assert rows[1][-1][0] == pytest.approx(2 * np.sin(1.9), abs=1e-9)
        assert_rows_are_solo(model, [0.0], [0.0], jobs, rows)

    def test_first_refused_job_in_list_order_raises(self):
        # both circles enclose the pole 1e-3 from x* at every radius, with
        # different gaps; a stack raises what running its jobs in order raises
        model = parse_model(
            'name="pole"\ndim=1\nparameters=[]\ntau_max=1\ndelays=["0"]\n'
            'rhs=["1/(x1@1 + 0.001)"]\n'
        )
        a = ExpPoly.constant([1.0])
        b = combine(1.0, a, 0.01, ExpPoly.exponential([1.0], -1.0))
        alone = []
        for v in (a, b):
            with pytest.raises(NumericalError) as err:
                directional_derivative(model, [], [0.0], v, 2)
            alone.append(str(err.value))
        assert alone[0] != alone[1]
        for jobs, first in (([(a, 2), (b, 2)], alone[0]), ([(b, 2), (a, 2)], alone[1])):
            with pytest.raises(NumericalError) as err:
                stacked_rows(model, [], [0.0], jobs)
            assert str(err.value) == first


def reference_is_real(v):
    """The term-dict walk that TermStack.is_real replaced: v equals its
    conjugate, every term's conjugate a term, exactly."""
    terms = {(power, exponent): coef for coef, power, exponent in v.terms}
    for coef, power, exponent in v.terms:
        partner = terms.get((power, exponent.conjugate()))
        if partner is None or not (partner == np.conj(coef)).all():
            return False
    return True


def reference_sums(forms):
    """(v_1 + sum eps_i v_i, order, form, prod eps) for every polarization sum
    of forms in job order, built by combine prefix by prefix as the ExpPoly
    polarization that the TermStack rows replaced built them."""
    jobs = []
    for f, directions in enumerate(forms):
        sums = [((), directions[0])]
        for w in directions[1:]:
            sums = [(eps + (e,), combine(1.0, v, float(e), w)) for eps, v in sums for e in (1, -1)]
        jobs += [(summed, len(directions), f, np.prod(eps)) for eps, summed in sums]
    return jobs


def assert_rows_are(stack, polys):
    """Row k of stack holds the terms of polys[k], in key order, with the same bits."""
    keys = [(p, e.real, e.imag) for p, e in zip(stack.powers.tolist(), stack.exponents.tolist())]
    assert len(stack) == len(polys)
    for k, f in enumerate(polys):
        held = np.flatnonzero(stack.has[k])
        assert [keys[b] for b in held] == [(p, e.real, e.imag) for _, p, e in f.terms]
        assert [stack.coefs[k, b].tobytes() for b in held] == [c.tobytes() for c, _, _ in f.terms]


@functools.lru_cache
def linear_model(dim):
    rhs = ", ".join(f'"x{i}@1"' for i in range(1, dim + 1))
    return parse_model(f'name="lin"\ndim={dim}\nparameters=[]\ntau_max=1\ndelays=["0"]\n'
                       f"rhs=[{rhs}]\n")


class TestDirectionRows:
    """The rows that multilinear_forms and _derivatives build against the
    ExpPoly arithmetic they replaced."""

    @pytest.mark.parametrize("dim", [1, 2])
    @given(data=st.data())
    @settings(max_examples=40)
    def test_polarized_rows_are_the_combine_sums(self, dim, data):
        fs = data.draw(st.lists(exppoly_st(dim=dim, max_terms=3), min_size=2, max_size=3))
        tiny = data.draw(st.sampled_from([7e-301, 1e-300, 2e-300]))
        q, w = fs[0], fs[1]
        # conjugate pairs, repeats whose differences cancel, and terms at the 1e-300 floor
        pool = fs + [q.conjugate(), q.real_part(), q * tiny, w * (1.3 * tiny), q * (-tiny)]
        picks = data.draw(st.lists(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                                            max_size=4), min_size=1, max_size=3))
        # 1.5e-300 - 1.2e-300 falls below the floor, 1.5e-300 + 1.2e-300 stays above it
        floor = [ExpPoly.exponential(np.full(dim, c), 0.5j) for c in (1.5e-300, 1.2e-300)]
        forms = [[q, q], [q, q.conjugate(), w], [q * tiny, q * (1.3 * tiny), q], floor]
        forms += [[pool[i] for i in pick] for pick in picks]
        seen = []

        def capture(model, params, xstar, stack, orders, settings, tau_max):
            seen.append((stack, orders))  # each job's row is its index + 1, 0 if it vanished
            return [np.full((settings.levels, model.n), float(k + 1) * stack.has[k].any())
                    for k in range(len(orders))]

        model = linear_model(dim)
        with mock.patch.object(sddde.derivs, "_derivatives", capture):
            got = multilinear_forms(model, [], [0.0] * dim, forms)
        (stack, orders), = seen
        reference = reference_sums(forms)
        assert_rows_are(stack, [summed for summed, *_ in reference])
        assert orders == [order for _, order, _, _ in reference]
        assert stack.is_real().tolist() == [reference_is_real(s) for s, *_ in reference]
        for f, directions in enumerate(forms):  # the same sums skipped, with the same signs
            expected = np.zeros(dim, dtype=complex)
            for k, (summed, _, g, sign) in enumerate(reference):
                if g == f and summed.terms:
                    expected += sign * float(k + 1)
            expected /= 2 ** (len(directions) - 1) * math.factorial(len(directions))
            assert np.array_equal(got[f], expected)

    def test_forms_whose_sums_all_vanish_are_zero(self):
        # a zero direction leaves no sum with a term: no job to evaluate, and the form is 0
        model = parse_model('name="sq"\ndim=1\nparameters=[]\ntau_max=1\ndelays=["0"]\n'
                            'rhs=["x1@1^2"]\n')
        zero = ExpPoly.zero(1)
        for directions in ([zero], [zero, zero]):
            assert multilinear_form(model, [], [0.0], directions).tolist() == [0.0]

    @pytest.mark.parametrize("dim", [1, 2])
    @given(data=st.data())
    @settings(max_examples=30)
    def test_unit_rows_are_the_rescaled_expolys(self, dim, data):
        fs = data.draw(st.lists(exppoly_st(dim=dim, max_terms=3), min_size=1, max_size=4))
        fs += [fs[0] * 1e-300, ExpPoly.zero(dim)]
        seen = []
        on_nodes = Model.eval_on_nodes

        def capture(model, params, xstar, v, *args):
            seen.append(v)
            return on_nodes(model, params, xstar, v, *args)

        with mock.patch.object(Model, "eval_on_nodes", capture):
            stacked_rows(linear_model(dim), [], [0.0] * dim, [(f, 1) for f in fs])
        norms = [sup_norm(f, -1.0, 0.0) for f in fs]
        assert_rows_are(seen[0], [f * (1.0 / norm) for f, norm in zip(fs, norms) if norm != 0.0])


class TestSymbolicOracle:
    """Exact D^jF by sympy along explicit ExpPoly directions on position_control."""

    @staticmethod
    def functional(sp, model, params, xstar, v, d):
        """F(x* + sum d_k v_k) as sympy expressions in the d_k, built from the
        model AST; v and d are one direction and symbol or lists of them."""
        pairs = list(zip(v, d)) if isinstance(v, list) else [(v, d)]

        def hist(theta):
            return [
                sp.Float(x, 30)
                + sum(d * sum(
                    _exact(c[i]) * theta**p * sp.exp(_exact(e) * theta) for c, p, e in v.terms
                ) for v, d in pairs)
                for i, x in enumerate(xstar)
            ]

        prm = [sp.Float(p, 30) for p in params]
        slots = [hist(sp.Integer(0))]
        for expr in model.delay_exprs[1:]:
            slots.append(hist(-sympy_expr(sp, expr, prm, slots)))
        return [sympy_expr(sp, expr, prm, slots) for expr in model.rhs_exprs]

    def test_derivatives_match_sympy(self, poscontrol_setup):
        sp = pytest.importorskip("sympy")
        model, params, xstar, eig = poscontrol_setup
        q = eigenfunction(eig)
        two_term = ExpPoly.exponential([0.6, -0.3 + 0.4j], 0.2 + 0.8j).real_part()
        d = sp.Symbol("d")
        for v in (q.real_part(), two_term):
            exprs = self.functional(sp, model, params, xstar, v, d)
            for j in range(1, 6):
                exprs = [sp.diff(e, d) for e in exprs]
                if j == 1:
                    continue
                exact = np.array([complex(e.subs(d, 0).evalf(30)) for e in exprs])
                assert np.max(np.abs(exact.imag)) <= 1e-25 * np.max(np.abs(exact))
                got = directional_derivative(model, params, xstar, v, j)
                assert np.max(np.abs(got - exact.real)) <= 1e-10 * np.max(np.abs(exact))


    def test_mixed_four_linear_form_matches_sympy(self, poscontrol_setup):
        sp = pytest.importorskip("sympy")
        model, params, xstar, eig = poscontrol_setup
        q = eigenfunction(eig)
        dirs = [q.real_part(), (q * -1j).real_part(), q.real_part(),
                ExpPoly.exponential([0.6, -0.3 + 0.4j], 0.2 + 0.8j).real_part()]
        d = sp.symbols("d1:5")
        exprs = self.functional(sp, model, params, xstar, dirs, list(d))
        for dk in d:  # d_k = 0 once differentiated in it, which keeps the expressions small
            exprs = [sp.diff(e, dk).subs(dk, 0) for e in exprs]
        exact = np.array([complex(e.evalf(30)) for e in exprs])
        assert np.max(np.abs(exact.imag)) <= 1e-25 * np.max(np.abs(exact))
        got = multilinear_form(model, params, xstar, dirs)
        assert np.max(np.abs(got - exact.real)) <= 1e-10 * np.max(np.abs(exact))


def _exact(value):
    """A double (or complex double) as an exact sympy number."""
    import sympy as sp

    value = complex(value)
    return sp.Float(value.real, 30) + sp.I * sp.Float(value.imag, 30)


def delay_sum_points(frozen, order):
    pts = set()
    for r in range(1, order + 1):
        for combo in itertools.combinations_with_replacement(frozen, r):
            pts.add(round(sum(combo), 12))
    return sorted(pts)


def vanishing_perturbation(model, params, xstar, order, envelope):
    """Envelope times (theta - theta_k)^order over all <=order-fold delay sums,
    scaled to unit sup norm on the working domain."""
    tau_max = model.resolve_tau_max(params, xstar)
    w = envelope
    for s in delay_sum_points(model.frozen_delays(params, xstar), order):
        if -order * tau_max <= -s <= 0.0:
            w = poly_multiply(w, -s, order)
    return w * (1.0 / sup_norm(w, -tau_max, 0.0))


class TestDelaySumSupport:
    """The multilinear forms see only values and first j-1 derivatives at
    delay-sum points; perturbations vanishing to order j there are invisible.
    The perturbation norm is the sup norm on [-j*tau_max, 0], the domain of
    the order-j expansion forms."""

    def test_scalar_model(self, scalar_setup):
        model, params, xstar, _, eig = scalar_setup
        q = eigenfunction(eig)
        tau_max = model.resolve_tau_max(params, xstar)
        env = ExpPoly.exponential([0.6], 0.25).real_part() * 2
        for j, dirs in ((2, [q, q.conjugate()]), (3, [q, q, q.conjugate()])):
            w = vanishing_perturbation(model, params, xstar, j, env)
            wnorm = sup_norm(w, -j * tau_max, 0.0, samples=801)
            base = multilinear_form(model, params, xstar, dirs)
            pert = [combine(1.0, dirs[0], 1.0, w)] + dirs[1:]
            moved = multilinear_form(model, params, xstar, pert)
            assert np.max(np.abs(moved - base)) <= 1e-5 * wnorm
