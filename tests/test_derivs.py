import itertools

import numpy as np
import pytest

from sddde import (
    DerivSettings,
    ExpPoly,
    SdddeError,
    combine,
    directional_derivative,
    eigenfunction,
    hopf_eigendata,
    linearize,
    multilinear_form,
    poly_multiply,
    sup_norm,
)
from sddde.derivs import phase_forms, richardson_discrepancy

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
        with pytest.raises(SdddeError, match="base_step"):
            DerivSettings(base_step=0.5)

    def test_normalization_off_agrees_for_moderate_directions(self, scalar_setup):
        model, params, xstar, _, _ = scalar_setup
        v = two_re_exp_i()
        on = directional_derivative(model, params, xstar, v, 2)
        off = directional_derivative(
            model, params, xstar, v, 2, DerivSettings(direction_normalization=False)
        )
        assert np.max(np.abs(on - off)) < 1e-6


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

    def test_richardson_consistency(self, scalar_setup):
        model, params, xstar, _, eig = scalar_setup
        q = eigenfunction(eig)
        gap = richardson_discrepancy(model, params, xstar, [q, q, q.conjugate()])
        assert gap <= 1e-4 * 1.0  # |F3 q q qbar| = 1


class TestRichardsonTableau:
    def test_row_entries_equal_separate_runs(self, scalar_setup):
        model, params, xstar, _, eig = scalar_setup
        v = combine(1.0, eigenfunction(eig).real_part(), 0.3, two_re_exp_i().derivative())
        for order in (2, 3):
            row = directional_derivative(
                model, params, xstar, v, order, DerivSettings(richardson_levels=3), all_levels=True
            )
            assert row.shape == (3, model.n)
            for m in range(3):
                alone = directional_derivative(
                    model, params, xstar, v, order, DerivSettings(richardson_levels=m + 1)
                )
                assert np.array_equal(row[m], alone)

    def test_form_row_coarse_entry_equals_separate_run(self, scalar_setup):
        model, params, xstar, _, eig = scalar_setup
        q = eigenfunction(eig)
        dirs = [q, q, q.conjugate()]
        row = multilinear_form(model, params, xstar, dirs, all_levels=True)
        coarse = multilinear_form(model, params, xstar, dirs, DerivSettings(richardson_levels=1))
        assert np.array_equal(row[-2], coarse)
        assert np.array_equal(row[-1], multilinear_form(model, params, xstar, dirs))


class TestPhaseSampling:
    """F_j(q^k, qbar^(j-k)) from samples along Re(e^{i phi} q)."""

    @staticmethod
    def forms(model, params, xstar, q):
        _, f2qqbar, f2qq = phase_forms(model, params, xstar, q, 2)
        return {"f2qq": f2qq, "f2qqbar": f2qqbar, "f3": phase_forms(model, params, xstar, q, 3)[2]}

    @pytest.mark.parametrize("path", ["phase", "polarization"])
    def test_f3_exact_on_scalar_model(self, scalar_setup, path):
        # F(x* + v) = -v(-pi/2 + v(0)), so F3(u, v, w) = -[u''(t*) v(0) w(0) + (2 more)]
        # at t* = -pi/2; for (q, q, qbar) that is -(a^2 qbar''(t*) + 2|a|^2 q''(t*)), a = q(0)
        model, params, xstar, _, eig = scalar_setup
        q = eigenfunction(eig)
        a = q.eval(0.0)[0]
        q2 = q.derivative(2).eval(-PI_2)[0]
        exact = -(a**2 * np.conj(q2) + 2 * abs(a) ** 2 * q2)
        assert exact == pytest.approx(-1j, abs=1e-9)  # q = e^{i theta} up to eigensolver error
        if path == "phase":
            got = self.forms(model, params, xstar, q)["f3"]
        else:
            got = multilinear_form(model, params, xstar, [q, q, q.conjugate()])
        assert abs(got[0] - exact) <= 1e-6

    @pytest.mark.parametrize("which", ["scalar", "poscontrol"])
    def test_agrees_with_polarization(self, scalar_setup, poscontrol_setup, which):
        if which == "scalar":
            model, params, xstar, _, eig = scalar_setup
        else:
            model, params, xstar, eig = poscontrol_setup
        q = eigenfunction(eig)
        qbar = q.conjugate()
        sampled = self.forms(model, params, xstar, q)
        for name, dirs in (("f2qq", [q, q]), ("f2qqbar", [q, qbar]), ("f3", [q, q, qbar])):
            polar = multilinear_form(model, params, xstar, dirs)
            assert np.max(np.abs(sampled[name] - polar)) <= 1e-6 * (1.0 + np.max(np.abs(polar)))


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
    """The FD multilinear forms see only values and first j-1 derivatives at
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
