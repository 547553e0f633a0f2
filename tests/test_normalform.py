import numpy as np
import pytest

import sddde.derivs
from sddde import (
    DegenerateEigenvalueError,
    DerivSettings,
    EigenData,
    ExpPoly,
    NumericalError,
    ResonanceError,
    char_matrix,
    char_matrix_deriv,
    eigenfunction,
    fold_coefficient,
    hopf_l1,
    linearize,
    multilinear_form,
    parse_model,
)
from sddde.model import Model

PI_2 = np.pi / 2

# cubic constant-delay model: Hopf with omega = 1 at p = 3**-1.5 (x* = 3**-0.5)
CUBIC_SRC = (
    'name="cubic"\ndim=1\nparameters=["p"]\ntau_max=4\n'
    'delays=["0", "1.5707963267948966"]\nrhs=["p - x1@2^3"]\n'
)
LINEAR_SRC = (
    'name="lin"\ndim=1\nparameters=["p"]\ntau_max=4\n'
    'delays=["0", "1.5707963267948966"]\nrhs=["p - x1@2"]\n'
)


@pytest.fixture(scope="module")
def scalar_nf(scalar_model):
    return hopf_l1(scalar_model, [-PI_2], [-PI_2], 1.0)


class TestHopfH2:
    def test_h20_coefficient(self, scalar_nf):
        coef = scalar_nf.h2_20.terms[0][0][0]
        assert coef.real == pytest.approx(0.4, abs=1e-5)
        assert coef.imag == pytest.approx(0.8, abs=1e-5)
        assert scalar_nf.h2_20.terms[0][2] == pytest.approx(2j)

    def test_h11_constant(self, scalar_nf):
        assert scalar_nf.h2_11.terms[0][0][0] == pytest.approx(-4.0, abs=1e-5)
        assert scalar_nf.h2_11.terms[0][2] == 0.0

    def test_h2_solve_their_systems(self, scalar_model, scalar_nf):
        lin = linearize(scalar_model, [-PI_2], [-PI_2])
        eig = scalar_nf.eig
        q = eigenfunction(eig)
        f2qq = multilinear_form(scalar_model, [-PI_2], [-PI_2], [q, q])
        f2qqb = multilinear_form(scalar_model, [-PI_2], [-PI_2], [q, q.conjugate()])
        h20 = scalar_nf.h2_20.terms[0][0]
        h11 = scalar_nf.h2_11.terms[0][0]
        assert np.max(np.abs(char_matrix(lin, 2j * eig.omega) @ h20 - f2qq)) < 1e-10
        assert np.max(np.abs(char_matrix(lin, 0.0) @ h11 - 2 * f2qqb)) < 1e-10

    def test_fold_hopf_resonance_error(self):
        # Delta(0) singular: a decoupled zero mode beside the rotation at +-i
        m = parse_model('name="zh"\ndim=3\nparameters=[]\ndelays=["0"]\n'
                        'rhs=["x1@1^2", "-x3@1", "x2@1 + x1@1*x2@1"]\n')
        with pytest.raises(ResonanceError, match="Delta\\(0\\) singular"):
            hopf_l1(m, [], np.zeros(3), 1.0)

    def test_one_two_resonance_error(self):
        # rotations at +-i and +-2i: Delta(2i) is singular for omega = 1
        m = parse_model('name="r12"\ndim=4\nparameters=[]\ndelays=["0"]\n'
                        'rhs=["-x2@1 + x1@1*x3@1", "x1@1", "-2*x4@1", "2*x3@1"]\n')
        with pytest.raises(ResonanceError, match="1:2 resonance"):
            hopf_l1(m, [], np.zeros(4), 1.0)


def poscontrol_tau0(s0):
    """tau0 of position_control's primary Hopf point at s0 (k = 1, c = 2, gamma = 1),
    where omega = pi / (2 tau0 + s0)."""
    from scipy.optimize import brentq

    def f(t):
        w = np.pi / (2 * t + s0)
        return 2 * w - np.sin(w * t) - np.sin(w * (t + s0))

    return brentq(f, 0.5, 2.0, xtol=1e-13)


class TestHopfL1:
    def test_work_count_at_a_hopf_point(self, poscontrol_model, monkeypatch):
        # polarization: 1 derivative for F2(q,q) (q - q vanishes) and 2 for F2(q,qbar) in
        # stage 1; 4 for F3(q,q,qbar) and 2 each for F2(qbar, h20) and F2(q, h11) in
        # stage 2; each stage is one stacked circle evaluation (centres included), and
        # the coarse level reads the same nodes
        stacks, evals = [], []
        on_nodes, functional = Model.eval_on_nodes, Model.eval_functional

        def stacked(model, params, xstar, v, *args):
            stacks.append(len(v))
            return on_nodes(model, params, xstar, v, *args)

        def counted(*args, **kwargs):
            evals.append(args)
            return functional(*args, **kwargs)

        monkeypatch.setattr(Model, "eval_on_nodes", stacked)
        monkeypatch.setattr(Model, "eval_functional", counted)
        t0 = poscontrol_tau0(4.0)
        params = poscontrol_model.params_from({"tau0": t0, "s0": 4.0, "k": 1.0, "c": 2.0,
                                               "gamma": 1.0})
        hopf_l1(poscontrol_model, params, [4.0, 4.0], np.pi / (2 * t0 + 4.0))
        assert stacks == [3, 8]
        assert evals == []

    def test_expoly_count_at_a_hopf_point(self, poscontrol_model, monkeypatch):
        # ExpPolys only at the API edge: q and its conjugate for hopf_h2, h20 and h11,
        # then q and qbar for the bracket; the polarization sums, their unit rescales
        # and the stacks are rows of TermStack arrays
        created = []
        init = ExpPoly.__init__

        def counted(self, *args, **kwargs):
            created.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ExpPoly, "__init__", counted)
        t0 = poscontrol_tau0(4.0)
        params = poscontrol_model.params_from({"tau0": t0, "s0": 4.0, "k": 1.0, "c": 2.0,
                                               "gamma": 1.0})
        hopf_l1(poscontrol_model, params, [4.0, 4.0], np.pi / (2 * t0 + 4.0))
        assert len(created) <= 6

    def test_scalar_worked_example(self, scalar_nf):
        exact = 0.5 * ((2 - 1j) / (1 + 1j * PI_2)).real
        assert scalar_nf.L1 == pytest.approx(exact, abs=1e-7)
        assert scalar_nf.L1 == pytest.approx(0.0619, abs=1e-4)
        assert scalar_nf.criticality == "subcritical"
        bracket = scalar_nf.g21 / scalar_nf.eig.p0[0]
        assert bracket == pytest.approx(2 - 1j, abs=1e-6)

    def test_linear_model_has_zero_coefficients(self):
        m = parse_model(LINEAR_SRC)
        nf = hopf_l1(m, [-PI_2 * 0.0], [0.0], 1.0)
        assert abs(nf.L1) < 1e-9
        assert nf.criticality == "degenerate"

    def test_position_control_signs_either_side(self, poscontrol_model):
        # on the primary Hopf branch: subcritical well below the L1 zero
        # crossing, supercritical well above it
        for s0, expected in ((3.0, "subcritical"), (7.0, "supercritical")):
            t0 = poscontrol_tau0(s0)
            asg = {"tau0": t0, "s0": s0, "k": 1.0, "c": 2.0, "gamma": 1.0}
            params = poscontrol_model.params_from(asg)
            x = np.array([s0, s0])
            nf = hopf_l1(poscontrol_model, params, x, np.pi / (2 * t0 + s0))
            assert nf.criticality == expected

    def test_phase_invariance(self, scalar_model, scalar_nf):
        base = scalar_nf.L1
        eig = scalar_nf.eig
        for phi in (0.3, 1.0, 2.5):
            rot = np.exp(1j * phi)
            eig_rot = EigenData(
                omega=eig.omega, q0=eig.q0 * rot, p0=eig.p0 / rot, residuals=eig.residuals
            )
            nf = hopf_l1(scalar_model, [-PI_2], [-PI_2], 1.0, eig=eig_rot)
            assert nf.L1 == pytest.approx(base, rel=1e-8)

    def test_scaling_preserves_sign(self, scalar_model, scalar_nf):
        eig = scalar_nf.eig
        lin = linearize(scalar_model, [-PI_2], [-PI_2])
        for c in (0.5, 2.0):
            q0 = eig.q0 * c
            p0 = eig.p0 / (eig.p0 @ char_matrix_deriv(lin, eig.lam) @ q0)
            eig_scaled = EigenData(omega=eig.omega, q0=q0, p0=p0)
            nf = hopf_l1(scalar_model, [-PI_2], [-PI_2], 1.0, eig=eig_scaled)
            assert np.sign(nf.L1) == np.sign(scalar_nf.L1)
            assert nf.L1 == pytest.approx(scalar_nf.L1 * c * c, rel=1e-6)

    def test_given_linearization_gives_the_same_bits(self, scalar_model, scalar_nf):
        lin = linearize(scalar_model, [-PI_2], [-PI_2])
        nf = hopf_l1(scalar_model, [-PI_2], [-PI_2], 1.0, lin=lin)
        assert nf.L1 == scalar_nf.L1 and nf.g21 == scalar_nf.g21
        # the point is still checked, not the linearization
        off = linearize(scalar_model, [-PI_2], [-1.5], check_equilibrium=False)
        with pytest.raises(NumericalError, match="requires an equilibrium"):
            hopf_l1(scalar_model, [-PI_2], [-1.5], 1.0, lin=off)

    def test_step_halving_stability(self, scalar_model, scalar_nf):
        nf2 = hopf_l1(
            scalar_model, [-PI_2], [-PI_2], 1.0, settings=DerivSettings(radius=0.125)
        )
        assert nf2.L1 == pytest.approx(scalar_nf.L1, rel=1e-5)


class TestFold:
    def test_quadratic_normal_form(self):
        m = parse_model('name="f"\ndim=1\nparameters=["p"]\ndelays=["0"]\nrhs=["p + x1@1^2"]\n')
        a = fold_coefficient(m, [0.0], [0.0])
        assert a == pytest.approx(1.0, abs=1e-8)

    def test_linear_zero_root(self):
        m = parse_model('name="z"\ndim=1\nparameters=[]\ndelays=["0"]\nrhs=["0 * x1@1"]\n')
        a = fold_coefficient(m, [], [0.0])
        assert a == pytest.approx(0.0, abs=1e-10)

    def test_double_zero_root_refused(self):
        # Delta(lam) = lam - 1 + exp(-lam): Delta(0) = Delta'(0) = 0, a Jordan chain
        m = parse_model('name="bt"\ndim=1\nparameters=[]\ndelays=["0", "1"]\n'
                        'rhs=["x1@1 - x1@2 + x1@1^2"]\n')
        with pytest.raises(DegenerateEigenvalueError, match="non-semisimple"):
            fold_coefficient(m, [], [0.0])

    def test_no_zero_root_error(self, poscontrol_model, poscontrol_ref):
        params = poscontrol_model.params_from(poscontrol_ref)
        with pytest.raises(DegenerateEigenvalueError, match="no zero root"):
            fold_coefficient(poscontrol_model, params, [4.0, 4.0])


def bordered_solve(L_h, L_alpha, rhs):
    """(h, alpha) with L_h h = L_alpha alpha + rhs and h orthogonal to null(L_h^T).

    At a resonant order L_h has a kernel of dimension d = L_alpha.shape[1];
    the d bordering rows make the system regular and alpha is the
    normal-form coefficient that makes it solvable.
    """
    k, d = L_alpha.shape
    null_lh_t = np.linalg.svd(L_h)[0][:, k - d:]
    bordered = np.block([[L_h, -L_alpha], [null_lh_t.T, np.zeros((d, d))]])
    sol = np.linalg.solve(bordered, np.concatenate([rhs, np.zeros(d)]))
    return sol[:k], sol[k:]


class TestHomologicalSolve:
    def test_order3_alpha_gives_l1(self, scalar_model, scalar_nf):
        # resonant order 3 at Delta(i w): alpha = g21/2, so Re(alpha)/w is L1
        model, params, x, nf = scalar_model, [-PI_2], [-PI_2], scalar_nf
        lin = linearize(model, params, x)
        eig = nf.eig
        q = eigenfunction(eig)
        f3 = multilinear_form(model, params, x, [q, q, q.conjugate()])
        t2 = multilinear_form(model, params, x, [q.conjugate(), nf.h2_20])
        t3 = multilinear_form(model, params, x, [q, nf.h2_11])
        L_h = char_matrix(lin, 1j * eig.omega)
        L_alpha = -(char_matrix_deriv(lin, 1j * eig.omega) @ eig.q0)[:, None]
        rhs = 0.5 * (f3 + t2 + t3)
        h21, alpha = bordered_solve(L_h, L_alpha, rhs)
        assert alpha.shape == (1,)
        assert alpha[0].real / eig.omega == pytest.approx(nf.L1, abs=1e-8)
        # the computed h21 satisfies the system together with alpha
        assert np.max(np.abs(L_h @ h21 - L_alpha @ alpha - rhs)) < 1e-12

    def test_fold_system_equivalence(self):
        # resonant order 2 at a simple zero root: alpha is the fold coefficient a
        m = parse_model('name="f"\ndim=1\nparameters=["p"]\ndelays=["0"]\nrhs=["p + x1@1^2"]\n')
        lin = linearize(m, [0.0], [0.0])
        q = ExpPoly.constant([1.0])
        f2qq = multilinear_form(m, [0.0], [0.0], [q, q])
        L_alpha = -(char_matrix_deriv(lin, 0.0) @ np.array([1.0]))[:, None]
        _, alpha = bordered_solve(char_matrix(lin, 0.0), L_alpha, 0.5 * f2qq)
        assert alpha[0].real == pytest.approx(fold_coefficient(m, [0.0], [0.0]), abs=1e-8)
