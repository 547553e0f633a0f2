import math

import numpy as np
import pytest
from scipy.optimize import brentq

import sddde.continuation
import sddde.normalform
import sddde.spectral
from sddde import (
    ConvergenceError,
    DerivSettings,
    ModelError,
    RootSettings,
    SdddeError,
    StepSettings,
    continue_branch,
    continue_hopf_curve,
    hopf_l1,
    parse_model,
    solve_equilibrium,
)
from sddde.continuation import _hopf_system, _start_hopf_curve, _with_param
from sddde.spectral import char_matrix, char_matrix_deriv, hopf_pair, linearize, refine_root

PI_2 = np.pi / 2

STABLE_LINEAR_SRC = (
    'name="stable"\ndim=1\nparameters=["p"]\ntau_max=2\n'
    'delays=["0", "1"]\nrhs=["p - 0.5*x1@2"]\n'
)

FOLD_SRC = 'name="fold"\ndim=1\nparameters=["p"]\ndelays=["0", "1"]\nrhs=["p - x1@2^2"]\n'

CUBIC_FREE_TAU_SRC = (
    'name="cubic"\ndim=1\nparameters=["p", "tau"]\ntau_max=6\n'
    'delays=["0", "tau"]\nrhs=["p - x1@2^3"]\n'
)
CUBIC_FREE_TAU_SD_SRC = CUBIC_FREE_TAU_SRC.replace('"tau"]\nrhs', '"tau + 0*x1@1"]\nrhs')
# the same cubic model with tau_max = 2: its Hopf curve p = (pi/(6 tau))^1.5 leaves the
# delay domain where tau reaches 2
CUBIC_SHORT_DOMAIN_SRC = CUBIC_FREE_TAU_SRC.replace("tau_max=6", "tau_max=2")


def hopf_formula_tau0(s0, k=1.0):
    def g(t):
        om = np.pi / (2 * t + s0)
        return 2 * om / k - np.sin(om * t) - np.sin(om * (t + s0))

    return brentq(g, 0.5, 2.0, xtol=1e-13)


class TestSolveEquilibrium:
    def test_position_control(self, poscontrol_model, poscontrol_ref):
        params = poscontrol_model.params_from(poscontrol_ref)
        x = solve_equilibrium(poscontrol_model, params, np.array([4.0, 4.0]))
        assert x == pytest.approx([4.0, 4.0], abs=1e-12)

    def test_scalar_from_zero_guess(self, scalar_model):
        x = solve_equilibrium(scalar_model, [-PI_2], np.zeros(1))
        assert x[0] == pytest.approx(-PI_2, abs=1e-12)

    def test_singular_jacobian(self):
        m = parse_model('name="s"\ndim=1\nparameters=["p"]\ndelays=["0"]\nrhs=["p - x1@1^2"]\n')
        with pytest.raises(ConvergenceError, match="singular Jacobian"):
            solve_equilibrium(m, [-1.0], np.zeros(1))


class TestBranch:
    def test_scalar_hopf_detection(self, scalar_model):
        pts = continue_branch(
            scalar_model,
            {"p": -1.5},
            "p",
            (-2.0, -1.0),
            np.array([-1.5]),
            step=StepSettings(initial=0.05, max_points=60),
        )
        events = [pt for pt in pts if pt.event == "HOPF"]
        assert len(events) == 1
        assert events[0].param == pytest.approx(-PI_2, abs=1e-6)
        assert events[0].omega == pytest.approx(1.0, abs=1e-6)
        # the secant on the test function converges well past its stopping bracket
        assert abs(events[0].param + PI_2) <= 1e-10

    def test_branch_points_are_equilibria(self, scalar_model):
        pts = continue_branch(
            scalar_model,
            {"p": -1.5},
            "p",
            (-1.8, -1.2),
            np.array([-1.5]),
            step=StepSettings(initial=0.1, max_points=30),
        )
        for pt in pts:
            res = scalar_model.equilibrium_residual([pt.param], pt.x)
            assert np.max(np.abs(res)) <= 1e-8

    def test_stability_flag_flips_at_event(self, scalar_model):
        pts = continue_branch(
            scalar_model,
            {"p": -1.5},
            "p",
            (-2.0, -1.0),
            np.array([-1.5]),
            step=StepSettings(initial=0.05, max_points=60),
        )
        idx = next(i for i, pt in enumerate(pts) if pt.event == "HOPF")
        before = [pt.stable for pt in pts[:idx] if pt.event is None]
        after = [pt.stable for pt in pts[idx + 1 :] if pt.event is None]
        assert set(before) == {False} and set(after) == {True}

    def test_position_control_hopf_vs_formula(self, poscontrol_model):
        # independent oracle: bisection root of the analytic Hopf relation
        expected = hopf_formula_tau0(4.0)
        asg = {"tau0": 0.8, "s0": 4.0, "k": 1.0, "c": 2.0, "gamma": 1.0}
        pts = continue_branch(
            poscontrol_model,
            asg,
            "tau0",
            (0.5, 1.5),
            np.array([4.0, 4.0]),
            step=StepSettings(initial=0.1, max_points=40),
        )
        events = [pt for pt in pts if pt.event == "HOPF"]
        assert len(events) == 1
        assert events[0].param == pytest.approx(expected, abs=1e-6)

    def test_stable_linear_branch_has_no_events(self):
        m = parse_model(STABLE_LINEAR_SRC)
        pts = continue_branch(
            m,
            {"p": 0.0},
            "p",
            (-1.0, 1.0),
            np.zeros(1),
            step=StepSettings(initial=0.2, max_points=30),
        )
        assert all(pt.event is None for pt in pts)
        assert all(pt.stable for pt in pts)
        values = [pt.param for pt in pts]
        assert values == sorted(values)

    def test_fold_located_on_the_curve(self, monkeypatch):
        # p = x^2 turns back at p = 0, which no step in p alone can cross
        lin_calls = _counting(monkeypatch, "linearize")
        pts = continue_branch(
            parse_model(FOLD_SRC),
            {"p": 1.0},
            "p",
            (-1.0, 2.0),
            np.array([1.0]),
            step=StepSettings(initial=0.1),
        )
        (fold,) = [pt for pt in pts if pt.event == "FOLD"]
        assert abs(fold.param) <= 1e-8 and abs(fold.x[0]) <= 1e-4
        assert sum(1 for (_, params, _) in lin_calls if params[0] == fold.param) == 1

    def test_fold_iterates_skip_the_roots(self, monkeypatch):
        # the secant iterates need only det(sum A_j); the roots are computed at the fold alone
        calls = _counting(monkeypatch, "characteristic_roots")
        pts = continue_branch(parse_model(FOLD_SRC), {"p": 1.0}, "p", (-1.0, 2.0),
                              np.array([1.0]), step=StepSettings(initial=0.1))
        k = next(i for i, pt in enumerate(pts) if pt.event == "FOLD")
        lo, hi = sorted((pts[k - 1].x[0], pts[k + 1].x[0]))
        inside = [lin.xstar[0] for (lin, *_) in calls if lo < lin.xstar[0] < hi]
        assert inside == [pts[k].x[0]]

    def test_reversal_retraces_branch(self, scalar_model):
        fwd = continue_branch(
            scalar_model,
            {"p": -1.9},
            "p",
            (-1.9, -1.1),
            np.array([-1.9]),
            step=StepSettings(initial=0.07, max_points=40),
            direction="forward",
        )
        bwd = continue_branch(
            scalar_model,
            {"p": -1.1},
            "p",
            (-1.9, -1.1),
            np.array([-1.1]),
            step=StepSettings(initial=0.07, max_points=40),
            direction="backward",
        )
        ps = np.array([pt.param for pt in bwd if pt.event is None])
        xs = np.array([pt.x[0] for pt in bwd if pt.event is None])
        for pt in fwd:
            if pt.event is None and ps.min() <= pt.param <= ps.max():
                interp = np.interp(pt.param, ps, xs)
                assert abs(interp - pt.x[0]) <= 1e-6


@pytest.fixture(scope="module")
def curve(poscontrol_model, poscontrol_ref):
    return continue_hopf_curve(
        poscontrol_model,
        poscontrol_ref,
        ("tau0", "s0"),
        np.array([4.0, 4.0]),
        omega_guess=np.pi / 6,
        step=StepSettings(initial=0.25, max_points=12, max_step=0.5),
    )


class TestHopfCurve:
    def test_points_satisfy_analytic_identity(self, curve):
        assert len(curve) >= 20
        for pt in curve:
            tau0, s0 = pt.params
            om = pt.omega
            assert abs(2 * om - np.sin(om * tau0) - np.sin(om * (tau0 + s0))) <= 1e-6
            assert abs(om - np.pi / (2 * tau0 + s0)) <= 1e-6

    def test_residuals_small(self, curve):
        assert max(pt.residual for pt in curve) <= 1e-8

    def test_q0_phase_fixed(self, curve):
        for pt in curve:
            k = int(np.argmax(np.abs(pt.q0)))
            assert abs(pt.q0[k].imag) < 1e-10 and pt.q0[k].real > 0

    def test_l1_zero_event_mechanics(self, poscontrol_model):
        asg = {"tau0": 1.03, "s0": 5.8, "k": 1.0, "c": 2.0, "gamma": 1.0}
        pts = continue_hopf_curve(
            poscontrol_model,
            asg,
            ("tau0", "s0"),
            np.array([5.8, 5.8]),
            omega_guess=np.pi / (2 * 1.03 + 5.8),
            step=StepSettings(initial=0.25, max_points=2, max_step=0.4),
            monitor_l1=True,
        )
        events = [pt for pt in pts if pt.event == "L1_ZERO"]
        assert len(events) == 1
        assert abs(events[0].L1) < 1e-6
        # refined on the curve itself
        assert events[0].residual <= 1e-8
        signs = [np.sign(pt.L1) for pt in pts if pt.event is None and pt.L1 is not None]
        assert len(set(signs)) == 2

    def test_l1_monitor_honours_deriv_settings(self, poscontrol_model, monkeypatch):
        calls = []

        def recording(model, params, xstar, omega_guess, settings=None, **kwargs):
            calls.append((tuple(params), settings))
            return hopf_l1(model, params, xstar, omega_guess, settings=settings, **kwargs)

        monkeypatch.setattr(sddde.continuation, "hopf_l1", recording)
        settings = DerivSettings(radius=0.125)
        asg = {"tau0": 1.03, "s0": 5.8, "k": 1.0, "c": 2.0, "gamma": 1.0}
        pts = continue_hopf_curve(
            poscontrol_model,
            asg,
            ("tau0", "s0"),
            np.array([5.8, 5.8]),
            omega_guess=np.pi / (2 * 1.03 + 5.8),
            step=StepSettings(initial=0.25, max_points=2, max_step=0.4),
            monitor_l1=True,
            deriv_settings=settings,
        )
        (event,) = [pt for pt in pts if pt.event == "L1_ZERO"]
        assert len(calls) > len(pts)  # the secant refinement ran
        assert all(s is settings for _, s in calls)
        # the event reuses the secant's L1 instead of computing it again
        i, j = (poscontrol_model.param_names.index(name) for name in ("tau0", "s0"))
        assert sum(1 for p, _ in calls if (p[i], p[j]) == event.params) == 1

    def test_curve_points_hand_their_eigendata_to_hopf_l1(self, poscontrol_model, monkeypatch):
        # every point and secant iterate builds its linearization and eigendata
        # once, at its own (x, p, i omega), and no root is refined again
        refined, given = [], []

        def refine(*args, **kwargs):
            refined.append(args)
            return refine_root(*args, **kwargs)

        def recording(model, params, xstar, omega_guess, settings=None, eig=None, lin=None):
            given.append((omega_guess, eig))
            assert np.array_equal(lin.params, params) and np.array_equal(lin.xstar, xstar)
            return hopf_l1(model, params, xstar, omega_guess, settings=settings, eig=eig, lin=lin)

        def no_second_linearization(*args, **kwargs):
            raise AssertionError("hopf_l1 linearized a point it was given a linearization of")

        monkeypatch.setattr(sddde.spectral, "refine_root", refine)
        monkeypatch.setattr(sddde.continuation, "hopf_l1", recording)
        monkeypatch.setattr(sddde.normalform, "linearize", no_second_linearization)
        asg = {"tau0": 1.03, "s0": 5.8, "k": 1.0, "c": 2.0, "gamma": 1.0}
        pts = continue_hopf_curve(
            poscontrol_model, asg, ("tau0", "s0"), np.array([5.8, 5.8]),
            omega_guess=np.pi / (2 * 1.03 + 5.8),
            step=StepSettings(initial=0.25, max_points=2, max_step=0.4), monitor_l1=True,
        )
        assert refined == [] and len(given) > len(pts)
        assert all(eig is not None and eig.omega == omega for omega, eig in given)
        for pt in pts:  # the point's q0 is the q of its eigendata
            assert any(np.array_equal(eig.q0, pt.q0) for omega, eig in given if omega == pt.omega)

    def test_l1_zero_secant_is_illinois(self, poscontrol_model, monkeypatch):
        # the hopf_curve_l1 benchmark workload's seed-0 curve, where a one-sided
        # regula falsi needs more than 20 calls
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return hopf_l1(*args, **kwargs)

        monkeypatch.setattr(sddde.continuation, "hopf_l1", counting)
        s0 = 5.0
        tau0 = hopf_formula_tau0(s0)
        asg = {"tau0": tau0, "s0": s0, "k": 1.0, "c": 2.0, "gamma": 1.0}
        pts = continue_hopf_curve(
            poscontrol_model,
            asg,
            ("tau0", "s0"),
            np.array([s0, s0]),
            omega_guess=np.pi / (2 * tau0 + s0),
            step=StepSettings(initial=0.35, max_points=7),
            monitor_l1=True,
        )
        (event,) = [pt for pt in pts if pt.event == "L1_ZERO"]
        assert len(calls) <= 20
        assert np.hypot(event.params[0] - 1.0277652, event.params[1] - 5.9315866) <= 1e-5

    def test_l1_agrees_across_deriv_settings(self, poscontrol_model):
        # the contour derivatives are exact up to roundoff, so no circle radius or
        # number of node levels moves the monitored L1
        asg = {"tau0": 1.03, "s0": 5.8, "k": 1.0, "c": 2.0, "gamma": 1.0}
        curves = [
            continue_hopf_curve(
                poscontrol_model,
                asg,
                ("tau0", "s0"),
                np.array([5.8, 5.8]),
                omega_guess=np.pi / (2 * 1.03 + 5.8),
                step=StepSettings(initial=0.25, max_points=2, max_step=0.4),
                monitor_l1=True,
                deriv_settings=DerivSettings(radius=radius, levels=levels),
            )
            for radius in (0.1, 0.25)
            for levels in (1, 2, 3)
        ]
        base = curves[0]
        assert sum(1 for pt in base if pt.event == "L1_ZERO") == 1
        for pts in curves[1:]:
            assert [pt.event for pt in pts] == [pt.event for pt in base]
            for pt, ref in zip(pts, base):
                assert abs(pt.L1 - ref.L1) <= 1e-9

    def test_representation_invariance_constant_delays(self):
        # the same constant-delay model, once literal and once written as a
        # state-dependent expression, gives identical curves
        p_star = 3.0 ** (-1.5)
        results = []
        for src in (CUBIC_FREE_TAU_SRC, CUBIC_FREE_TAU_SD_SRC):
            m = parse_model(src)
            asg = {"p": p_star, "tau": PI_2}
            pts = continue_hopf_curve(
                m,
                asg,
                ("p", "tau"),
                np.array([3.0 ** (-0.5)]),
                omega_guess=1.0,
                step=StepSettings(initial=0.1, max_points=6, max_step=0.2),
            )
            results.append(pts)
        a, b = results
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert abs(pa.params[0] - pb.params[0]) <= 1e-8
            assert abs(pa.params[1] - pb.params[1]) <= 1e-8
            assert abs(pa.omega - pb.omega) <= 1e-8


def _hopf_system_fresh(model, pvec_base, free, c_row):
    """The extended Hopf system with a fresh linearization in every call of the
    residual and of the Jacobian, and Delta, Delta' from char_matrix and
    char_matrix_deriv: the oracle of the shared state."""
    n = model.n

    def unpack(y):
        pv = _with_param(pvec_base, free, y[3 * n + 1 : 3 * n + 3])
        return y[:n], y[n : 2 * n] + 1j * y[2 * n : 3 * n], y[3 * n], pv

    def residual(y):
        x, q, omega, pv = unpack(y)
        lin = linearize(model, pv, x, check_equilibrium=False)
        w = char_matrix(lin, 1j * omega) @ q
        norm = c_row @ q - 1.0
        return np.concatenate([model.equilibrium_residual(pv, x), w.real, w.imag,
                               [norm.real, norm.imag]])

    def jacobian(y):
        x, q, omega, pv = unpack(y)
        lin = linearize(model, pv, x, check_equilibrium=False)
        A, fp = model.frozen_derivatives(pv, x)
        dA, dtau = model.frozen_derivatives(pv, x, order=2)
        z = list(range(n)) + [n + k for k in free]
        E = np.exp(-1j * omega * np.array(lin.taus))
        dw = (1j * omega * (A @ q).T @ (E[:, None] * dtau[:, z])
              - np.tensordot(E, dA[..., z], 1).swapaxes(1, 2) @ q)
        D = char_matrix(lin, 1j * omega)
        dD = 1j * char_matrix_deriv(lin, 1j * omega) @ q
        W = np.hstack([dw[:, :n], D, 1j * D, dD[:, None], dw[:, n:]])
        N = np.concatenate([np.zeros(n), c_row, 1j * c_row, np.zeros(3)])
        eq = np.hstack([A.sum(axis=0), np.zeros((n, 2 * n + 1)), fp[:, free]])
        return np.vstack([eq, W.real, W.imag, N.real, N.imag])

    return residual, jacobian


class TestHopfState:
    """One linearization per y, shared by the residual, the Jacobian and the eigendata."""

    @pytest.fixture(scope="class")
    def start(self, poscontrol_model, poscontrol_ref):
        y0, c_row, _ = _start_hopf_curve(poscontrol_model, poscontrol_ref, ("tau0", "s0"),
                                         [4.0, 4.0], np.pi / 6)
        return y0, c_row, poscontrol_model.params_from(poscontrol_ref)

    def test_system_is_the_fresh_system(self, poscontrol_model, start):
        y0, c_row, pvec = start
        shared = _hopf_system(poscontrol_model, pvec, [0, 1], c_row)
        fresh = _hopf_system_fresh(poscontrol_model, pvec, [0, 1], c_row)
        y1 = y0 + 1e-3 * np.random.default_rng(5).standard_normal(y0.size)
        for y in (y0, y1, y1, y0):
            for f, g in zip(shared[:2], fresh):   # the residual, then the Jacobian at the same y
                assert f(y).tobytes() == g(y).tobytes()
        y2 = y1 + 1e-4   # the Jacobian first
        assert shared[1](y2).tobytes() == fresh[1](y2).tobytes()
        assert shared[0](y2).tobytes() == fresh[0](y2).tobytes()

    def test_eigendata_is_the_fresh_eigendata(self, poscontrol_model, start):
        y0, c_row, pvec = start
        s = _hopf_system(poscontrol_model, pvec, [0, 1], c_row)[2](y0)
        eig = hopf_pair(s.lin, 1j * s.omega)
        ref = hopf_pair(linearize(poscontrol_model, s.params, y0[:2], check_equilibrium=False),
                        1j * y0[6])
        assert eig.omega == ref.omega and eig.residuals == ref.residuals
        assert eig.q0.tobytes() == ref.q0.tobytes() and eig.p0.tobytes() == ref.p0.tobytes()

    def test_no_y_is_linearized_twice_in_a_row(self, poscontrol_model, poscontrol_ref,
                                               monkeypatch):
        calls = _counting(monkeypatch, "linearize")
        continue_hopf_curve(poscontrol_model, poscontrol_ref, ("tau0", "s0"), [4.0, 4.0],
                            0.52, step=StepSettings(initial=0.25, max_points=3),
                            monitor_l1=True)
        keys = [(np.asarray(params).tobytes(), np.asarray(x).tobytes())
                for _, params, x, *_ in calls]
        # the guess's linearization for the null vectors serves the first Newton
        # iterate (other q and omega), and the curve goes on in the start's system
        # from its last iterate
        assert len(keys) > 10 and sum(a == b for a, b in zip(keys, keys[1:])) == 0


def _counting(monkeypatch, name):
    """Replace sddde.continuation.<name> by a wrapper that records its arguments."""
    calls = []
    original = getattr(sddde.continuation, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sddde.continuation, name, wrapper)
    return calls


class TestArclengthStepper:
    """Edges of the pseudo-arclength stepper shared by branches and Hopf curves."""

    def _scalar_forward(self, scalar_model, max_points):
        return continue_branch(
            scalar_model,
            {"p": -1.5},
            "p",
            (-2.0, -1.0),
            np.array([-1.5]),
            step=StepSettings(max_points=max_points),
            direction="forward",
        )

    @pytest.mark.parametrize("max_points", [5, 1])
    def test_branch_stops_at_max_points_without_extra_step(self, scalar_model, monkeypatch,
                                                           max_points):
        calls = _counting(monkeypatch, "newton")
        pts = self._scalar_forward(scalar_model, max_points)
        # the start, the natural first step and max_points - 1 arclength steps, one
        # Newton solve each
        assert len(pts) == max_points + 1
        assert all(pt.event is None for pt in pts)
        assert len(calls) == max_points + 1

    def test_corrector_underflow_messages(self, scalar_model, poscontrol_model, poscontrol_ref,
                                          monkeypatch):
        attempts = []

        def failing(residual, tangent, y_pred, tol, max_iters):
            attempts.append(y_pred)
            raise ConvergenceError("forced corrector failure")

        monkeypatch.setattr(sddde.continuation, "_correct", failing)
        with pytest.raises(ConvergenceError, match="continuation step underflow"):
            self._scalar_forward(scalar_model, 5)
        # h = 0.05 halves until it drops below _MIN_STEP = 1e-5: 13 corrector attempts
        assert len(attempts) == 13
        attempts.clear()
        with pytest.raises(ConvergenceError, match="Hopf-curve corrector failure after step"):
            continue_hopf_curve(
                poscontrol_model,
                poscontrol_ref,
                ("tau0", "s0"),
                np.array([4.0, 4.0]),
                omega_guess=np.pi / 6,
                step=StepSettings(initial=0.1, max_points=3),
            )
        # h = 0.1: 14 attempts
        assert len(attempts) == 14

    def test_hopf_curve_max_points_one_is_one_step_per_leg(self, poscontrol_model,
                                                           poscontrol_ref, monkeypatch):
        calls = _counting(monkeypatch, "newton")
        pts = continue_hopf_curve(
            poscontrol_model,
            poscontrol_ref,
            ("tau0", "s0"),
            np.array([4.0, 4.0]),
            omega_guess=np.pi / 6,
            step=StepSettings(initial=0.1, max_points=1),
        )
        assert len(pts) == 3
        assert len(calls) == 4  # the two start solves and one corrector per leg
        assert max(pt.residual for pt in pts) <= 1e-8

    @pytest.mark.parametrize("settings, message", [
        ({"initial": 0.0}, "initial must be positive and finite"),
        ({"initial": -0.1}, "initial must be positive and finite"),
        ({"initial": math.nan}, "initial must be positive and finite"),
        ({"max_step": math.inf}, "max_step must be positive and finite"),
        ({"max_points": 0}, "max_points must be at least 1"),
    ])
    def test_step_settings_are_validated(self, settings, message):
        with pytest.raises(SdddeError, match=message):
            StepSettings(**settings)

    @pytest.mark.parametrize("settings, message", [
        ({"count": 0}, "count must be at least 1"),
        ({"re_cutoff": math.nan}, "re_cutoff must be finite"),
        ({"re_cutoff": -math.inf}, "re_cutoff must be finite"),
        ({"cheb_nodes": 0}, "cheb_nodes must be at least 1"),
    ])
    def test_root_settings_are_validated(self, settings, message):
        with pytest.raises(SdddeError, match=message):
            RootSettings(**settings)

    def test_hopf_curve_leg_ends_at_delay_domain(self):
        m = parse_model(CUBIC_SHORT_DOMAIN_SRC)
        tau = 1.5
        p = (np.pi / (6 * tau)) ** 1.5
        pts = continue_hopf_curve(
            m,
            {"p": p, "tau": tau},
            ("p", "tau"),
            np.array([p ** (1.0 / 3.0)]),
            omega_guess=np.pi / (2 * tau),
            step=StepSettings(initial=0.1, max_points=40, max_step=0.2),
            direction="backward",  # p decreasing, tau increasing towards tau_max
        )
        taus = [pt.params[1] for pt in pts]
        assert len(pts) < 41
        assert taus == sorted(taus, reverse=True)
        assert 1.6 < taus[0] <= 2.0
        for pt in pts:
            p_curve = (np.pi / (6 * pt.params[1])) ** 1.5
            assert max(pt.residual, abs(pt.params[0] - p_curve)) <= 1e-8

    def test_hopf_event_roots_computed_once(self, scalar_model, monkeypatch):
        calls = _counting(monkeypatch, "characteristic_roots")
        lin_calls = _counting(monkeypatch, "linearize")
        pts = continue_branch(
            scalar_model,
            {"p": -1.5},
            "p",
            (-2.0, -1.0),
            np.array([-1.5]),
            step=StepSettings(initial=0.05, max_points=10),
            direction="backward",
        )
        (event,) = [pt for pt in pts if pt.event == "HOPF"]
        assert event.omega == pytest.approx(1.0, abs=1e-6)
        assert sum(1 for (lin, *_) in calls if lin.params[0] == event.param) == 1
        assert sum(1 for (_, params, _) in lin_calls if params[0] == event.param) == 1

    def test_locator_bisects_while_an_end_value_is_not_finite(self):
        # on the parabola y1 = y0^2 the test value y0 - 0.3 is -inf for y0 <= 0.2,
        # as _test_hopf is where no complex pair exists
        system = (lambda y: np.array([y[1] - y[0] ** 2]), lambda y: np.array([[-2 * y[0], 1.0]]))
        evaluated = []

        def value(y):
            evaluated.append(y[0])
            return (y[0] - 0.3 if y[0] > 0.2 else -np.inf), None

        y, _ = sddde.continuation._locate_zero(
            system, value, np.zeros(2), np.ones(2), -np.inf, 0.7, np.sqrt(2), 1e-8
        )
        assert abs(y[0] - 0.3) <= 1e-8 and abs(y[1] - y[0] ** 2) <= 1e-10
        # the first iterate is the chord midpoint, corrected onto y0 + y1 = 1
        assert evaluated[0] == pytest.approx((np.sqrt(5) - 1) / 2)
        assert len(evaluated) <= 12

    @pytest.mark.parametrize("direction", ["up", "Forward", ""])
    def test_unknown_direction_raises(self, scalar_model, poscontrol_model, poscontrol_ref,
                                      direction):
        with pytest.raises(ModelError, match="direction"):
            continue_branch(
                scalar_model, {"p": -1.5}, "p", (-2.0, -1.0), np.array([-1.5]),
                direction=direction,
            )
        with pytest.raises(ModelError, match="direction"):
            continue_hopf_curve(
                poscontrol_model, poscontrol_ref, ("tau0", "s0"), np.array([4.0, 4.0]),
                omega_guess=np.pi / 6, direction=direction,
            )
