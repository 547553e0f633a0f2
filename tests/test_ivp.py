import gc
import hashlib
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from sddde import (
    ConvergenceError,
    DelayRangeError,
    ExpPoly,
    NumericalError,
    SdddeError,
    characteristic_roots,
    combine,
    linearize,
    parse_model,
    simulate,
)
from sddde.model import Model, Num, _checked_delay

from test_model import _dense_history, _in_unit_range, _interpret, tree_st

PI_2 = np.pi / 2

LINEAR_SRC = 'name="lin"\ndim=1\nparameters=[]\ntau_max=2\ndelays=["0","1"]\nrhs=["0 - x1@2"]\n'
SHORT_DELAY_SRC = 'name="sd"\ndim=1\nparameters=[]\ntau_max=1\ndelays=["0","0.005"]\nrhs=["0 - x1@2"]\n'
SWEEP_SRC = 'name="sw"\ndim=1\nparameters=["a"]\ntau_max=1\ndelays=["0","0.05"]\nrhs=["0 - a*x1@2"]\n'
LOG_SRC = 'name="lg"\ndim=1\nparameters=[]\ntau_max=1\ndelays=["0","1"]\nrhs=["log(x1@2)"]\n'
NAN_DELAY_SRC = 'name="nd"\ndim=1\nparameters=["p"]\n{tau_max}delays=["0", "0.5 + 0*x1@1"]\nrhs=["p - x1@2"]\n'
# x' = -1 from x = 0: the delay 0.5 + x(t) leaves [0, 1] in stage 2 of step 5
FALLING_DELAY_SRC = 'name="fd"\ndim=1\nparameters=[]\ntau_max=1\ndelays=["0","0.5 + x1@1"]\nrhs=["0 - 1"]\n'
# x' = -1 from x = 0: the delay 0.3 + x(t - 0.01), with x(t - 0.01) read off the
# tentative node, leaves [0, 1] in stage 2 of step 3
TENTATIVE_DELAY_SRC = ('name="td"\ndim=1\nparameters=[]\ntau_max=1\n'
                       'delays=["0", "0.01", "0.3 + x1@2"]\nrhs=["0 - 1"]\n')
# x' = x^2 from x = 1 overflows to inf mid-run, so the delay 0.5 + 0*x(t) turns NaN (step 12)
BLOWUP_SRC = ('name="bu"\ndim=1\nparameters=[]\ntau_max=1\ndelays=["0", "0.5 + 0*x1@1"]\n'
              'rhs=["x1@1*x1@1"]\n')
# a delay p whatever the state (0*x is -0.0 for the negative states of x' = 0.1 x(t - p))
CONST_DELAY_SRC = ('name="cd"\ndim=1\nparameters=["p"]\ntau_max=2\ndelays=["0", "p + 0*x1@1"]\n'
                   'rhs=["0.1*x1@2"]\n')

# sha256 of simulate's y and yp as little-endian float64 bytes. Models,
# histories and the solver use only + - * / here (no libm call), so the
# bytes are the same on any IEEE-754 platform.
GOLDEN = {
    ("scalar_nested", -0.05, 0.02): "61fc33992950301a5eb264f97ae876cdc9fcbaa33e974fef0345c31af6bfc7c5",
    ("scalar_nested", +0.05, 0.02): "e794d701520093cfc8ec1c78e52c22a989fefe1c02c65488d62178df4ba2003c",
    ("position_control", None, 0.05): "c2c3cc11ecbf33ad48ff4466bbc84e5cdab550fe91714ebc170ca00f6a5e97b1",
    ("position_control", None, 1.0): "dbad1aa4a3c7accd8d4bf45917fcc5922a1a885ab8b25282575ecbaa32840918",
}


@pytest.fixture(scope="module")
def linear_model():
    return parse_model(LINEAR_SRC)


@pytest.fixture(scope="module")
def char_history():
    lam = complex(scipy.special.lambertw(-1.0, 0))
    return lam, ExpPoly.exponential([1.0], lam).real_part()


def _reference_steps(model, P, hist, tau_max, h, nsteps):
    """(y, yp, evals) of simulate's steps and sweeps after its validation, by a
    stage-by-stage list loop over the tree-walking interpreter."""
    def F(x0, t, k, y, yp):
        # the functional of the stage at time t in step k, and whether it read node k + 1
        used, X = [], {}
        u = _dense_history(hist, x0, t, h, k, y, yp, used)
        try:
            for j, delay in enumerate(model.delay_exprs, start=1):
                theta = 0.0 if j == 1 else -_checked_delay(j, _interpret(delay, P, X), tau_max)
                for i, value in enumerate(u(theta), start=1):
                    X[i, j] = value
            return [_interpret(e, P, X) for e in model.rhs_exprs], bool(used)
        except (ValueError, ZeroDivisionError, OverflowError) as err:
            raise NumericalError(f"numerical failure: {err}") from err

    x0 = hist(0.0)
    y, yp = [x0], []   # node values and slopes; during step k, y[k + 1] is tentative
    sweeps = 0
    yp.append(F(x0, 0.0, 0, y, yp)[0])
    for k in range(nsteps):
        t0 = k * h
        y0, k1 = y[k], yp[k]
        y.append(y0)  # the first tentative node repeats node k
        yp.append(k1)
        for _ in range(5):
            sweeps += 1
            k2, used2 = F([a + (h / 2) * b for a, b in zip(y0, k1)], t0 + h / 2, k, y, yp)
            k3, used3 = F([a + (h / 2) * b for a, b in zip(y0, k2)], t0 + h / 2, k, y, yp)
            k4, used4 = F([a + h * b for a, b in zip(y0, k3)], t0 + h, k, y, yp)
            y_new = [a + (h / 6) * (b1 + 2 * b2 + 2 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)]
            m_new, used5 = F(y_new, t0 + h, k, y, yp)
            settled = not (used2 or used3 or used4 or used5) or all(  # a NaN never settles
                abs(a - b) <= 1e-12 for a, b in zip(y_new + m_new, y[-1] + yp[-1])
            )
            y[-1], yp[-1] = y_new, m_new
            if settled:
                break
        else:
            raise ConvergenceError(
                f"fixed-point sweeps for short delays did not settle at t={t0 + h:.6g}"
            )
    return np.array(y), np.array(yp), 1 + 4 * sweeps


def _run_outcome(run):
    """The bytes of y and yp and the evals of run(), or its error's type, message and data."""
    try:
        y, yp, evals = run()
    except SdddeError as err:
        return (type(err).__name__, str(err), getattr(err, "slot", None),
                repr(getattr(err, "value", None)))
    return y.tobytes(), yp.tobytes(), evals


def _kernel(model, P, hist, h, nsteps):
    traj = simulate(model, P, hist, t_end=nsteps * h, step=h)
    return traj.y, traj.yp, traj.evals


class TestSimulate:
    @pytest.mark.parametrize("key", list(GOLDEN))
    def test_trajectory_bytes_are_pinned(self, key, scalar_model, poscontrol_model, poscontrol_ref):
        name, dp, step = key
        if name == "scalar_nested":
            p = -math.pi / 2 + dp
            hist = lambda th: np.array([p + 0.01 * (1.0 + th * (2.0 + th))])  # noqa: E731
            traj = simulate(scalar_model, [p], hist, t_end=20.0, step=step)
        else:  # at step 1.0 = tau0 the fixed-point sweeps run at every step
            params = poscontrol_model.params_from(poscontrol_ref)
            hist = lambda th: np.array([3.7 + 0.1 * th, 4.2 - 0.02 * th])  # noqa: E731
            traj = simulate(poscontrol_model, params, hist, t_end=20.0, step=step)
        data = traj.y.astype("<f8").tobytes() + traj.yp.astype("<f8").tobytes()
        assert hashlib.sha256(data).hexdigest() == GOLDEN[key]

    def test_dense_state_is_not_tracked_by_the_gc(self, scalar_model):
        # the nodes and slopes grow as one flat float list per component, and
        # floats are not GC-tracked: 10,000 steps at the interpreter's default
        # thresholds trigger at most one collection, where a new list per node
        # and slope triggered 26 gen-0 and 2 gen-1 collections
        p = -math.pi / 2 - 0.05
        hist = lambda th: np.array([p + 0.01 * (1.0 + th * (2.0 + th))])  # noqa: E731
        simulate(scalar_model, [p], hist, t_end=0.2, step=0.02)  # the kernel compiles here
        thresholds, enabled = gc.get_threshold(), gc.isenabled()
        gc.set_threshold(700, 10, 10)
        gc.enable()
        try:
            gc.collect()
            before = sum(stats["collections"] for stats in gc.get_stats())
            traj = simulate(scalar_model, [p], hist, t_end=200.0, step=0.02)
            collections = sum(stats["collections"] for stats in gc.get_stats()) - before
        finally:
            gc.set_threshold(*thresholds)
            if not enabled:
                gc.disable()
        assert len(traj.t) == 10_001
        assert collections <= 1
        assert traj.y.flags.c_contiguous and traj.yp.flags.c_contiguous
        assert traj.y.shape == traj.yp.shape == (10_001, 1)

    def test_equilibrium_invariance(self, scalar_model):
        traj = simulate(scalar_model, [-PI_2], np.array([-PI_2]), t_end=5.0, step=0.01)
        assert np.max(np.abs(traj.y - (-PI_2))) <= 1e-12

    def test_characteristic_solution(self, linear_model, char_history):
        lam, hist = char_history
        traj = simulate(linear_model, [], hist, t_end=5.0, step=1e-3)
        for t in np.linspace(0.25, 5.0, 20):
            assert traj(t)[0] == pytest.approx(np.exp(lam * t).real, abs=1e-6)

    def test_dense_output_exact_at_nodes(self, linear_model, char_history):
        _, hist = char_history
        traj = simulate(linear_model, [], hist, t_end=1.0, step=0.05)
        for k in range(traj.t.size):
            assert np.array_equal(traj(traj.t[k]), traj.y[k])

    def test_dense_output_does_not_extrapolate(self, linear_model, char_history):
        _, hist = char_history
        traj = simulate(linear_model, [], hist, t_end=1.0, step=0.05)
        end = traj.t[-1]
        assert np.array_equal(traj(end), traj.y[-1])
        assert np.array_equal(traj(end * (1 + 1e-15)), traj.y[-1])  # snaps to the last node
        for time in (end + 0.01, end + 0.05, 2.0):
            with pytest.raises(SdddeError, match="beyond the trajectory end"):
                traj(time)

    def test_t_end_must_be_whole_steps(self, linear_model, char_history):
        _, hist = char_history
        with pytest.raises(SdddeError, match="whole number of steps"):
            simulate(linear_model, [], hist, t_end=1.0, step=0.3)  # would stop at 0.9
        traj = simulate(linear_model, [], hist, t_end=0.9, step=0.3)
        assert traj.t.size == 4 and traj.t[-1] == pytest.approx(0.9, rel=1e-12)

    def test_growth_and_decay_rates_match_roots(self, scalar_model):
        for dp in (-0.05, +0.05):
            p = np.array([-PI_2 + dp])
            xstar = p.copy()
            lin = linearize(scalar_model, p, xstar)
            roots = characteristic_roots(lin, count=4)
            rate = max(z.real for z, _ in roots)
            history = combine(
                1.0,
                ExpPoly.constant(xstar),
                1e-3,
                ExpPoly.exponential([1.0], 1j).real_part() * 2,
            )
            traj = simulate(scalar_model, p, history, t_end=200.0, step=0.02)
            dev = np.abs(traj.y[:, 0] - xstar[0])
            mask = traj.t > 20
            d, t = dev[mask], traj.t[mask]
            peaks = [
                (t[i], d[i])
                for i in range(1, len(d) - 1)
                if d[i] > d[i - 1] and d[i] >= d[i + 1]
            ]
            times = np.array([pk[0] for pk in peaks])
            values = np.array([pk[1] for pk in peaks])
            slope = np.polyfit(times, np.log(values), 1)[0]
            assert abs(slope - rate) <= 0.05 * abs(rate)

    def test_convergence_order(self, linear_model, char_history):
        _, hist = char_history

        def run(h):
            return simulate(linear_model, [], hist, t_end=4.0, step=h)

        ref = run(0.04 / 8)
        probe = np.linspace(1.0, 4.0, 13)
        e1 = max(abs(run(0.04)(t)[0] - ref(t)[0]) for t in probe)
        e2 = max(abs(run(0.02)(t)[0] - ref(t)[0]) for t in probe)
        assert 12.0 <= e1 / e2 <= 20.0

    def test_restart_consistency(self, linear_model, char_history):
        _, hist = char_history
        first = simulate(linear_model, [], hist, t_end=2.0, step=0.01)
        second = simulate(linear_model, [], lambda th: first(2.0 + th), t_end=2.0, step=0.01)
        direct = simulate(linear_model, [], hist, t_end=4.0, step=0.01)
        for t in np.linspace(0.0, 2.0, 41):
            assert abs(second(t)[0] - direct(2.0 + t)[0]) <= 1e-9

    def test_short_delay_fixed_point_sweeps(self):
        m = parse_model(SHORT_DELAY_SRC)
        coarse = simulate(m, [], np.array([1.0]), t_end=1.0, step=0.01)
        fine = simulate(m, [], np.array([1.0]), t_end=1.0, step=0.00125)
        assert coarse.y[-1][0] == pytest.approx(fine.y[-1][0], abs=1e-5)

    def test_sweeps_that_do_not_settle_raise(self):
        # x' = -x(t - 0.05) with step 0.1: the five sweeps over the tentative
        # step do not reach the 1e-12 tolerance at the first step
        m = parse_model(SWEEP_SRC)
        with pytest.raises(ConvergenceError, match="did not settle at t=0.1$"):
            simulate(m, [1.0], np.array([1.0]), t_end=1.0, step=0.1)

    def test_evaluation_count(self, linear_model, char_history):
        # one functional evaluation for the first slope, four per sweep
        _, hist = char_history
        traj = simulate(linear_model, [], hist, t_end=1.0, step=0.05)
        assert traj.evals == 4 * 20 + 1
        m = parse_model(SHORT_DELAY_SRC)
        traj = simulate(m, [], np.array([1.0]), t_end=1.0, step=0.01)
        assert traj.evals > 4 * 100 + 1
        # x' = -0.1 x(t - 0.05) at step 0.1: each step's node settles a sweep
        # before its slope, and the sweeps go on until both have
        traj = simulate(parse_model(SWEEP_SRC), [0.1], np.array([0.5]), t_end=2.0, step=0.1)
        assert traj.evals == 4 * 5 * 20 + 1

    def test_delay_out_of_range_is_typed(self, scalar_model):
        # the nested delay -x(t) is -0.5 from the constant history 0.5
        with pytest.raises(DelayRangeError) as err:
            simulate(scalar_model, [-1.6], np.array([0.5]), t_end=1.0, step=0.1)
        assert err.value.slot == 2
        assert err.value.value == -0.5
        assert str(err.value) == "delay out of range: slot 2 evaluated to -0.5, allowed [0, 10]"

    @pytest.mark.parametrize("tau_max", ["", "tau_max=2\n"], ids=["auto", "declared"])
    def test_nan_delay_is_out_of_range(self, tau_max):
        # x(0) = inf makes the delay 0.5 + 0*x(t) NaN at the first slope
        m = parse_model(NAN_DELAY_SRC.format(tau_max=tau_max))
        with pytest.raises(DelayRangeError) as err:
            simulate(m, [1.0], lambda th: np.array([math.inf if th == 0 else 0.0]),
                     t_end=1.0, step=0.1)
        assert err.value.slot == 2 and math.isnan(err.value.value)

    def test_math_errors_are_typed(self):
        m = parse_model(LOG_SRC)
        message = "^numerical failure: math domain error$"
        with pytest.raises(NumericalError, match=message):  # x(-1) = -0.5 at the first slope
            simulate(m, [], lambda th: np.array([0.5 + th]), t_end=1.0, step=0.01)
        # from the constant history 0.5, x falls through 0 near t = 0.72,
        # so log(x(t - 1)) fails near t = 1.72, mid-run
        simulate(m, [], np.array([0.5]), t_end=1.5, step=0.01)
        with pytest.raises(NumericalError, match=message):
            simulate(m, [], np.array([0.5]), t_end=5.0, step=0.01)

    @pytest.mark.parametrize(
        "t_end, step, message",
        [
            (1.0, math.nan, "step must be positive and finite"),
            (1.0, math.inf, "step must be positive and finite"),
            (1.0, 0.0, "step must be positive and finite"),
            (math.nan, 0.1, "t_end must be finite"),
            (math.inf, 0.1, "t_end must be finite"),
        ],
    )
    def test_non_finite_inputs_are_typed(self, linear_model, t_end, step, message):
        with pytest.raises(SdddeError, match=f"^{message}$"):
            simulate(linear_model, [], np.array([1.0]), t_end=t_end, step=step)

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf])
    def test_dense_output_refuses_non_finite_times(self, linear_model, time):
        traj = simulate(linear_model, [], np.array([1.0]), t_end=1.0, step=0.1)
        with pytest.raises(SdddeError, match="^time must be finite$"):
            traj(time)


class TestRk4Kernel:
    """The compiled stepping loop against a list loop over the tree-walking interpreter."""

    @given(
        d2=tree_st(1),
        d3=tree_st(2),
        r1=tree_st(3),
        r2=tree_st(3),
        P=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
        c=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
        h=st.sampled_from([0.3, 1.0, 0.05, 1.7, 0.004]),
        nsteps=st.integers(1, 6),
    )
    @settings(max_examples=300)
    def test_matches_reference_loop(self, d2, d3, r1, r2, P, c, h, nsteps):
        # delays in (0.01, 0.99): steps shorter than every delay, and longer,
        # where stages read the tentative node and the sweeps run
        delays = [Num(0.0), _in_unit_range(d2), _in_unit_range(d3)]
        model = Model("oracle", 2, ("p", "beta"), delays, [r1, r2], tau_max=1.0)

        def hist(theta):
            return [c[0] + c[1] * theta * theta, c[2] - c[3] * theta]

        ours = _run_outcome(lambda: _kernel(model, P, hist, h, nsteps))
        theirs = _run_outcome(lambda: _reference_steps(model, P, hist, 1.0, h, nsteps))
        assert ours == theirs

    @pytest.mark.parametrize("n", [1, 3])
    @given(data=st.data(), P=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
           h=st.sampled_from([0.3, 1.0, 0.05, 1.7, 0.004]), nsteps=st.integers(1, 6))
    @settings(max_examples=100)
    def test_matches_reference_loop_in_other_dims(self, n, data, P, h, nsteps):
        # the kernel unrolls each stage per component: the loop above in one and
        # in three components, the history c[2i] + c[2i+1] theta^2 for even i
        # and c[2i] - c[2i+1] theta for odd i
        delays = [Num(0.0), _in_unit_range(data.draw(tree_st(1, n))),
                  _in_unit_range(data.draw(tree_st(2, n)))]
        rhs = [data.draw(tree_st(3, n)) for _ in range(n)]
        c = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * n, max_size=2 * n))
        model = Model("oracle", n, ("p", "beta"), delays, rhs, tau_max=1.0)

        def hist(theta):
            return [c[2 * i] + c[2 * i + 1] * theta * theta if i % 2 == 0
                    else c[2 * i] - c[2 * i + 1] * theta for i in range(n)]

        ours = _run_outcome(lambda: _kernel(model, P, hist, h, nsteps))
        theirs = _run_outcome(lambda: _reference_steps(model, P, hist, 1.0, h, nsteps))
        assert ours == theirs

    @pytest.mark.parametrize("src, hist, t_end, slot, value, message", [
        (FALLING_DELAY_SRC, 0.0, 1.0, 2, -0.050000000000000044,
         "delay out of range: slot 2 evaluated to -0.05, allowed [0, 1]"),
        (TENTATIVE_DELAY_SRC, 0.0, 1.0, 3, -0.0048000000000000265,
         "delay out of range: slot 3 evaluated to -0.0048, allowed [0, 1]"),
        (BLOWUP_SRC, 1.0, 5.0, 2, math.nan,
         "delay out of range: slot 2 evaluated to nan, allowed [0, 1]"),
    ], ids=["stage", "tentative_read", "nan"])
    def test_mid_run_delay_errors(self, src, hist, t_end, slot, value, message):
        # slot, value and message as the list loop gave them, at step k > 0
        model = parse_model(src)
        with pytest.raises(DelayRangeError) as err:
            simulate(model, [], np.array([hist]), t_end=t_end, step=0.1)
        assert err.value.slot == slot and str(err.value) == message
        assert repr(err.value.value) == repr(value)
        reference = _run_outcome(lambda: _reference_steps(
            model, [], lambda th: [hist], 1.0, 0.1, round(t_end / 0.1)))
        assert reference == ("DelayRangeError", message, slot, repr(value))

    @pytest.mark.parametrize("p", [-1e-12, -0.0, 2.0, 2.0 + 1e-12, -2e-12, 2.0 + 2e-12])
    def test_delay_bounds_clamp_as_checked_delay(self, p):
        # the kernel's inline test and clamp against _checked_delay: a run with
        # the delay p equals one with the delay _checked_delay gives for p, or
        # fails with the error _checked_delay raises
        model = parse_model(CONST_DELAY_SRC)
        hist = lambda th: np.array([-1.0 + 0.1 * th])  # noqa: E731
        try:
            clamped = _checked_delay(2, p, 2.0)
        except DelayRangeError as want:
            with pytest.raises(DelayRangeError) as err:
                simulate(model, [p], hist, t_end=3.0, step=0.25)
            assert (err.value.slot, str(err.value)) == (want.slot, str(want))
            assert repr(err.value.value) == repr(want.value)
            return
        fixed = Model("fixed", 1, ("p",), [Num(0.0), Num(clamped)], model.rhs_exprs, tau_max=2.0)
        ours = simulate(model, [p], hist, t_end=3.0, step=0.25)
        theirs = simulate(fixed, [p], hist, t_end=3.0, step=0.25)
        assert ours.y.tobytes() == theirs.y.tobytes() and ours.yp.tobytes() == theirs.yp.tobytes()
        assert np.array_equal(model.frozen_delays([p], [-1.0]), [0.0, clamped])

    def test_one_kernel_call_per_run(self, monkeypatch):
        # the first slope and every stage after it run inside one rk4_steps call
        calls = []

        def counted(name):
            method = getattr(Model, name)
            return lambda *args: calls.append(name) or method(*args)

        for name in ("rk4_steps", "eval_functional", "eval_on_nodes"):
            monkeypatch.setattr(Model, name, counted(name))
        traj = simulate(parse_model(SHORT_DELAY_SRC), [], np.array([1.0]), t_end=1.0, step=0.01)
        assert traj.evals > 4 * 100 + 1
        assert calls == ["rk4_steps"]
