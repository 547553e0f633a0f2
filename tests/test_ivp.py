import hashlib
import math

import numpy as np
import pytest
import scipy.special

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

PI_2 = np.pi / 2

LINEAR_SRC = 'name="lin"\ndim=1\nparameters=[]\ntau_max=2\ndelays=["0","1"]\nrhs=["0 - x1@2"]\n'
SHORT_DELAY_SRC = 'name="sd"\ndim=1\nparameters=[]\ntau_max=1\ndelays=["0","0.005"]\nrhs=["0 - x1@2"]\n'
SWEEP_SRC = 'name="sw"\ndim=1\nparameters=["a"]\ntau_max=1\ndelays=["0","0.05"]\nrhs=["0 - a*x1@2"]\n'
LOG_SRC = 'name="lg"\ndim=1\nparameters=[]\ntau_max=1\ndelays=["0","1"]\nrhs=["log(x1@2)"]\n'
NAN_DELAY_SRC = 'name="nd"\ndim=1\nparameters=["p"]\n{tau_max}delays=["0", "0.5 + 0*x1@1"]\nrhs=["p - x1@2"]\n'

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
