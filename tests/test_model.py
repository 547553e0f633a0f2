import itertools
import math
import operator
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sddde import (
    DelayRangeError,
    ExpPoly,
    ModelError,
    NumericalError,
    combine,
    parse_expr,
    parse_model,
    simulate,
    solve_equilibrium,
    to_text,
)
from sddde.ivp import _hermite, _interpolate
from sddde.model import (FUNCTIONS, MAX_NESTING, Bin, Call, Model, Neg, Num, Param, Pow, State,
                         _children, _compile, _emit, _frozen_source)
from sddde.symbolic import slot_derivative_blocks

from conftest import NESTING_LEVELS, nested_model

PI_2 = math.pi / 2

SCALAR_SRC = """\
name = "scalar_nested"
dim = 1
parameters = ["p"]
tau_max = 10
delays = ["0", "-x1@1"]
rhs = ["p - x1@2"]
"""
NAN_DELAY_SRC = 'name="nd"\ndim=1\nparameters=["p"]\n{tau_max}delays=["0", "0.5 + 0*x1@1"]\nrhs=["p - x1@2"]\n'


class TestParseModel:
    def test_scalar_nested(self):
        m = parse_model(SCALAR_SRC)
        assert (m.n, m.m, m.n_p) == (1, 2, 1)
        assert m.declared_tau_max == 10.0

    @pytest.mark.parametrize("first_use", ["eval_functional", "simulate"])
    def test_load_compiles_three_functions_and_the_kernel_on_first_use(self, monkeypatch,
                                                                      first_use):
        # f, the delays and the complex-node functional at load; the RK4 kernel,
        # the one float evaluator of the functional, once, on its first use
        calls = []
        monkeypatch.setattr("sddde.model._compile",
                            lambda args, body: calls.append(args) or _compile(args, body))
        m = parse_model(SCALAR_SRC)
        assert len(calls) == 3
        uses = {
            "eval_functional": lambda: m.eval_functional([-PI_2], np.array([-PI_2])),
            "simulate": lambda: simulate(m, [-PI_2], np.array([-PI_2]), t_end=0.2, step=0.1),
        }
        uses[first_use]()
        assert len(calls) == 4
        for use in uses.values():
            use()
        assert len(calls) == 4

    def test_position_control(self, poscontrol_model):
        m = poscontrol_model
        assert (m.n, m.m) == (2, 4)
        assert m.param_names == ("tau0", "s0", "k", "c", "gamma")

    def test_unknown_delay_slot(self):
        src = SCALAR_SRC.replace("p - x1@2", "p - x1@5")
        with pytest.raises(ModelError, match="unknown delay slot"):
            parse_model(src)

    def test_forward_delay_reference(self):
        src = SCALAR_SRC.replace('"0", "-x1@1"', '"0", "-x1@2"')
        with pytest.raises(ModelError, match="forward delay reference"):
            parse_model(src)

    def test_first_delay_must_be_zero(self):
        src = SCALAR_SRC.replace('"0", "-x1@1"', '"1", "-x1@1"')
        with pytest.raises(ModelError, match="slot 1 must be the literal 0"):
            parse_model(src)

    def test_unknown_identifier(self):
        src = SCALAR_SRC.replace("p - x1@2", "p - q*x1@2")
        with pytest.raises(ModelError, match="unknown identifier 'q'"):
            parse_model(src)

    def test_dim_mismatch(self):
        src = SCALAR_SRC.replace('rhs = ["p - x1@2"]', 'rhs = ["p - x1@2", "0"]')
        with pytest.raises(ModelError, match="rhs has 2 expressions"):
            parse_model(src)

    def test_syntax_error_carries_location(self):
        with pytest.raises(ModelError, match="line 2"):
            parse_model('dim = 1\nbogus_line\ndelays = ["0"]\nrhs = ["0"]')

    def test_nonzero_exponent_grammar(self):
        m = parse_model(SCALAR_SRC.replace("p - x1@2", "p - x1@2^3"))
        assert m.equilibrium_residual([0.5], [0.5**0.5 * 0.0 + 0.7937005259840998])[
            0
        ] == pytest.approx(0.5 - 0.7937005259840998**3)

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ModelError, match="integer literal"):
            parse_model(SCALAR_SRC.replace("p - x1@2", "p - x1@2^1.5"))


class TestNestingLimit:
    @pytest.mark.parametrize("construct", list(NESTING_LEVELS))
    def test_both_orders_compile_at_the_limit(self, construct):
        model = nested_model(NESTING_LEVELS[construct], MAX_NESTING)
        for order in (1, 2):
            try:
                model.frozen_derivatives([], [0.5], order)
            except NumericalError:  # log(log(0.5)) and the like: the values, not the compile
                pass
        assert set(model._derivs) == {1, 2}

    @pytest.mark.parametrize("construct", list(NESTING_LEVELS))
    def test_one_level_more_is_refused(self, construct):
        with pytest.raises(ModelError, match=rf"^rhs\[1\]: expression nests deeper than "
                                             rf"{MAX_NESTING} levels$"):
            nested_model(NESTING_LEVELS[construct], MAX_NESTING + 1)

    @pytest.mark.parametrize("text", [
        "(" * 300 + "x1@1" + ")" * 300,
        "sin(" * 300 + "x1@1" + ")" * 300,
        " + ".join(["x1@1"] * 3000),
        "(" * (MAX_NESTING + 1) + "x1@1" + ")" * (MAX_NESTING + 1),
    ], ids=["parentheses", "calls", "flat-sum", "redundant-parentheses"])
    def test_deep_text_is_a_model_error(self, text):
        # no RecursionError in the parser and no SyntaxError from the compile
        with pytest.raises(ModelError, match=f"nests deeper than {MAX_NESTING} levels"):
            parse_expr(text, [], 1, 1)


class TestEvalFunctional:
    def test_scalar_equilibrium_residual_zero(self, scalar_model, pi_half):
        val = scalar_model.eval_functional([-pi_half], np.array([-pi_half]))
        assert val[0] == pytest.approx(0.0, abs=1e-15)

    def test_position_control_equilibrium(self, poscontrol_model, poscontrol_ref):
        params = poscontrol_model.params_from(poscontrol_ref)
        s0 = poscontrol_ref["s0"]
        u = np.array([poscontrol_ref["c"] * s0 / 2, s0])
        val = poscontrol_model.eval_functional(params, u)
        assert np.max(np.abs(val)) == pytest.approx(0.0, abs=1e-14)

    def test_agrees_with_handrolled_evaluator(self, scalar_model, pi_half):
        # independent evaluation of F(u) = p - u(u(0)) on the same history
        p = -pi_half
        eps = 0.1
        cos_hist = ExpPoly.constant([p]) + ExpPoly.exponential([eps / 2], 1j) + ExpPoly.exponential(
            [eps / 2], -1j
        )

        def by_hand(u):
            u1 = u(0.0)[0]
            return p - u(u1)[0]

        ours = scalar_model.eval_functional([p], cos_hist)[0]
        theirs = by_hand(cos_hist.eval_real)
        assert ours == pytest.approx(theirs, abs=1e-14)

    def test_matches_equilibrium_residual_exactly(self, poscontrol_model, poscontrol_ref):
        params = poscontrol_model.params_from(poscontrol_ref)
        x = np.array([3.7, 4.2])
        a = poscontrol_model.eval_functional(params, x)
        b = poscontrol_model.equilibrium_residual(params, x)
        assert np.array_equal(a, b)

    @given(
        x1=st.floats(-2.0, 10.0, allow_nan=False),
        x2=st.floats(0.1, 8.0, allow_nan=False),
    )
    @settings(max_examples=40)
    def test_constant_history_equals_residual_property(
        self, poscontrol_model, poscontrol_ref, x1, x2
    ):
        params = poscontrol_model.params_from(poscontrol_ref)
        x = np.array([x1, x2])
        a = poscontrol_model.eval_functional(params, x)
        b = poscontrol_model.equilibrium_residual(params, x)
        assert np.array_equal(a, b)

    def test_delay_out_of_range(self, scalar_model):
        # x > 0 makes the nested delay negative
        with pytest.raises(DelayRangeError) as err:
            scalar_model.eval_functional([1.0], np.array([1.0]))
        assert err.value.slot == 2
        assert err.value.value == pytest.approx(-1.0)

    def test_math_errors_are_typed(self):
        log_model = parse_model(
            'name="logm"\ndim=1\nparameters=[]\ntau_max=1\ndelays=["0"]\nrhs=["log(x1@1)"]\n'
        )
        with pytest.raises(NumericalError, match="^numerical failure: math domain error$"):
            solve_equilibrium(log_model, [], np.array([-1.0]))
        sqrt_delay = parse_model(
            'name="sq"\ndim=1\nparameters=[]\ntau_max=2\n'
            'delays=["0", "sqrt(x1@1)"]\nrhs=["0 - x1@2"]\n'
        )
        with pytest.raises(NumericalError, match="^numerical failure: math domain error$"):
            sqrt_delay.eval_functional([], np.array([-1.0]))
        overflow = parse_model(
            'name="ov"\ndim=1\nparameters=[]\ntau_max=1\ndelays=["0"]\nrhs=["exp(x1@1)"]\n'
        )
        with pytest.raises(NumericalError, match="^numerical failure: math range error$"):
            overflow.equilibrium_residual([], [1e3])
        zero_div = "^numerical failure: float division by zero$"
        inverse = parse_model(
            'name="inv"\ndim=1\nparameters=[]\ntau_max=1\ndelays=["0"]\nrhs=["1/x1@1"]\n'
        )
        with pytest.raises(NumericalError, match=zero_div):
            inverse.eval_rhs(np.zeros((1, 1)), np.zeros(0))
        with pytest.raises(NumericalError, match=zero_div):
            inverse.eval_functional([], np.array([0.0]))
        with pytest.raises(NumericalError, match=zero_div):
            inverse.equilibrium_residual([], np.array([0.0]))
        inverse_delay = parse_model(
            'name="invd"\ndim=1\nparameters=[]\ntau_max=1\n'
            'delays=["0", "1/x1@1"]\nrhs=["0 - x1@2"]\n'
        )
        with pytest.raises(NumericalError, match=zero_div):
            inverse_delay.eval_functional([], np.array([0.0]))

    def test_history_of_wrong_length_is_a_model_error(self, poscontrol_model, poscontrol_ref):
        params = poscontrol_model.params_from(poscontrol_ref)
        short = lambda theta: np.array([4.0])  # noqa: E731
        long = lambda theta: np.array([4.0, 4.0, 4.0])  # noqa: E731
        late = lambda theta: np.array([4.0, 4.0] if theta == 0.0 else [4.0])  # noqa: E731
        for hist, got in ((short, 1), (long, 3), (late, 1)):
            message = rf"^history value has shape \({got},\), expected \(2,\)$"
            with pytest.raises(ModelError, match=message):
                poscontrol_model.eval_functional(params, hist)
            with pytest.raises(ModelError, match=message):
                simulate(poscontrol_model, params, hist, t_end=1.0, step=0.5)


class TestLengthChecks:
    def test_wrong_lengths_are_model_errors(self, poscontrol_model, poscontrol_ref):
        model = poscontrol_model
        params = model.params_from(poscontrol_ref)
        x = np.array([4.0, 4.0])
        slots = np.full((2, 4), 4.0)
        short_state = r"^state vector has shape \(1,\), expected \(2,\)$"
        short_params = r"^parameter vector has shape \(2,\), expected \(5,\)$"
        cases = [
            (lambda: model.equilibrium_residual(params, [4.0]), short_state),
            (lambda: model.equilibrium_residual([1.0, 4.0], x), short_params),
            (lambda: solve_equilibrium(model, params, np.array([4.0])), short_state),
            (lambda: model.frozen_delays(params, [4.0, 4.0, 4.0]),
             r"^state vector has shape \(3,\), expected \(2,\)$"),
            (lambda: model.frozen_delays([1.0, 4.0], x), short_params),
            (lambda: model.eval_rhs(slots[:, :3], params),
             r"^slot matrix has shape \(2, 3\), expected \(2, 4\)$"),
            (lambda: model.eval_rhs(slots, [1.0, 4.0]), short_params),
            (lambda: model.eval_functional([1.0, 4.0], x), short_params),
            (lambda: model.eval_on_nodes(params, [4.0], ExpPoly.constant([1.0, 0.0]),
                                         [0.1], 10.0), short_state),
            (lambda: model.eval_on_nodes([1.0, 4.0], x, ExpPoly.constant([1.0, 0.0]),
                                         [0.1], 10.0), short_params),
        ]
        for call, message in cases:
            with pytest.raises(ModelError, match=message):
                call()


class TestEvalOnNodes:
    def test_real_nodes_match_the_float_functional(self, poscontrol_model, poscontrol_ref):
        model = poscontrol_model
        params = model.params_from(poscontrol_ref)
        x = np.array([4.0, 4.0])
        v = combine(
            1.0,
            ExpPoly.exponential([0.6, -0.3 + 0.4j], 0.2 + 0.8j).real_part(),
            0.5,
            ExpPoly.constant([0.2, -0.1]),
        )
        deltas = np.array([-0.3, 0.0, 0.1, 0.25])
        got = model.eval_on_nodes(params, x, v, deltas, 10.0)
        for k, d in enumerate(deltas):
            want = model.eval_functional(params, lambda t: x + d * v.eval_real(t), tau_max=10.0)
            assert np.max(np.abs(got[:, k] - want)) <= 1e-14
            assert np.all(got[:, k].imag == 0.0)

    def test_complex_delays_are_checked_on_their_real_part(self, scalar_model):
        # tau = -x1@1 = pi/2 - delta at x* = -pi/2
        v = ExpPoly.constant([1.0])
        inside = scalar_model.eval_on_nodes([-PI_2], [-PI_2], v, [1j, -1j, 1.0], 10.0)
        assert inside.shape == (1, 3)
        with pytest.raises(DelayRangeError) as err:
            scalar_model.eval_on_nodes([-PI_2], [-PI_2], v, [1j, 2.0], 10.0)
        assert err.value.value == pytest.approx(PI_2 - 2.0)

    def test_math_failures_are_typed(self):
        inverse = parse_model(
            'name="inv"\ndim=1\nparameters=[]\ntau_max=1\ndelays=["0"]\nrhs=["1/x1@1"]\n'
        )
        v = ExpPoly.constant([1.0])
        with pytest.raises(NumericalError, match="^numerical failure: divide by zero"):
            inverse.eval_on_nodes([], [0.0], v, [1.0, 0.0], 1.0)
        overflow = parse_model(
            'name="ov"\ndim=1\nparameters=[]\ntau_max=1\ndelays=["0"]\nrhs=["exp(x1@1)"]\n'
        )
        with pytest.raises(NumericalError, match="^numerical failure: overflow"):
            overflow.eval_on_nodes([], [1e3], v, [0.5j], 1.0)
        # underflow is no error
        assert overflow.eval_on_nodes([], [-1e3], v, [0.5j], 1.0)[0, 0] == 0.0


# 1/x1@1 in f and 0/x1@1 in the delay both divide by zero at x = 0
ZERO_DIVISOR_SRC = (
    'name="zd"\ndim=1\nparameters=[]\ntau_max=2\n'
    'delays=["0", "1 + 0/x1@1"]\nrhs=["1/x1@1 - x1@2"]\n'
)


@pytest.mark.parametrize("call, cause", [
    (lambda m: m.eval_rhs(np.zeros((1, 2)), []), ZeroDivisionError),
    (lambda m: m.eval_functional([], np.array([0.0])), ZeroDivisionError),
    (lambda m: m.eval_on_nodes([], [0.0], ExpPoly.constant([1.0]), [0.5, 0.0], 2.0),
     FloatingPointError),
    (lambda m: m.frozen_derivatives([], [0.0], order=1), ZeroDivisionError),
    (lambda m: m.frozen_derivatives([], [0.0], order=2), ZeroDivisionError),
    (lambda m: m.frozen_delays([], [0.0]), ZeroDivisionError),
    (lambda m: simulate(m, [], np.array([0.0]), t_end=0.1, step=0.1), ZeroDivisionError),
], ids=["eval_rhs", "eval_functional", "eval_on_nodes", "frozen_derivatives_1",
        "frozen_derivatives_2", "frozen_delays", "simulate"])
def test_numerical_error_keeps_the_math_error_as_cause(call, cause):
    with pytest.raises(NumericalError) as err:
        call(parse_model(ZERO_DIVISOR_SRC))
    assert type(err.value.__cause__) is cause
    assert str(err.value) == f"numerical failure: {err.value.__cause__}"


class TestEquilibriumHelpers:
    def test_scalar_frozen_delays(self, scalar_model, pi_half):
        res = scalar_model.equilibrium_residual([-pi_half], [-pi_half])
        assert res[0] == pytest.approx(0.0, abs=1e-15)
        taus = scalar_model.frozen_delays([-pi_half], [-pi_half])
        assert taus == pytest.approx([0.0, pi_half])

    def test_position_control_frozen_delays(self, poscontrol_model, poscontrol_ref):
        params = poscontrol_model.params_from(poscontrol_ref)
        taus = poscontrol_model.frozen_delays(params, [4.0, 4.0])
        assert taus == pytest.approx([0.0, 1.0, 4.0, 5.0])

    def test_nonequilibrium_residual_nonzero(self, scalar_model):
        assert abs(scalar_model.equilibrium_residual([-2.0], [-1.0])[0]) > 0.1

    def test_tau_max_auto_margin(self, pi_half):
        src = SCALAR_SRC.replace("tau_max = 10\n", "")
        m = parse_model(src)
        assert m.declared_tau_max is None
        assert m.resolve_tau_max([-pi_half], [-pi_half]) == pytest.approx(1.25 * pi_half)

    @pytest.mark.parametrize("tau_max", ["", "tau_max=2\n"], ids=["auto", "declared"])
    def test_nan_frozen_delay_is_out_of_range(self, tau_max):
        # 0 * inf makes the frozen delay NaN, which is in no range
        m = parse_model(NAN_DELAY_SRC.format(tau_max=tau_max))
        with pytest.raises(DelayRangeError) as err:
            m.frozen_delays([1.0], np.array([math.inf]))
        assert err.value.slot == 2 and math.isnan(err.value.value)

    def test_residual_never_evaluates_a_delay(self):
        # the delay log(x1@1) fails at x = -1, where f = p - x1@2 is fine
        m = parse_model('name="ld"\ndim=1\nparameters=["p"]\ntau_max=2\n'
                        'delays=["0", "log(x1@1)"]\nrhs=["p - x1@2"]\n')
        assert m.equilibrium_residual([0.5], [-1.0]).tolist() == [1.5]
        with pytest.raises(NumericalError, match="^numerical failure: math domain error$"):
            m.frozen_delays([0.5], [-1.0])

    def test_params_from_validation(self, poscontrol_model):
        with pytest.raises(ModelError, match="not assigned"):
            poscontrol_model.params_from({"tau0": 1.0})
        with pytest.raises(ModelError, match="unknown parameter"):
            poscontrol_model.params_from(
                {"tau0": 1, "s0": 4, "k": 1, "c": 2, "gamma": 1, "zz": 3}
            )


# --- expression round trip -------------------------------------------------

_PARAMS = ("p", "beta")


def leaf_st():
    return st.one_of(
        st.floats(0.0, 1e4, allow_nan=False).map(Num),
        st.sampled_from([Param("p", 0), Param("beta", 1)]),
        st.builds(State, st.integers(1, 2), st.integers(1, 2)),
    )


def expr_st():
    return st.recursive(
        leaf_st(),
        lambda inner: st.one_of(
            st.builds(Bin, st.sampled_from("+-*/"), inner, inner),
            st.builds(Neg, inner),
            st.builds(Pow, inner, st.integers(-3, 3)),
            st.builds(Call, st.sampled_from(("sin", "cos", "exp", "atan")), inner),
        ),
        max_leaves=12,
    )


class TestRoundTrip:
    @given(tree=expr_st())
    @settings(max_examples=150)
    def test_parse_of_rendered_tree_is_identical(self, tree):
        text = to_text(tree)
        again = parse_expr(text, _PARAMS, 2, 2)
        assert again == tree

    def test_bundled_model_expressions_round_trip(self, scalar_model, poscontrol_model):
        for m in (scalar_model, poscontrol_model):
            for expr in m.delay_exprs + m.rhs_exprs:
                assert parse_expr(to_text(expr), m.param_names, m.n, m.m) == expr

    def test_rename_invariance(self):
        a = parse_expr("p*x1@2 + sin(beta)", ("p", "beta"), 2, 2)
        b = parse_expr("alpha*x1@2 + sin(omega)", ("alpha", "omega"), 2, 2)
        delays = [Num(0.0), Num(1.0)]
        X = [[0.3, -0.8], [1.1, 0.25]]
        P = [1.7, -0.4]
        ma = Model("a", 2, ("p", "beta"), delays, [a, a])
        mb = Model("b", 2, ("alpha", "omega"), delays, [b, b])
        assert np.array_equal(ma.eval_rhs(X, P), mb.eval_rhs(X, P))


# --- compiled functional against a tree-walking interpreter ------------------

_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _interpret(node, P, X):
    """One expression on Python floats with math; X maps (comp, slot) to a value."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Param):
        return P[node.index]
    if isinstance(node, State):
        return X[node.comp, node.slot]
    if isinstance(node, Neg):
        return -_interpret(node.arg, P, X)
    if isinstance(node, Pow):
        return _interpret(node.base, P, X) ** node.power
    if isinstance(node, Bin):
        return _BINOPS[node.op](_interpret(node.left, P, X), _interpret(node.right, P, X))
    return getattr(math, node.func)(_interpret(node.arg, P, X))


def _interpret_functional(model, P, u):
    X = {}
    for j, delay in enumerate(model.delay_exprs, start=1):
        theta = 0.0 if j == 1 else -_interpret(delay, P, X)
        for i, value in enumerate(u(theta), start=1):
            X[i, j] = value
    return [_interpret(e, P, X) for e in model.rhs_exprs]


def _dense_history(hist, x0, t, h, k, y, yp, used):
    """u_t(theta) of the IVP's dense state, read through ivp._interpolate and _hermite.

    Nodes y[i], slopes yp[i] sit at times i*h, completed for i <= k, and
    y[k + 1] is the tentative node; reading it appends to used.
    """
    def u(theta):
        if theta == 0.0:
            return x0
        time = t + theta
        if time <= 0.0:
            return hist(time)
        if int(time / h) < k:
            return _interpolate(y, yp, h, time)
        used.append(True)
        return _hermite(y[k], yp[k], y[k + 1], yp[k + 1], min((time - k * h) / h, 1.0), h)

    return u


def _outcome(evaluate, raw=False):
    """Result bytes, or (error type, message); raw math errors read as the model's."""
    try:
        return np.array(evaluate(), dtype=float).tobytes()
    except (ValueError, ZeroDivisionError, OverflowError) as err:
        if not raw:
            raise
        return "NumericalError", f"numerical failure: {err}"
    except NumericalError as err:
        return "NumericalError", str(err)


def tree_st(slots, comps=2):
    """Expressions over parameters p, beta and x1..x<comps> at slots 1..slots."""
    leaves = st.one_of(
        st.floats(0.0, 10.0, allow_nan=False).map(Num),
        st.sampled_from([Param("p", 0), Param("beta", 1)]),
        st.builds(State, st.integers(1, comps), st.integers(1, slots)),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.builds(Bin, st.sampled_from("+-*/"), inner, inner),
            st.builds(Neg, inner),
            st.builds(Pow, inner, st.integers(-3, 3)),
            st.builds(Call, st.sampled_from(FUNCTIONS), inner),
        ),
        max_leaves=8,
    )


def _in_unit_range(tree):
    """A delay 0.5 + atan(tree)/3.2, inside [0, 1] (or NaN) whatever tree gives."""
    return Bin("+", Num(0.5), Bin("/", Call("atan", tree), Num(3.2)))


class TestCompiledFunctional:
    @given(
        d2=tree_st(1),
        d3=tree_st(2),
        r1=tree_st(3),
        r2=tree_st(3),
        P=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
        c=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    )
    @settings(max_examples=300)
    def test_matches_tree_walking_interpreter(self, d2, d3, r1, r2, P, c):
        delays = [Num(0.0), _in_unit_range(d2), _in_unit_range(d3)]
        model = Model("oracle", 2, ("p", "beta"), delays, [r1, r2], tau_max=1.0)

        def hist(theta):
            return [c[0] + c[1] * theta * theta, c[2] - c[3] * theta]

        ours = _outcome(lambda: model.eval_functional(P, hist))
        x0 = hist(0.0)
        u = _dense_history(hist, x0, 0.0, 1.0, 0, [], [], [])  # as eval_functional reads
        theirs = _outcome(lambda: _interpret_functional(model, P, u), raw=True)
        assert ours == theirs
        frozen = {(i, j): x0[i - 1] for i in (1, 2) for j in (1, 2, 3)}
        ours = _outcome(lambda: model.equilibrium_residual(P, x0))
        theirs = _outcome(lambda: [_interpret(e, P, frozen) for e in (r1, r2)], raw=True)
        assert ours == theirs


def _quadratic_cse(exprs):
    """Body lines of the evaluator of exprs by the pass _frozen_source replaced: occurrences
    counted by structural equality over a pre-order walk of every element, and a local for
    each node counted twice, bound at its first encounter in the reversed walk."""
    def walk(node):
        yield node
        for child in _children(node):
            yield from walk(child)

    def emit(node):
        if node in names:
            return names[node]
        if isinstance(node, Neg):
            return f"(-{emit(node.arg)})"
        if isinstance(node, Pow):
            return f"({emit(node.base)})**({node.power})"
        if isinstance(node, Bin):
            return f"({emit(node.left)} {node.op} {emit(node.right)})"
        if isinstance(node, Call):
            return f"math.{node.func}({emit(node.arg)})"
        return _emit(node)

    walked = [sub for e in exprs for sub in walk(e)]
    body = [f"x{c}_{s} = X[{c - 1}][{s - 1}]"
            for c, s in sorted({(r.comp, r.slot) for r in walked if isinstance(r, State)})]
    counts, names = Counter(walked), {}
    for sub in reversed(walked):
        if counts[sub] > 1 and isinstance(sub, (Bin, Call, Pow)) and sub not in names:
            body.append(f"t{len(names)} = {emit(sub)}")
            names[sub] = f"t{len(names)}"
    values = ", ".join("0.0" if e == Num(0.0) else emit(e) for e in exprs)
    return body + [f"return [{values}]"]


def _frozen_bodies(model, order):
    """(body lines _frozen_source generates, _quadratic_cse's) for one derivative order."""
    blocks, dag = slot_derivative_blocks(model, order)
    exprs = [entry(*index) for shape, entry in blocks
             for index in itertools.product(*map(range, shape))]
    body, _ = _frozen_source([((len(exprs),), exprs.__getitem__)], dag)
    return body, _quadratic_cse(exprs)


class TestFrozenSource:
    """The linear pass of _frozen_source emits the source of the quadratic one it replaced."""

    def test_bundled_models(self, scalar_model, poscontrol_model):
        for model in (scalar_model, poscontrol_model):
            for order in (1, 2):
                ours, reference = _frozen_bodies(model, order)
                assert ours == reference

    @given(d2=tree_st(1), d3=tree_st(2), r1=tree_st(3), r2=tree_st(3))
    @settings(max_examples=100)
    def test_random_models(self, d2, d3, r1, r2):
        delays = [Num(0.0), _in_unit_range(d2), _in_unit_range(d3)]
        model = Model("oracle", 2, ("p", "beta"), delays, [r1, r2], tau_max=1.0)
        for order in (1, 2):
            ours, reference = _frozen_bodies(model, order)
            assert ours == reference
