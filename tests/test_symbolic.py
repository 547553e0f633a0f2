"""Exact slot derivatives against sympy, and the Newton Jacobians against central differences."""

import gc

import numpy as np
import pytest

import sddde.model
from sddde import (
    ModelError,
    NumericalError,
    StepSettings,
    continue_branch,
    load_model,
    parse_model,
    symbolic,
)
from sddde.continuation import _branch_system, _hopf_system, start_hopf_curve
from sddde.model import MAX_NESTING, _walk

from conftest import NESTING_LEVELS, model_path, nested_model, sympy_expr

# every FUNCTIONS entry, "/", unary minus and a negative integer power; the delay
# of slot 3 reads slot 2, whose own delay depends on the state
ALL_RULES_SRC = (
    'name="all_rules"\ndim=2\nparameters=["a","b"]\ntau_max=10\n'
    'delays=["0", "1 + a*x1@1^2", "b/(2 + x2@2^2)"]\n'
    'rhs=["sin(a*x1@2) - cos(x2@3)/(2 + x1@1) + exp(-b*x2@1)*log(3 + x1@3^2)",'
    ' "sqrt(4 + x2@2^2)*tan(0.3*x1@1) - atan(x1@3 - b) + a*(1 + x2@1^2)^-2 - -x1@2^3"]\n'
)


@pytest.fixture(scope="module")
def all_rules_model():
    return parse_model(ALL_RULES_SRC)


def exact_slot_derivatives(sp, model, params, x):
    """([A, df/dp], [dA, dtau]) at x in every slot, by sympy (see Model.frozen_derivatives)."""
    n, m = model.n, model.m
    X = [[sp.Symbol(f"x{i}_{j}") for i in range(1, n + 1)] for j in range(1, m + 1)]
    P = [sp.Symbol(f"p{k}") for k in range(model.n_p)]
    f = [sympy_expr(sp, e, P, X) for e in model.rhs_exprs]
    tau = [sympy_expr(sp, e, P, X) for e in model.delay_exprs]
    point = {s: sp.Float(v, 30) for row in X for s, v in zip(row, x)}
    point.update({s: sp.Float(v, 30) for s, v in zip(P, params)})
    Z = [[X[j][k] for j in range(m)] for k in range(n)] + [[p] for p in P]  # x in every slot, p

    def value(e):
        return float(sp.sympify(e).evalf(30, subs=point, chop=True))

    def dz(e, z):
        return sum(sp.diff(e, s) for s in z)

    df = [[[sp.diff(f[r], X[j][i]) for i in range(n)] for r in range(n)] for j in range(m)]
    A = np.array([[[value(d) for d in row] for row in block] for block in df])
    fp = np.array([[value(sp.diff(fr, p)) for p in P] for fr in f]).reshape(n, model.n_p)
    dA = np.array([[[[value(dz(d, z)) for z in Z] for d in row] for row in block] for block in df])
    dtau = np.array([[value(dz(t, z)) for z in Z] for t in tau])
    return (A, fp), (dA, dtau)


def assert_entrywise(got, exact, rel=1e-13):
    """Each entry to rel of itself; entries that cancel to 0 to rel of the largest one."""
    assert got.shape == exact.shape
    floor = np.max(np.abs(exact), initial=0.0)
    assert np.all(np.abs(got - exact) <= rel * np.maximum(np.abs(exact), floor * (exact == 0)))


CASES = {
    "scalar_nested": ([-1.3], [-1.1]),
    "position_control": ([1.0, 4.0, 1.0, 2.0, 1.0], [3.7, 4.3]),
    "all_rules": ([0.7, 0.4], [0.3, -0.5]),
}


class TestExactSlotDerivatives:
    @pytest.mark.parametrize("name", list(CASES))
    def test_every_entry_matches_sympy(self, name, scalar_model, poscontrol_model,
                                       all_rules_model):
        sp = pytest.importorskip("sympy")
        model = {"scalar_nested": scalar_model, "position_control": poscontrol_model,
                 "all_rules": all_rules_model}[name]
        params, x = CASES[name]
        first, second = exact_slot_derivatives(sp, model, params, x)
        got = model.frozen_derivatives(params, x) + model.frozen_derivatives(params, x, order=2)
        for values, exact in zip(got, first + second):
            assert_entrywise(values, exact)

    def test_second_order_is_compiled_on_demand(self):
        model = parse_model(ALL_RULES_SRC)
        assert model._derivs == {}
        model.frozen_derivatives([0.7, 0.4], [0.3, -0.5])
        assert set(model._derivs) == {1}
        model.frozen_derivatives([0.7, 0.4], [0.3, -0.5], order=2)
        assert set(model._derivs) == {1, 2}
        # a branch needs only first order
        model = load_model(model_path("scalar_nested.mdl"))
        continue_branch(model, {"p": -1.5}, "p", (-2.0, -1.0), np.array([-1.5]),
                        step=StepSettings(max_points=2), direction="forward")
        assert set(model._derivs) == {1}

    def test_order_is_checked(self, scalar_model):
        with pytest.raises(ModelError, match="order must be 1 or 2"):
            scalar_model.frozen_derivatives([-1.3], [-1.1], order=3)

    def test_math_errors_are_typed(self):
        model = parse_model('name="r"\ndim=1\nparameters=[]\ndelays=["0"]\nrhs=["1/x1@1"]\n')
        for order in (1, 2):
            with pytest.raises(NumericalError, match="numerical failure"):
                model.frozen_derivatives([], [0.0], order)


def compile_work(monkeypatch, model, order):
    """(derivative rules applied, as (node, var) pairs; CSE node visits) of one compile."""
    rules, visits = [], []
    rule, children = symbolic._Slopes.rule, sddde.model._children

    def counted_rule(self, node, var):
        rules.append((node, var))
        return rule(self, node, var)

    def counted_children(node):
        visits.append(node)
        return children(node)

    with monkeypatch.context() as patch:
        patch.setattr(symbolic._Slopes, "rule", counted_rule)
        patch.setattr(sddde.model, "_children", counted_children)
        try:
            model.frozen_derivatives([0.5] * model.n_p, [0.5] * model.n, order)
        except NumericalError:  # the values, not the compile
            pass
    assert order in model._derivs
    return rules, len(visits)


class TestCompileWork:
    """Machine-independent counts of the work of compiling slot derivatives."""

    @pytest.mark.parametrize("name", ["position_control", "all_rules"])
    def test_no_pair_is_differentiated_twice(self, name, monkeypatch):
        model = (load_model(model_path("position_control.mdl")) if name == "position_control"
                 else parse_model(ALL_RULES_SRC))
        rules, _ = compile_work(monkeypatch, model, 2)
        # compared structurally: equal subexpressions built apart count as one node
        assert rules and len(set(rules)) == len(rules)
        # a node free of the variable is zero without a rule
        assert all(any(sub == var for sub, _ in _walk(node)) for node, var in rules)

    def test_intern_table_lives_for_one_compile(self):
        model = parse_model(ALL_RULES_SRC)
        for order in (1, 2):
            model.frozen_derivatives([0.7, 0.4], [0.3, -0.5], order)
        gc.collect()
        assert not [obj for obj in gc.get_objects() if isinstance(obj, sddde.model._Dag)]

    @pytest.mark.parametrize("construct", ["mul", "sin", "square"])
    def test_work_grows_linearly_with_depth(self, construct, monkeypatch):
        work = {}
        for depth in (MAX_NESTING // 2, MAX_NESTING):
            model = nested_model(NESTING_LEVELS[construct], depth)
            counts = [compile_work(monkeypatch, model, order) for order in (1, 2)]
            work[depth] = (sum(len(rules) for rules, _ in counts), sum(v for _, v in counts))
        (rules, visits), (rules2, visits2) = work[MAX_NESTING // 2], work[MAX_NESTING]
        assert rules2 <= 2.2 * rules and visits2 <= 2.2 * visits


def central_differences(fun, y, h=1e-6):
    cols = []
    for k in range(y.size):
        e = np.zeros_like(y)
        e[k] = h * (1.0 + abs(y[k]))
        cols.append((fun(y + e) - fun(y - e)) / (2 * e[k]))
    return np.column_stack(cols)


def assert_close_to_differences(system, y):
    residual, jacobian = system
    J = jacobian(y)
    error = np.max(np.abs(J - central_differences(residual, y)))
    assert error <= 1e-8 * max(1.0, np.max(np.abs(J)))


class TestNewtonJacobians:
    def test_hopf_system_off_the_curve(self, poscontrol_model, poscontrol_ref, all_rules_model):
        model = poscontrol_model
        y0, c_row = start_hopf_curve(model, poscontrol_ref, ("tau0", "s0"), [4.0, 4.0], np.pi / 6)
        pvec = model.params_from(poscontrol_ref)
        rng = np.random.default_rng(3)
        system = _hopf_system(model, pvec, [0, 1], c_row)
        assert_close_to_differences(system, y0 + 0.05 * rng.standard_normal(y0.size))
        # state-dependent delays reading state-dependent slots, both parameters free
        c_row = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        system = _hopf_system(all_rules_model, np.array([0.7, 0.4]), [1, 0], c_row)
        y = np.array([0.3, -0.5, 0.6, 0.2, -0.1, 0.4, 1.3, 0.4, 0.7])
        assert_close_to_differences(system, y)

    def test_branch_system_off_the_branch(self, poscontrol_model, poscontrol_ref, all_rules_model):
        pvec = poscontrol_model.params_from(poscontrol_ref)
        assert_close_to_differences(_branch_system(poscontrol_model, pvec, 0),
                                    np.array([3.7, 4.3, 1.1]))
        assert_close_to_differences(_branch_system(all_rules_model, np.array([0.7, 0.4]), 1),
                                    np.array([0.3, -0.5, 0.45]))
