from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("ci")

MODELS = Path(__file__).resolve().parents[1] / "models"


@pytest.fixture(scope="session")
def scalar_model():
    from sddde import load_model

    return load_model(MODELS / "scalar_nested.mdl")


@pytest.fixture(scope="session")
def poscontrol_model():
    from sddde import load_model

    return load_model(MODELS / "position_control.mdl")


@pytest.fixture(scope="session")
def poscontrol_ref():
    """Reference parameter assignment used throughout."""
    return {"tau0": 1.0, "s0": 4.0, "k": 1.0, "c": 2.0, "gamma": 1.0}


@pytest.fixture(autouse=True)
def _quiet_root_warnings():
    import warnings

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="requested .* roots")
        yield


def model_path(name):
    return MODELS / name


def sympy_expr(sp, node, params, slots):
    """A model expression as a sympy expression: params[k] for parameter k and
    slots[j - 1][i - 1] for x<i>@<j>."""
    from sddde.model import Bin, Neg, Num, Param, Pow, State

    def walk(node):
        if isinstance(node, Num):
            return sp.Float(node.value, 30)
        if isinstance(node, Param):
            return params[node.index]
        if isinstance(node, State):
            return slots[node.slot - 1][node.comp - 1]
        if isinstance(node, Neg):
            return -walk(node.arg)
        if isinstance(node, Pow):
            return walk(node.base) ** node.power
        if isinstance(node, Bin):
            left, right = walk(node.left), walk(node.right)
            return {"+": left + right, "-": left - right, "*": left * right,
                    "/": left / right}[node.op]
        return getattr(sp, node.func)(walk(node.arg))

    return walk(node)


@pytest.fixture(scope="session")
def pi_half():
    return float(np.pi / 2)


# one operator level of each construct around an expression {}
NESTING_LEVELS = {
    "mul": "(x1@2*{})", "div": "(x1@2/{})", "div-left": "({}/x1@2)", "add": "(x1@2+{})",
    "sub": "(x1@2-{})", "neg": "-({})", "square": "({})^2", "cube": "({})^3",
    "inverse-square": "({})^-2", "sin": "sin({})", "cos": "cos({})", "exp": "exp({})",
    "log": "log({})", "sqrt": "sqrt({})", "tan": "tan({})", "atan": "atan({})",
    "product": "{} * x1@2", "quotient": "{} / x1@2", "sum": "{} + x1@2",
}


def nested_model(level, depth):
    """A scalar model whose rhs is x1@1 inside depth levels of level, a NESTING_LEVELS value;
    its tree is depth operator levels deep."""
    from sddde import parse_model

    text = "x1@1"
    for _ in range(depth):
        text = level.format(text)
    return parse_model(f'dim=1\nparameters=[]\ndelays=["0", "1"]\nrhs=["{text}"]\n')
