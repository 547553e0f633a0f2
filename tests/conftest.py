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
