"""Exact slot derivatives of a model, every slot at one state x, as ASTs.

_diff differentiates the parser's AST; its results are ASTs again (0 and 1
folded), which the model compiles like any other expression. The model
imports this module on the first derivative it is asked for.
"""

import functools

from .model import Bin, Call, ModelError, Neg, Num, Param, Pow, State

_ZERO, _ONE = Num(0.0), Num(1.0)


def _sum(a, b):
    return b if a == _ZERO else a if b == _ZERO else Bin("+", a, b)


def _prod(a, b):
    if _ZERO in (a, b):
        return _ZERO
    return b if a == _ONE else a if b == _ONE else Bin("*", a, b)


def _neg(a):
    return Num(-a.value) if isinstance(a, Num) else a.arg if isinstance(a, Neg) else Neg(a)


_CHAIN = {  # d func(a) / da as an AST in a
    "sin": lambda a: Call("cos", a),
    "cos": lambda a: Neg(Call("sin", a)),
    "exp": lambda a: Call("exp", a),
    "log": lambda a: Bin("/", _ONE, a),
    "sqrt": lambda a: Bin("/", Num(0.5), Call("sqrt", a)),
    "tan": lambda a: Bin("+", _ONE, Pow(Call("tan", a), 2)),
    "atan": lambda a: Bin("/", _ONE, Bin("+", _ONE, Pow(a, 2))),
}


def _diff(node, var):
    """d node / d var as an AST, for var a State or Param node."""
    if isinstance(node, (Num, Param, State)):
        return _ONE if node == var else _ZERO
    if isinstance(node, Neg):
        return _neg(_diff(node.arg, var))
    if isinstance(node, Pow):
        k = node.power
        inner = _ONE if k == 1 else node.base if k == 2 else Pow(node.base, k - 1)
        return _prod(_prod(Num(float(k)), inner), _diff(node.base, var))
    if isinstance(node, Call):
        return _prod(_CHAIN[node.func](node.arg), _diff(node.arg, var))
    if isinstance(node, Bin):
        da, db = _diff(node.left, var), _diff(node.right, var)
        if node.op in "+-":
            return _sum(da, db if node.op == "+" else _neg(db))
        if node.op == "*":
            return _sum(_prod(da, node.right), _prod(node.left, db))
        top = _sum(da, _neg(_prod(node, db)))  # d(a/b) = (da - (a/b) db) / b
        return _ZERO if top == _ZERO else Bin("/", top, node.right)
    raise ModelError(f"cannot differentiate node {node!r}")


def _dz(model, node, z):
    """d node / dz along z = (x_1..x_n, p_1..p_np), 0-based; x moves in every slot at once."""
    if z >= model.n:
        return _diff(node, Param(model.param_names[z - model.n], z - model.n))
    return functools.reduce(_sum, (_diff(node, State(z + 1, l)) for l in range(1, model.m + 1)))


def slot_derivative_blocks(model, order):
    """(shape, entry) blocks of frozen_derivatives of order 1 or 2; entry(*index) is an AST."""
    n, m, f, nz = model.n, model.m, model.rhs_exprs, model.n + model.n_p
    if order not in (1, 2):
        raise ModelError(f"derivative order must be 1 or 2, got {order!r}")
    if order == 1:
        return [
            ((m, n, n), lambda j, r, i: _diff(f[r], State(i + 1, j + 1))),
            ((n, model.n_p), lambda r, k: _dz(model, f[r], n + k)),
        ]
    return [
        ((m, n, n, nz), lambda j, r, i, z: _dz(model, _diff(f[r], State(i + 1, j + 1)), z)),
        ((m, nz), lambda j, z: _dz(model, model.delay_exprs[j], z)),
    ]
