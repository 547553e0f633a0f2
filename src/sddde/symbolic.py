"""Exact slot derivatives of a model, every slot at one state x.

_diff differentiates the parser's AST; its results are ASTs again (0 and 1
folded) that compile through model._emit like any other expression, with
subexpressions used more than once bound to locals. The model imports this
module on the first derivative it is asked for.
"""

import functools
import itertools
from collections import Counter

import numpy as np

from .model import Bin, Call, ModelError, Neg, Num, Param, Pow, State, _compile, _emit, _walk

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


def _compile_frozen(blocks):
    """Evaluator (X, P) -> one array per (shape, entry) block; entry(*index) is an element's AST.

    Only the nonzero elements are emitted.
    """
    flat, exprs, ends = [], [], [0]
    for shape, entry in blocks:
        for pos, index in enumerate(itertools.product(*map(range, shape)), start=ends[-1]):
            node = entry(*index)
            if node != _ZERO:
                flat.append(pos)
                exprs.append(node)
        ends.append(ends[-1] + int(np.prod(shape)))
    walked = [sub for e in exprs for sub in _walk(e)]
    body = [f"x{c}_{s} = X[{c - 1}]" for c, s in sorted({(r.comp, r.slot) for r in walked
                                                         if isinstance(r, State)})]
    counts, names = Counter(walked), {}
    for sub in reversed(walked):  # descendants first; a subexpression used twice becomes a local
        if counts[sub] > 1 and isinstance(sub, (Bin, Call, Pow)) and sub not in names:
            body.append(f"t{len(names)} = {_emit(sub, names=names)}")
            names[sub] = f"t{len(names)}"
    fn = _compile("X, P", body + [f"return [{', '.join(_emit(e, names=names) for e in exprs)}]"])
    flat = np.array(flat, dtype=int)

    def evaluate(X, P):
        out = np.zeros(ends[-1])
        out[flat] = fn(X, P)
        return [out[a:b].reshape(shape) for a, b, (shape, _) in zip(ends, ends[1:], blocks)]

    return evaluate


def slot_derivatives(model, order):
    """Evaluator (X, P) of Model.frozen_derivatives of order 1 or 2."""
    n, m, f, nz = model.n, model.m, model.rhs_exprs, model.n + model.n_p
    if order not in (1, 2):
        raise ModelError(f"derivative order must be 1 or 2, got {order!r}")
    if order == 1:
        return _compile_frozen([
            ((m, n, n), lambda j, r, i: _diff(f[r], State(i + 1, j + 1))),
            ((n, model.n_p), lambda r, k: _dz(model, f[r], n + k)),
        ])
    return _compile_frozen([
        ((m, n, n, nz), lambda j, r, i, z: _dz(model, _diff(f[r], State(i + 1, j + 1)), z)),
        ((m, nz), lambda j, z: _dz(model, model.delay_exprs[j], z)),
    ])
