"""Exact slot derivatives of a model, every slot at one state x, as ASTs.

_Slopes differentiates the parser's AST; its results are ASTs again (0 and 1
folded), which the model compiles like any other expression. Every node it
reads or builds lives in the compile's intern table (model._Dag), so equal
subexpressions are one object. Each (node, variable) derivative is taken
once, a node whose free variables lack the variable is zero at once, and
order 2 reuses the first derivatives: the work of a compile is linear in
the number of distinct nodes of the derivatives, however deep the model's
expressions nest. The table and the memo live for one compile only. The
model imports this module on the first derivative it is asked for.
"""

import functools

from .model import Bin, Call, ModelError, Neg, Num, Param, Pow, State, _children, _Dag

_CHAIN = {  # d func(a) / da as an AST in a, built by mk(cls, *fields)
    "sin": lambda mk, a: mk(Call, "cos", a),
    "cos": lambda mk, a: mk(Neg, mk(Call, "sin", a)),
    "exp": lambda mk, a: mk(Call, "exp", a),
    "log": lambda mk, a: mk(Bin, "/", mk(Num, 1.0), a),
    "sqrt": lambda mk, a: mk(Bin, "/", mk(Num, 0.5), mk(Call, "sqrt", a)),
    "tan": lambda mk, a: mk(Bin, "+", mk(Num, 1.0), mk(Pow, mk(Call, "tan", a), 2)),
    "atan": lambda mk, a: mk(Bin, "/", mk(Num, 1.0), mk(Bin, "+", mk(Num, 1.0), mk(Pow, a, 2))),
}


class _Slopes:
    """d node / d var over one intern table, for var a table State or Param node."""

    def __init__(self, dag):
        self.mk = dag.make
        self.zero, self.one = self.mk(Num, 0.0), self.mk(Num, 1.0)
        self._free = {}  # id(node) -> ids of the State and Param leaves below it
        self._memo = {}  # (id(node), id(var)) -> d node / d var

    def free(self, node):
        got = self._free.get(id(node))
        if got is None:
            if isinstance(node, (Param, State)):
                got = frozenset((id(node),))
            else:
                got = frozenset().union(*map(self.free, _children(node)))
            self._free[id(node)] = got
        return got

    def diff(self, node, var):
        if id(var) not in self.free(node):
            return self.zero
        key = (id(node), id(var))
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self.rule(node, var)
        return got

    def sum(self, a, b):
        return b if a is self.zero else a if b is self.zero else self.mk(Bin, "+", a, b)

    def prod(self, a, b):
        if a is self.zero or b is self.zero:
            return self.zero
        return b if a is self.one else a if b is self.one else self.mk(Bin, "*", a, b)

    def neg(self, a):
        if isinstance(a, Num):
            return self.mk(Num, -a.value)
        return a.arg if isinstance(a, Neg) else self.mk(Neg, a)

    def rule(self, node, var):
        """The derivative rule of node's type, applied once per (node, var) by diff."""
        mk, diff = self.mk, self.diff
        if isinstance(node, (Num, Param, State)):
            return self.one if node is var else self.zero
        if isinstance(node, Neg):
            return self.neg(diff(node.arg, var))
        if isinstance(node, Pow):
            k = node.power
            inner = self.one if k == 1 else node.base if k == 2 else mk(Pow, node.base, k - 1)
            return self.prod(self.prod(mk(Num, float(k)), inner), diff(node.base, var))
        if isinstance(node, Call):
            return self.prod(_CHAIN[node.func](mk, node.arg), diff(node.arg, var))
        if isinstance(node, Bin):
            da, db = diff(node.left, var), diff(node.right, var)
            if node.op in "+-":
                return self.sum(da, db if node.op == "+" else self.neg(db))
            if node.op == "*":
                return self.sum(self.prod(da, node.right), self.prod(node.left, db))
            top = self.sum(da, self.neg(self.prod(node, db)))  # d(a/b) = (da - (a/b) db) / b
            return self.zero if top is self.zero else mk(Bin, "/", top, node.right)
        raise ModelError(f"cannot differentiate node {node!r}")


def slot_derivative_blocks(model, order):
    """(blocks, dag): the (shape, entry) blocks of frozen_derivatives of order 1 or 2, and the
    new intern table dag their entries build ASTs in; entry(*index) is an element's AST."""
    n, m, nz = model.n, model.m, model.n + model.n_p
    if order not in (1, 2):
        raise ModelError(f"derivative order must be 1 or 2, got {order!r}")
    dag = _Dag()
    slopes = _Slopes(dag)
    f = [dag.intern(e) for e in model.rhs_exprs]
    # the variables that move along z = (x_1..x_n, p_1..p_np): x_i in every slot at once
    along = ([[dag.make(State, i + 1, l + 1) for l in range(m)] for i in range(n)]
             + [[dag.make(Param, name, k)] for k, name in enumerate(model.param_names)])

    def dz(node, z):  # d node / dz, 0-based z
        return functools.reduce(slopes.sum, (slopes.diff(node, var) for var in along[z]))

    def df(j, r, i):
        return slopes.diff(f[r], along[i][j])

    if order == 1:
        return [((m, n, n), df), ((n, model.n_p), lambda r, k: dz(f[r], n + k))], dag
    tau = [dag.intern(e) for e in model.delay_exprs]
    return [
        ((m, n, n, nz), lambda j, r, i, z: dz(df(j, r, i), z)),
        ((m, nz), lambda j, z: dz(tau[j], z)),
    ], dag
