"""Model definition: parsing and evaluation of sd-DDE systems.

A model is ``n`` coupled equations with ``m`` delay slots. Slot 1 always
carries delay 0; the delay of slot j may depend on parameters and on state
values at slots k < j only, so delays evaluate left to right. Right-hand
sides and delays are arithmetic expressions over parameters and state
references ``x<i>@<j>`` (component i at slot j, both 1-based).

Model file format (UTF-8, line oriented, ``key = value``)::

    name = "scalar_nested"
    dim = 1
    parameters = ["p"]
    tau_max = 10            # optional
    delays = ["0", "-x1@1"]
    rhs = ["p - x1@2"]
"""

import ast
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DelayRangeError, ModelError, NumericalError
from .histfun import TermStack

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tan", "atan")

_TAU_MAX_MARGIN = 1.25  # auto tau_max = margin * max frozen delay
# Deepest expression tree, in operator levels, and deepest parenthesis or call
# nesting an expression may have. Orders 1 and 2 of every operator and
# function chained this deep compile; a division chain nested a few levels
# deeper makes its second derivatives nest beyond Python's 200 parentheses.
MAX_NESTING = 32
# fixed-point sweeps over the tentative node of one IVP step: at most this
# many, until no value of the node and its slope moves by more than the tol
_SWEEP_LIMIT = 5
_SWEEP_TOL = 1e-12


# ---------------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Param:
    name: str
    index: int


@dataclass(frozen=True)
class State:
    comp: int  # 1-based component
    slot: int  # 1-based delay slot


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Pow:
    base: object
    power: int


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


_CHILD_FIELDS = {Num: (), Param: (), State: (), Neg: ("arg",), Pow: ("base",),
                 Bin: ("left", "right"), Call: ("arg",)}


def _children(node):
    """The AST nodes among node's fields, in field order."""
    return [getattr(node, field) for field in _CHILD_FIELDS[type(node)]]


class _Dag:
    """Hash-consed ASTs: one node per distinct (type, fields), children keyed
    by identity (Filliatre & Conchon, ML Workshop 2006).

    Equal subexpressions of the table are one object, so they hash and
    compare in O(1) by id. A Num is keyed by its value, so 0.0 and -0.0 are
    one node, as they are equal ASTs; the parser builds no -0.0. A table
    lives for one compile only; its nodes stay alive with it, which keeps
    their ids unique.
    """

    def __init__(self):
        self._nodes = {}  # (type, fields with each child as its id) -> node
        self._interned = {}  # id of a table node, or of a node given to intern -> table node
        self._given = []  # the nodes given to intern, kept alive so that their ids stay theirs

    def make(self, cls, *fields):
        """The table's cls(*fields); the children among fields must be table nodes."""
        key = (cls, *[id(f) if type(f) in _CHILD_FIELDS else f for f in fields])
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = cls(*fields)
            self._interned[id(node)] = node
        return node

    def intern(self, node):
        """The table node equal to node, an AST built anywhere; each object is visited once."""
        got = self._interned.get(id(node))
        if got is None:
            fields = [getattr(node, name) for name in node.__dataclass_fields__]
            got = self.make(type(node), *(
                self.intern(f) if type(f) in _CHILD_FIELDS else f for f in fields))
            self._interned[id(node)] = got
            self._given.append(node)
        return got


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()@]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ModelError(f"unexpected character {text[pos:].strip()[0]!r}", col=pos + 1)
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind) + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


_STATE_IDENT_RE = re.compile(r"^x(\d+)$")
_INT_RE = re.compile(r"^\d+$")


class _Parser:
    """Recursive descent over the published grammar."""

    def __init__(self, text, param_index):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.param_index = param_index
        self.level = 0  # open parentheses and calls

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, col = self.next()
        if kind != "op" or val != op:
            raise ModelError(f"expected {op!r}, found {val or 'end of input'!r}", col=col)

    def parse(self):
        node = self.expr()
        kind, val, col = self.peek()
        if kind != "end":
            raise ModelError(f"unexpected trailing input {val!r}", col=col)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = Bin(val, node, self.factor())
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val == "-":
            self.next()
            negate = True
        node = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            node = Pow(node, self.integer())
        if negate:
            node = Neg(node)
        return node

    def integer(self):
        sign = 1
        kind, val, col = self.next()
        if kind == "op" and val == "-":
            sign = -1
            kind, val, col = self.next()
        if kind != "num" or not _INT_RE.match(val):
            raise ModelError(f"exponent must be an integer literal, found {val!r}", col=col)
        return sign * int(val)

    def nested(self, col):
        """expr() inside one more parenthesis or call, refused beyond MAX_NESTING."""
        if self.level == MAX_NESTING:
            raise ModelError(f"expression nests deeper than {MAX_NESTING} levels", col=col)
        self.level += 1
        node = self.expr()
        self.level -= 1
        return node

    def base(self):
        kind, val, col = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "op" and val == "(":
            node = self.nested(col)
            self.expect_op(")")
            return node
        if kind == "ident":
            nk, nv, _ = self.peek()
            if nk == "op" and nv == "@":
                m = _STATE_IDENT_RE.match(val)
                if not m:
                    raise ModelError(
                        f"state reference must look like x<i>@<j>, found {val!r}@", col=col
                    )
                self.next()
                sk, sv, scol = self.next()
                if sk != "num" or not _INT_RE.match(sv):
                    raise ModelError("delay slot index must be an integer", col=scol)
                return State(int(m.group(1)), int(sv))
            if val in FUNCTIONS:
                self.expect_op("(")
                node = self.nested(col)
                self.expect_op(")")
                return Call(val, node)
            if val in self.param_index:
                return Param(val, self.param_index[val])
            raise ModelError(f"unknown identifier {val!r}", col=col)
        raise ModelError(f"unexpected token {val or 'end of input'!r}", col=col)


def parse_expr(text, param_names, n, m, max_slot=None, where=""):
    """Parse one expression and validate its state references and depth.

    max_slot limits the highest slot a state reference may use (delay
    expressions see only earlier slots). A tree deeper than MAX_NESTING
    operator levels, a flat sum of more than MAX_NESTING + 1 terms included,
    raises ModelError.
    """
    param_index = {name: k for k, name in enumerate(param_names)}
    try:
        node = _Parser(text, param_index).parse()
    except ModelError as err:
        raise ModelError(f"{where}{err}") from None
    limit = m if max_slot is None else max_slot
    for ref, depth in _walk(node):
        if depth > MAX_NESTING:
            raise ModelError(f"{where}expression nests deeper than {MAX_NESTING} levels")
        if isinstance(ref, State):
            if not (1 <= ref.comp <= n):
                raise ModelError(f"{where}unknown component x{ref.comp} (dim is {n})")
            if ref.slot < 1 or ref.slot > m:
                raise ModelError(f"{where}unknown delay slot in x{ref.comp}@{ref.slot} (m is {m})")
            if ref.slot > limit:
                raise ModelError(
                    f"{where}forward delay reference x{ref.comp}@{ref.slot}: "
                    f"only slots 1..{limit} are available here"
                )
    return node


def _walk(node):
    """(subexpression, operator levels above it) in pre-order, without recursion."""
    stack = [(node, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        stack += [(child, depth + 1) for child in reversed(_children(node))]


# ---------------------------------------------------------------------------
# pretty printer (round-trip: parse(to_text(e)) == e)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_text(node):
    return _render(node, 0)


def _render(node, parent_prec):
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Param):
        return node.name
    if isinstance(node, State):
        return f"x{node.comp}@{node.slot}"
    if isinstance(node, Call):
        return f"{node.func}({_render(node.arg, 0)})"
    if isinstance(node, Neg):
        inner = _render(node.arg, 4)
        text = f"-{inner}"
        return f"({text})" if parent_prec >= 3 else text
    if isinstance(node, Pow):
        # grammar: the base of ^ must be atomic or parenthesized
        if isinstance(node.base, (Num, Param, State, Call)):
            base = _render(node.base, 0)
        else:
            base = f"({_render(node.base, 0)})"
        return f"{base}^{node.power}"
    if isinstance(node, Bin):
        prec = _PREC[node.op]
        left = _render(node.left, prec - 1)
        right = _render(node.right, prec)  # reparse is left-associative
        text = f"{left} {node.op} {right}"
        return f"({text})" if parent_prec >= prec else text
    raise ModelError(f"cannot render node {node!r}")


# ---------------------------------------------------------------------------
# compilation to straight-line python: floats, or arrays of complex nodes

_MATH_FUNCS = {name: f"math.{name}" for name in FUNCTIONS}
_NUMPY_FUNCS = {**{name: f"np.{name}" for name in FUNCTIONS}, "atan": "np.arctan"}
_MATH_ERRORS = (ValueError, ZeroDivisionError, OverflowError, FloatingPointError)
_ZERO = Num(0.0)


def _emit(node, funcs=_MATH_FUNCS, names=None, params="P[{}]"):
    """Python source of one expression: params.format(k) for parameter k, x<i>_<j> for x<i>@<j>.

    names maps the ids of the interned subexpressions already bound to a local
    to that local's name.
    """
    if names and id(node) in names:
        return names[id(node)]
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Param):
        return params.format(node.index)
    if isinstance(node, State):
        return f"x{node.comp}_{node.slot}"
    if isinstance(node, Neg):
        return f"(-{_emit(node.arg, funcs, names, params)})"
    if isinstance(node, Pow):
        return f"({_emit(node.base, funcs, names, params)})**({node.power})"
    if isinstance(node, Bin):
        return (f"({_emit(node.left, funcs, names, params)} {node.op} "
                f"{_emit(node.right, funcs, names, params)})")
    if isinstance(node, Call):
        return f"{funcs[node.func]}({_emit(node.arg, funcs, names, params)})"
    raise ModelError(f"cannot compile node {node!r}")


def _compile(args, body):
    """Define ``f(args)`` from generated body lines (built from the validated AST only).

    Math errors raised by the body become NumericalError, with the original as its cause.
    """
    namespace = {"math": math, "np": np, "history_floats": history_floats,
                 "_complex_delay": _complex_delay, "DelayRangeError": DelayRangeError,
                 "ConvergenceError": ConvergenceError,
                 "_MATH_ERRORS": _MATH_ERRORS, "NumericalError": NumericalError}
    exec(f"def f({args}):\n    try:\n" + "".join(f"        {line}\n" for line in body)
         + "    except _MATH_ERRORS as err:\n"
         + "        raise NumericalError(f'numerical failure: {err}') from err\n", namespace)
    return namespace["f"]


def _postorder(node, counts, order):
    """Append to order node and its descendants whose ids counts lacks, children first, right
    to left, and count each 0 occurrences."""
    if id(node) not in counts:
        counts[id(node)] = 0
        for child in reversed(_children(node)):
            _postorder(child, counts, order)
        order.append(node)


def _frozen_source(blocks, dag=None):
    """(body, shapes) of an evaluator (X, P) -> one array per (shape, entry) block, entry(*index)
    an element's AST, for _compile_frozen.

    X is the (n, m) slot matrix. Zero elements, a folded -0.0 included, are
    emitted as the literal 0.0; a subexpression used more than once is
    bound to a local. The elements are interned in dag, the table they were
    built in, or else in a new one; either lives until the source is
    generated, not through its compile. The pass over them is linear in
    their distinct nodes: a right-to-left post-order DFS over the reversed
    elements that skips visited nodes orders them children first,
    occurrence counts (2 meaning 2 or more) flow from parents to children
    in the reverse of that order, and the locals are bound in that order,
    the first-encounter order of the reversed pre-order walk of every
    element.
    """
    dag = dag or _Dag()
    exprs = [dag.intern(entry(*index)) for shape, entry in blocks
             for index in itertools.product(*map(range, shape))]
    order, counts = [], {}
    for e in reversed(exprs):
        _postorder(e, counts, order)
    for e in exprs:
        counts[id(e)] += 1
    for sub in reversed(order):  # every parent before its children
        for child in _children(sub):
            counts[id(child)] = min(2, counts[id(child)] + counts[id(sub)])
    body = [f"x{c}_{s} = X[{c - 1}][{s - 1}]"
            for c, s in sorted((r.comp, r.slot) for r in order if isinstance(r, State))]
    names = {}
    for sub in order:  # descendants first; a subexpression used twice becomes a local
        if counts[id(sub)] > 1 and isinstance(sub, (Bin, Call, Pow)):
            body.append(f"t{len(names)} = {_emit(sub, names=names)}")
            names[id(sub)] = f"t{len(names)}"
    values = ", ".join("0.0" if e == _ZERO else _emit(e, names=names) for e in exprs)
    return body + [f"return [{values}]"], [shape for shape, _ in blocks]


def _compile_frozen(body, shapes):
    """The evaluator (X, P) -> one array per shape that _frozen_source generated as body."""
    fn = _compile("X, P", body)
    ends = list(itertools.accumulate(map(math.prod, shapes), initial=0))

    def evaluate(X, P):
        out = np.array(fn(X, P), dtype=float)
        return [out[a:b].reshape(shape) for a, b, shape in zip(ends, ends[1:], shapes)]

    return evaluate


# slot j of a float stage at time t read from the dense state, in ivp._hermite's operations.
# The range test is _checked_delay's, with tau_hi = tau_max + 1e-12; the clamp gives the bits
# of min(max(tau, 0.0), tau_max), -0.0 included, without two builtin calls, and NaN never
# reaches it.
_DENSE_READ = """\
tau = {tau}
if not -1e-12 <= tau <= tau_hi:
    raise DelayRangeError({j}, tau, tau_max)
theta = -(0.0 if tau < 0.0 else tau_max if tau > tau_max else tau)
if theta == 0.0:
    {xs} = {x1}
else:
    time = t + theta
    if time <= 0.0:
        {xs} = history_floats(hist(time), {n})
    else:
        i = int(time / h)
        if i < k:
            s = (time - i * h) / h
        else:
            s = min((time - k * h) / h, 1.0)
            i = k
            used = True
        s2 = s * s
        s3 = s2 * s
        a = 2 * s3 - 3 * s2 + 1
        b = (s3 - 2 * s2 + s) * h
        c = -2 * s3 + 3 * s2
        d = (s3 - s2) * h"""
# parameter k of the float code, bound once per call by _bind_params
_PARAM_LOCAL = "p{}"


def _locals(name, n):
    """The n locals of one state as a tuple display, 'x1_1, x2_1,' for name 'x{i}_1'."""
    return " ".join(f"{name.format(i=i)}," for i in range(1, n + 1))


def _bind_params(exprs):
    """Lines binding the local p<k> to P[k] for each parameter k that exprs read."""
    order = []
    for e in exprs:
        _postorder(e, {}, order)
    return [f"{_PARAM_LOCAL.format(k)} = P[{k}]"
            for k in sorted({e.index for e in order if isinstance(e, Param)})]


def _float_stage(n, delay_exprs):
    """Body lines reading slots 2..m of one float stage at time t, slot 1 in x<i>_1.

    Delays are checked left to right, clamped into [0, tau_max], and slot j
    is read at theta = -tau_j: slot 1 at theta == 0, hist(t + theta) as n
    floats up to time 0, else the cubic Hermite over the nodes y_<i> and
    slopes yp_<i> of component i, flat lists over the times i*h. Nodes
    i <= k are completed; node k + 1 is the tentative next node, read with
    s capped at 1, and reading it sets used. The caller binds tau_hi and
    the parameters (_bind_params).
    """
    body = []
    for j, e in enumerate(delay_exprs[1:], start=2):
        body += _DENSE_READ.format(j=j, tau=_emit(e, params=_PARAM_LOCAL), n=n,
                                   xs=_locals(f"x{{i}}_{j}", n),
                                   x1=_locals("x{i}_1", n)).splitlines()
        body += [f"        x{i}_{j} = a * y_{i}[i] + b * yp_{i}[i] + c * y_{i}[i + 1] "
                 f"+ d * yp_{i}[i + 1]" for i in range(1, n + 1)]
    return body


def _compile_on_nodes(n, delay_exprs, rhs_exprs):
    """F(u) as straight-line numpy code on arrays of complex node values, delays left to right.

    f(P, hist, tau_max, x0) reads slot 1 at x0 and slot j at hist(-tau_j),
    each delay checked on its real part by _complex_delay.
    """
    body = [f"{_locals('x{i}_1', n)} = x0"]
    body += [f"{_locals(f'x{{i}}_{j}', n)} = hist(-_complex_delay({j}, {_emit(e, _NUMPY_FUNCS)}, "
             f"tau_max))" for j, e in enumerate(delay_exprs[1:], start=2)]
    rhs = ", ".join(_emit(e, _NUMPY_FUNCS) for e in rhs_exprs)
    return _compile("P, hist, tau_max, x0", body + [f"return [{rhs}]"])


def _compile_rk4(n, delay_exprs, rhs_exprs):
    """The fixed-step RK4 loop of ivp.simulate as one function of straight-line stages.

    f(P, hist, tau_max, h, nsteps, x0) -> (y, yp, sweeps): y and yp are n
    lists each, one per component, holding the values y_i and slopes yp_i
    of nodes 0..nsteps; node 0 is x0, and its slope is a stage at t = 0,
    where every theta != 0 reads hist. One flat list of floats per
    component keeps the dense state free of per-step objects: a step
    appends and replaces floats, which the cyclic garbage collector does
    not track, where a list per node would be tracked, promoted and
    scanned again at every collection. tau_max + 1e-12 and the parameters
    are bound to locals once per call.

    Step k appends node k again as the tentative node k + 1, then sweeps:
    the four stages and the end slope, each a _float_stage with its state in
    x<i>_1 and its slope in scalar locals, then the new tentative node and
    slope replace the old. A sweep that read no tentative node, or moved
    none of its values by more than _SWEEP_TOL, ends the step; _SWEEP_LIMIT
    sweeps that do not is a ConvergenceError.
    """
    comps = range(1, n + 1)
    rhs = [_emit(e, params=_PARAM_LOCAL) for e in rhs_exprs]

    def each(line):  # line.format(i=i) for every component i
        return [line.format(i=i) for i in comps]

    def stage(state, slope):  # the state of component i is state.format(i=i)
        return (each(f"x{{i}}_1 = {state}") + _float_stage(n, delay_exprs)
                + [f"{slope.format(i=i)} = {r}" for i, r in zip(comps, rhs)])

    close = " and ".join(each(f"abs(x{{i}}_1 - yt_{{i}}) <= {_SWEEP_TOL!r}")
                         + each(f"abs(mn_{{i}} - mt_{{i}}) <= {_SWEEP_TOL!r}"))
    sweep = [
        "sweeps += 1",
        "used = False",
        "t = t0 + h2",
        *stage("y0_{i} + h2 * k1_{i}", "k2_{i}"),
        *stage("y0_{i} + h2 * k2_{i}", "k3_{i}"),
        "t = t0 + h",
        *stage("y0_{i} + h * k3_{i}", "k4_{i}"),
        *stage("y0_{i} + h6 * (k1_{i} + 2 * k2_{i} + 2 * k3_{i} + k4_{i})", "mn_{i}"),
        *each("y_{i}[-1] = x{i}_1"),
        *each("yp_{i}[-1] = mn_{i}"),
        f"if not used or {close}:",
        "    break",
        *each("yt_{i} = x{i}_1"),
        *each("mt_{i} = mn_{i}"),
    ]
    body = [
        *_bind_params([*delay_exprs, *rhs_exprs]),
        "tau_hi = tau_max + 1e-12",
        f"{_locals('y_{i}', n)} = ([v] for v in x0)",
        *each("yp_{i} = []"),
        "t = 0.0",
        *stage("y_{i}[0]", "k1_{i}"),
        *each("yp_{i}.append(k1_{i})"),
        "sweeps = 0",
        "h2 = h / 2",
        "h6 = h / 6",
        "for k in range(nsteps):",
        "    t0 = k * h",
        *each("    y0_{i} = yt_{i} = y_{i}[k]"),
        *each("    k1_{i} = mt_{i} = yp_{i}[k]"),
        *each("    y_{i}.append(y0_{i})"),
        *each("    yp_{i}.append(k1_{i})"),
        f"    for _ in range({_SWEEP_LIMIT}):",
        *(f"        {line}" for line in sweep),
        "    else:",
        "        raise ConvergenceError(",
        "            f'fixed-point sweeps for short delays did not settle at t={t0 + h:.6g}')",
        f"return [{_locals('y_{i}', n)}], [{_locals('yp_{i}', n)}], sweeps",
    ]
    return _compile("P, hist, tau_max, h, nsteps, x0", body)


def _checked_delay(j, tau, tau_max):
    """Delay of slot j clamped to [0, tau_max]; DelayRangeError beyond roundoff or NaN."""
    if not -1e-12 <= tau <= tau_max + 1e-12:
        raise DelayRangeError(j, tau, tau_max)
    return min(max(tau, 0.0), tau_max)


def _auto_tau_max(taus):
    """A margin over the frozen delays taus of slots 2..m; DelayRangeError below 0 or NaN."""
    for j, tau in enumerate(taus, start=2):
        if not tau >= -1e-12:  # NaN too
            raise DelayRangeError(j, tau, float("inf"))
    top = max(taus, default=0.0)
    return _TAU_MAX_MARGIN * top if top > 0 else 1.0


def _complex_delay(j, tau, tau_max):
    """Delays of slot j as they are; DelayRangeError when a Re tau leaves [0, tau_max]."""
    re = np.real(tau)
    for value in (np.min(re), np.max(re)):
        _checked_delay(j, float(value), tau_max)
    return tau


# ---------------------------------------------------------------------------
# model


def _floats(values, shape, what):
    """values as (nested) lists of Python floats; ModelError unless of the given shape."""
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise ModelError(f"{what} has shape {values.shape}, expected {shape}")
    return values.tolist()


def history_floats(value, n):
    """One history value as n Python floats; a list of length n is taken as it is."""
    if type(value) is not list or len(value) != n:
        value = _floats(value, (n,), "history value")
    return value


def as_history(u, dim):
    """Normalize a history argument to a callable theta -> state vector."""
    if hasattr(u, "eval_real"):
        return u.eval_real
    if callable(u):
        return u
    values = _floats(np.atleast_1d(u), (dim,), "constant history")
    return lambda theta: values


class Model:
    """Parsed, validated sd-DDE definition with compiled evaluators."""

    def __init__(self, name, n, param_names, delay_exprs, rhs_exprs, tau_max=None):
        self.name = name
        self.n = n
        self.m = len(delay_exprs)
        self.param_names = tuple(param_names)
        self.n_p = len(self.param_names)
        self.delay_exprs = tuple(delay_exprs)
        self.rhs_exprs = tuple(rhs_exprs)
        self.declared_tau_max = tau_max
        if len(rhs_exprs) != n:
            raise ModelError(f"dim is {n} but rhs has {len(rhs_exprs)} expressions")
        if self.m < 1:
            raise ModelError("at least one delay slot (the literal 0) is required")
        first = delay_exprs[0]
        if not (isinstance(first, Num) and first.value == 0.0):
            raise ModelError("delay slot 1 must be the literal 0")
        if tau_max is not None and tau_max <= 0:
            raise ModelError("tau_max must be positive")
        # f and the delays apart, so a residual never evaluates a delay
        self._rhs = _compile_frozen(*_frozen_source([((n,), self.rhs_exprs.__getitem__)]))
        self._taus = _compile_frozen(*_frozen_source(
            [((self.m - 1,), lambda j: self.delay_exprs[j + 1])]))
        self._on_nodes = _compile_on_nodes(n, delay_exprs, rhs_exprs)
        self._derivs = {}  # evaluators of frozen_derivatives by order
        self._rk4 = None  # the RK4 loop of simulate and eval_functional, compiled on first use

    # -- raw coefficient evaluation ------------------------------------

    def eval_rhs(self, xmat, params):
        """f(x^1..x^m, p) for an (n, m) slot matrix; math errors raise NumericalError."""
        X = _floats(xmat, (self.n, self.m), "slot matrix")
        P = _floats(params, (self.n_p,), "parameter vector")
        return self._rhs(X, P)[0]

    # -- functional ------------------------------------------------------

    def eval_functional(self, params, u, tau_max=None):
        """F(u) = f(u^1, ..., u^m, p) with u^j = u(-tau^j(u^1..u^{j-1}, p)).

        Delays are evaluated left to right and checked against
        [0, tau_max]; tau_max=None resolves via :meth:`resolve_tau_max`
        at u(0). Each u^j must have n components (else ModelError).
        """
        P = _floats(params, (self.n_p,), "parameter vector")
        hist = as_history(u, self.n)
        x0 = history_floats(hist(0.0), self.n)
        if tau_max is None:
            tau_max = self.resolve_tau_max(P, x0)
        _, yp, _ = self.rk4_steps(P, hist, tau_max, 1.0, 0, x0)  # no steps: the slope of node 0
        return yp[0]

    def eval_on_nodes(self, params, xstar, v, deltas, tau_max):
        """F(x* + delta v), continued to complex delta, at all nodes at once.

        v is one ExpPoly with deltas of shape (N,), giving shape (n, N), or a
        TermStack of K directions with deltas of shape (K, N), giving (n, K, N):
        row k of the nodes reads direction k only. Each direction is read at
        complex theta = -tau; delays are checked on Re tau and not clamped.
        Division by zero, overflow and invalid operations raise
        NumericalError; underflow is no error.
        """
        P = _floats(params, (self.n_p,), "parameter vector")
        X = _floats(xstar, (self.n,), "state vector")
        stacked = isinstance(v, TermStack)
        directions = v if stacked else TermStack([v])
        deltas = np.asarray(deltas, dtype=complex).reshape(len(directions), -1)

        def hist(theta):
            return [x + deltas * w for x, w in zip(X, directions.eval_rows(theta))]

        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            values = self._on_nodes(P, hist, tau_max, hist(0.0))
        out = np.array([np.broadcast_to(value, deltas.shape) for value in values], dtype=complex)
        return out if stacked else out[:, 0]

    def rk4_steps(self, P, hist, tau_max, h, nsteps, x0):
        """(y, yp, sweeps) of nsteps fixed RK4 steps of size h from the node x0 at t = 0.

        P is the parameter vector and x0 the state at t = 0, both as floats.
        y and yp are the values and slopes of nodes 0..nsteps as C-contiguous
        (nsteps + 1, n) arrays. The loop is compiled on first use, and holds
        them as one flat list per component (see _compile_rk4 for why).
        """
        if self._rk4 is None:
            self._rk4 = _compile_rk4(self.n, self.delay_exprs, self.rhs_exprs)
        y, yp, sweeps = self._rk4(P, hist, tau_max, h, nsteps, x0)
        return np.array(y, dtype=float).T.copy(), np.array(yp, dtype=float).T.copy(), sweeps

    def _frozen(self, x):  # slot matrix with every slot at the state x
        return [[v] * self.m for v in _floats(x, (self.n,), "state vector")]

    # -- exact slot derivatives, every slot at x -------------------------

    def frozen_derivatives(self, params, x, order=1):
        """Exact slot derivatives with every slot at x; each order is compiled on first use.

        order 1: [A, df/dp], A[j] = df/dx@(j+1) of shape (m, n, n), df/dp of shape (n, n_p).
        order 2: [dA, dtau] along z = (x_1..x_n, p_1..p_np), x moving in every slot at
        once: dA[j, r, i, z] = d A_j[r, i] / dz, shape (m, n, n, n + n_p), and
        dtau[j, z] = d tau_j / dz for the delay of slot j + 1, shape (m, n + n_p).
        """
        if order not in self._derivs:
            from .symbolic import slot_derivative_blocks

            self._derivs[order] = _compile_frozen(
                *_frozen_source(*slot_derivative_blocks(self, order)))
        X = self._frozen(x)
        return self._derivs[order](X, _floats(params, (self.n_p,), "parameter vector"))

    # -- equilibrium helpers ----------------------------------------------

    def equilibrium_residual(self, params, x):
        """f(x, ..., x, p): zero exactly at equilibria."""
        return self._rhs(self._frozen(x), _floats(params, (self.n_p,), "parameter vector"))[0]

    def frozen_delays(self, params, x):
        """All delays with every slot frozen at x, checked against the resolved tau_max."""
        taus = self._frozen_taus(params, x)
        tau_max = self.declared_tau_max or _auto_tau_max(taus)
        return np.array([0.0] + [
            _checked_delay(j, tau, tau_max) for j, tau in enumerate(taus, start=2)
        ])

    def resolve_tau_max(self, params, x):
        """Declared tau_max, else a margin over the max frozen delay at x."""
        return self.declared_tau_max or _auto_tau_max(self._frozen_taus(params, x))

    def _frozen_taus(self, params, x):
        """Delays of slots 2..m as Python floats, every slot at x."""
        X = self._frozen(x)
        return self._taus(X, _floats(params, (self.n_p,), "parameter vector"))[0].tolist()

    def params_from(self, assignments):
        """Build the parameter vector from a {name: value} mapping."""
        missing = [p for p in self.param_names if p not in assignments]
        if missing:
            raise ModelError(f"parameter(s) not assigned: {', '.join(missing)}")
        unknown = [k for k in assignments if k not in self.param_names]
        if unknown:
            raise ModelError(f"unknown parameter(s): {', '.join(unknown)}")
        return np.array([float(assignments[p]) for p in self.param_names])

    def __repr__(self):
        return f"Model({self.name!r}, n={self.n}, m={self.m}, params={self.param_names})"


# ---------------------------------------------------------------------------
# model file parsing

_KEYS = {"name", "dim", "parameters", "tau_max", "delays", "rhs"}


def parse_model(text):
    """Parse a model file (string) into a validated :class:`Model`."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        if "=" not in line:
            raise ModelError("expected key = value", line=lineno)
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ModelError(f"unknown key {key!r}", line=lineno)
        if key in values:
            raise ModelError(f"duplicate key {key!r}", line=lineno)
        try:
            values[key] = (ast.literal_eval(rhs.strip()), lineno)
        except (ValueError, SyntaxError):
            raise ModelError(f"cannot parse value for {key!r}", line=lineno) from None

    def take(key, required=True, default=None):
        if key not in values:
            if required:
                raise ModelError(f"missing required key {key!r}")
            return default, None
        return values[key]

    name, _ = take("name", required=False, default="model")
    dim, dline = take("dim")
    params, _ = take("parameters", required=False, default=[])
    tau_max, tline = take("tau_max", required=False)
    delays, delline = take("delays")
    rhs, rline = take("rhs")

    if not isinstance(dim, int) or dim < 1:
        raise ModelError("dim must be a positive integer", line=dline)
    if not isinstance(params, list) or not all(isinstance(p, str) for p in params):
        raise ModelError("parameters must be a list of identifiers")
    if len(set(params)) != len(params):
        raise ModelError("duplicate parameter names")
    for p in params:
        if p in FUNCTIONS or _STATE_IDENT_RE.match(p):
            raise ModelError(f"parameter name {p!r} collides with reserved syntax")
    if tau_max is not None and not isinstance(tau_max, (int, float)):
        raise ModelError("tau_max must be a number", line=tline)
    if not isinstance(delays, list) or not all(isinstance(d, str) for d in delays):
        raise ModelError("delays must be a list of expression strings", line=delline)
    if not isinstance(rhs, list) or not all(isinstance(r, str) for r in rhs):
        raise ModelError("rhs must be a list of expression strings", line=rline)
    if len(rhs) != dim:
        raise ModelError(f"dim is {dim} but rhs has {len(rhs)} expressions", line=rline)

    m = len(delays)
    delay_exprs = [
        parse_expr(src, params, dim, m, max_slot=j - 1, where=f"delays[{j}]: ")
        for j, src in enumerate(delays, start=1)
    ]
    rhs_exprs = [
        parse_expr(src, params, dim, m, where=f"rhs[{i}]: ")
        for i, src in enumerate(rhs, start=1)
    ]
    return Model(
        name,
        dim,
        params,
        delay_exprs,
        rhs_exprs,
        tau_max=None if tau_max is None else float(tau_max),
    )


def load_model(path):
    """Read and parse a model file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise ModelError(f"cannot open model file {path}: {err.strerror}") from None
    return parse_model(text)


def _strip_comment(line):
    out = []
    in_str = False
    for ch in line:
        if ch == '"':
            in_str = not in_str
        if ch == "#" and not in_str:
            break
        out.append(ch)
    return "".join(out)
