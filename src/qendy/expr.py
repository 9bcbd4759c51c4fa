"""Expression trees for scalar basis functions.

The node set is deliberately small: constants, variables, sums, products,
integer powers, sin/cos/exp, and reciprocals.  Evaluation goes through a
:class:`Program`: one or more trees flattened, without recursion, into a
topologically ordered instruction list in which structurally equal subtrees
share one slot.  A value pass computes every slot over a batch of sample
points.  A forward-mode tangent pass then carries one directional derivative
per slot along a given direction, so a Jacobian-vector product such as the
time derivative of a lift along sampled motion costs one pass and never forms
a Jacobian; gradients take one unit-direction pass per coordinate.
Derivatives are exact to rounding.

Surface syntax, used by :func:`parse` and :func:`render`::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | base ('^' int)?
    base   := number | 'x' int | ('sin' | 'cos' | 'exp') '(' expr ')' | '(' expr ')'

Variables are 1-indexed in text (``x1`` is coordinate 0).  Subtraction lowers
to ``Add`` with a negated right operand, division to ``Mul`` with an ``Inv``
factor (or a sign-flipped ``Pow`` exponent when the divisor is a power).
``render`` produces text that reparses to a structurally equal tree for any
tree produced by ``parse``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Add", "Mul", "Pow", "Sin", "Cos", "Exp", "Inv",
    "EvaluationDomainError", "ExpressionSyntaxError", "Program",
    "evaluate", "evaluate_many", "gradient", "gradient_many",
    "evaluate_with_gradient_many", "variables", "parse", "render",
]


class ExpressionSyntaxError(ValueError):
    """Malformed expression text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"{message} at offset {offset} (expected {expected})")


class EvaluationDomainError(ValueError):
    """Evaluation hit a pole (reciprocal of zero, or zero to a negative power)."""

    def __init__(self, node: "Expr", message: str):
        self.node = node
        super().__init__(f"{message} in '{render(node)}'")


class Expr:
    """Base class for expression nodes.  Nodes are immutable and comparable."""

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Var(Expr):
    index: int

    def __post_init__(self):
        if not isinstance(self.index, int) or self.index < 0:
            raise ValueError(f"variable index must be a non-negative int, got {self.index!r}")


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or isinstance(self.exponent, bool):
            raise ValueError(f"exponent must be an int, got {self.exponent!r}")


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Inv(Expr):
    arg: Expr


# ---------------------------------------------------------------------------
# evaluation


def _as_batch(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a (m, n) sample batch, got shape {x.shape}")
    return x


# A Program flattens trees into a topologically ordered instruction list.
# Structurally equal subtrees are hash-consed onto one slot (the key of a node
# is its type, its operand slots and its payload), so a subexpression shared
# by several trees, or repeated inside one, is computed once.  Flattening and
# both passes are loops over that list, so tree depth is not bounded by the
# interpreter's recursion limit.

_OP_CONST, _OP_VAR, _OP_ADD, _OP_MUL, _OP_POW, _OP_SIN, _OP_COS, _OP_EXP, _OP_INV = range(9)
_OPCODES = {Const: _OP_CONST, Var: _OP_VAR, Add: _OP_ADD, Mul: _OP_MUL, Pow: _OP_POW,
            Sin: _OP_SIN, Cos: _OP_COS, Exp: _OP_EXP, Inv: _OP_INV}


def _children(e: Expr) -> tuple:
    if isinstance(e, (Add, Mul)):
        return (e.left, e.right)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, (Sin, Cos, Exp, Inv)):
        return (e.arg,)
    if isinstance(e, (Const, Var)):
        return ()
    raise TypeError(f"not an expression node: {e!r}")


def _payload(e: Expr):
    if isinstance(e, Const):
        return e.value.hex()  # keeps -0.0 apart from 0.0
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Pow):
        return e.exponent
    return None


class Program:
    """A tuple of trees compiled into one shared-subterm instruction list.

    The value pass computes one (m,) array per slot.  The tangent pass then
    carries one (m,) directional derivative per slot along a direction given
    per variable, which is forward-mode differentiation (a Jacobian-vector
    product) without ever forming a Jacobian.  Programs are immutable after
    construction, so one may be run from several threads at once.
    """

    def __init__(self, exprs):
        exprs = tuple(exprs)  # keeps every node alive while ids key ``memo``
        instrs, slots, memo = [], {}, {}
        for root in exprs:
            stack = [root]
            while stack:
                e = stack[-1]
                if id(e) in memo:
                    stack.pop()
                    continue
                kids = _children(e)
                pending = [k for k in kids if id(k) not in memo]
                if pending:
                    stack.extend(reversed(pending))
                    continue
                stack.pop()
                key = (_OPCODES[type(e)], tuple(memo[id(k)] for k in kids), _payload(e))
                slot = slots.get(key)
                if slot is None:
                    slot = slots[key] = len(instrs)
                    instrs.append((*key, e))
                memo[id(e)] = slot
        self.outputs = tuple(memo[id(root)] for root in exprs)
        # Sin and Cos differentiate to each other; reuse a computed partner.
        partner = {_OP_SIN: _OP_COS, _OP_COS: _OP_SIN}
        self._instrs = tuple(
            (op, args, payload, node,
             slots.get((partner[op], args, None)) if op in partner else None)
            for op, args, payload, node in instrs)
        self.variables = frozenset(p for op, _, p, _ in instrs if op == _OP_VAR)
        self._width = max(self.variables, default=-1) + 1

    def __len__(self) -> int:
        """Number of slots: distinct subexpressions over all compiled trees."""
        return len(self._instrs)

    def _check(self, x: np.ndarray):
        n = x.shape[1]
        if self._width > n:
            raise ValueError(
                f"expression references x{self._width} but points have dimension {n}")

    def _value_pass(self, x: np.ndarray) -> list:
        m = x.shape[0]
        vals = []
        for op, args, payload, node, _ in self._instrs:
            if op == _OP_MUL:
                v = vals[args[0]] * vals[args[1]]
            elif op == _OP_ADD:
                v = vals[args[0]] + vals[args[1]]
            elif op == _OP_VAR:
                v = x[:, payload].copy()
            elif op == _OP_CONST:
                v = np.full(m, node.value)
            elif op == _OP_POW:
                base = vals[args[0]]
                if payload < 0 and np.any(base == 0.0):
                    raise EvaluationDomainError(node, "zero raised to a negative power")
                v = base ** payload
            elif op == _OP_SIN:
                v = np.sin(vals[args[0]])
            elif op == _OP_COS:
                v = np.cos(vals[args[0]])
            elif op == _OP_EXP:
                v = np.exp(vals[args[0]])
            else:
                arg = vals[args[0]]
                if np.any(arg == 0.0):
                    raise EvaluationDomainError(node, "division by zero")
                v = 1.0 / arg
            vals.append(v)
        return vals

    def _tangent_pass(self, vals: list, seeds) -> list:
        """Slot tangents given ``seeds[j]``, the tangent of x_{j+1}.

        ``None`` stands for an identically zero tangent, so subtrees that do
        not depend on a seeded variable cost nothing.
        """
        tans = []
        for slot, (op, args, payload, _, partner) in enumerate(self._instrs):
            if op == _OP_MUL:
                a, b = args
                ta, tb = tans[a], tans[b]
                if ta is None:
                    t = None if tb is None else vals[a] * tb
                elif tb is None:
                    t = vals[b] * ta
                else:
                    t = vals[a] * tb + vals[b] * ta
            elif op == _OP_ADD:
                ta, tb = tans[args[0]], tans[args[1]]
                t = tb if ta is None else ta if tb is None else ta + tb
            elif op == _OP_VAR:
                t = seeds[payload]
            elif op == _OP_CONST:
                t = None
            else:
                ta = tans[args[0]]
                if ta is None:
                    t = None
                elif op == _OP_POW:
                    t = None if payload == 0 else (
                        payload * vals[args[0]] ** (payload - 1)) * ta
                elif op == _OP_SIN:
                    cos = vals[partner] if partner is not None else np.cos(vals[args[0]])
                    t = cos * ta
                elif op == _OP_COS:
                    sin = vals[partner] if partner is not None else np.sin(vals[args[0]])
                    t = -sin * ta
                elif op == _OP_EXP:
                    t = vals[slot] * ta
                else:
                    t = -(vals[slot] * vals[slot]) * ta
            tans.append(t)
        return tans

    def _gather(self, slots_out: list, m: int) -> np.ndarray:
        out = np.empty((len(self.outputs), m))
        for row, slot in enumerate(self.outputs):
            value = slots_out[slot]
            out[row] = 0.0 if value is None else value
        return out

    def values(self, x) -> np.ndarray:
        """Every tree at each row of ``x`` (m, n); returns (K, m)."""
        x = _as_batch(x)
        self._check(x)
        return self._gather(self._value_pass(x), x.shape[0])

    def _passes(self, x, v):
        """Slot values and slot tangents along ``v`` from one value pass."""
        x, v = _as_batch(x), _as_batch(v)
        if v.shape != x.shape:
            raise ValueError(f"direction {v.shape} does not match points {x.shape}")
        self._check(x)
        vals = self._value_pass(x)
        seeds = [v[:, j].copy() for j in range(x.shape[1])]
        return vals, self._tangent_pass(vals, seeds)

    def tangents(self, x, v) -> np.ndarray:
        """Directional derivatives along ``v`` (m, n), row by row: entry
        (k, i) of the (K, m) result is grad f_k(x[i]) . v[i]."""
        return self._gather(self._passes(x, v)[1], len(x))

    def values_and_tangents(self, x, v):
        """(:meth:`values`, :meth:`tangents`) of the same arguments from one
        value pass."""
        vals, tans = self._passes(x, v)
        values = self._gather(vals, len(x))
        del vals  # frees the slot values before the second gather: a lower peak
        return values, self._gather(tans, len(x))

    def gradients(self, x):
        """Values (K, m) and row-wise gradients (K, m, n), one unit-direction
        tangent pass per coordinate."""
        x = _as_batch(x)
        self._check(x)
        m, n = x.shape
        vals = self._value_pass(x)
        grads = np.empty((len(self.outputs), m, n))
        ones = np.ones(m)
        for j in range(n):
            seeds = [None] * n
            seeds[j] = ones
            grads[:, :, j] = self._gather(self._tangent_pass(vals, seeds), m)
        return self._gather(vals, m), grads


def _point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a point of shape (n,), got {x.shape}")
    return x[None, :]


def evaluate(e: Expr, x) -> float:
    """Evaluate ``e`` at a single point ``x`` of shape (n,)."""
    return float(Program((e,)).values(_point(x))[0, 0])


def evaluate_many(e: Expr, x) -> np.ndarray:
    """Evaluate ``e`` at each row of ``x`` (m, n); returns shape (m,)."""
    return Program((e,)).values(x)[0]


def gradient(e: Expr, x) -> np.ndarray:
    """Gradient of ``e`` at a single point ``x`` of shape (n,)."""
    return Program((e,)).gradients(_point(x))[1][0, 0]


def gradient_many(e: Expr, x) -> np.ndarray:
    """Row-wise gradients of ``e``; input (m, n), output (m, n)."""
    return Program((e,)).gradients(x)[1][0]


def evaluate_with_gradient_many(e: Expr, x):
    """Values and row-wise gradients in one pass: ((m,), (m, n))."""
    values, grads = Program((e,)).gradients(x)
    return values[0], grads[0]


def variables(e: Expr) -> frozenset:
    """Set of variable indices referenced by ``e``."""
    found, stack = set(), [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            found.add(node.index)
        else:
            stack.extend(_children(node))
    return frozenset(found)


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(
    r"(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)

_FUNCTIONS = {"sin": Sin, "cos": Cos, "exp": Exp}


@dataclass
class _Token:
    kind: str
    text: str
    offset: int


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ExpressionSyntaxError(
                f"unrecognized character {text[pos]!r}", pos,
                "number, variable, function, or operator")
        tokens.append(_Token(match.lastgroup, match.group(), pos))
        pos = match.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


def _negated(e: Expr) -> Expr:
    if isinstance(e, Const):
        return Const(-e.value)
    return Mul(Const(-1.0), e)


def _divide(lhs: Expr, rhs: Expr) -> Expr:
    if isinstance(rhs, Pow):
        inverted: Expr = Pow(rhs.base, -rhs.exponent)
    else:
        inverted = Inv(rhs)
    if lhs == Const(1.0):
        return inverted
    return Mul(lhs, inverted)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ExpressionSyntaxError(
                f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
                tok.offset, f"'{op}'")
        self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(
                "unexpected trailing input", tok.offset, "end of input or an operator")
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            node = Add(node, rhs if op == "+" else _negated(rhs))
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else _divide(node, rhs)
        return node

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return _negated(self.factor())
        node = self.base()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            node = Pow(node, self.exponent())
        return node

    def exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok.kind != "num" or any(c in tok.text for c in ".eE"):
            raise ExpressionSyntaxError(
                f"bad exponent {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
                tok.offset, "an integer exponent")
        self.advance()
        return sign * int(tok.text)

    def base(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "var":
            self.advance()
            index = int(tok.text[1:])
            if index < 1:
                raise ExpressionSyntaxError(
                    f"bad variable {tok.text!r}", tok.offset, "x1, x2, ... (1-indexed)")
            return Var(index - 1)
        if tok.kind == "name":
            if tok.text not in _FUNCTIONS:
                raise ExpressionSyntaxError(
                    f"unknown function {tok.text!r}", tok.offset, "sin, cos, or exp")
            self.advance()
            self.expect_op("(")
            arg = self.expr()
            self.expect_op(")")
            return _FUNCTIONS[tok.text](arg)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionSyntaxError(
            f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
            tok.offset, "number, variable, function, or '('")


def parse(text: str) -> Expr:
    """Parse expression text into a tree.

    Raises :class:`ExpressionSyntaxError` with the byte offset of the failure
    and a hint naming the expected token.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# rendering

_SUM, _TERM, _POW, _ATOM = 1, 2, 3, 4


def _prec(e: Expr) -> int:
    if isinstance(e, Const):
        return _ATOM if e.value >= 0 else _TERM
    if isinstance(e, Add):
        return _SUM
    if isinstance(e, (Mul, Inv)):
        return _TERM
    if isinstance(e, Pow):
        return _POW
    return _ATOM


def _format_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _pieces(e: Expr) -> list:
    """The text of one node: literal strings, and (child, minimum precedence)
    jobs for its operands, in output order."""
    if isinstance(e, Const):
        return [_format_const(e.value)]
    if isinstance(e, Var):
        return [f"x{e.index + 1}"]
    if isinstance(e, Add):
        left = (e.left, _SUM)
        right = e.right
        if isinstance(right, Const) and right.value < 0:
            return [left, "-", (Const(-right.value), _TERM)]
        if isinstance(right, Mul) and right.left == Const(-1.0):
            return [left, "-", (right.right, _TERM)]
        return [left, "+", (right, _TERM)]
    if isinstance(e, Mul):
        if e.left == Const(-1.0):
            return ["-", (e.right, _ATOM)]
        if isinstance(e.right, Inv):
            return [(e.left, _TERM), "/", (e.right.arg, _ATOM)]
        if isinstance(e.right, Pow) and e.right.exponent < 0:
            flipped = Pow(e.right.base, -e.right.exponent)
            return [(e.left, _TERM), "/", (flipped, _POW)]
        return [(e.left, _TERM), "*", (e.right, _POW)]
    if isinstance(e, Pow):
        return [(e.base, _ATOM), f"^{e.exponent}"]
    if isinstance(e, Inv):
        return ["1/", (e.arg, _ATOM)]
    if isinstance(e, (Sin, Cos, Exp)):
        # The parentheses of the call delimit the argument.
        return [f"{type(e).__name__.lower()}(", (e.arg, 0), ")"]
    raise TypeError(f"not an expression node: {e!r}")


def render(e: Expr) -> str:
    """Render a tree back to surface syntax.

    For any tree returned by :func:`parse`, ``parse(render(tree))`` is
    structurally equal to ``tree``.  Works from an explicit stack, so deep
    trees (long sums) render without recursion.
    """
    out = []
    jobs = [(e, _SUM)]
    while jobs:
        job = jobs.pop()
        if isinstance(job, str):
            out.append(job)
            continue
        node, min_prec = job
        pieces = _pieces(node)
        if _prec(node) < min_prec:
            pieces = ["(", *pieces, ")"]
        jobs.extend(reversed(pieces))
    return "".join(out)
