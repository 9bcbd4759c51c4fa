"""Expression trees for scalar basis functions.

The node set is deliberately small: constants, variables, sums, products,
integer powers, sin/cos/exp, and reciprocals.  Evaluation goes through a
:class:`Program`: one or more trees flattened, without recursion, into a
topologically ordered instruction list in which structurally equal subtrees
share one slot.  Each pass over the list is emitted as straight-line Python
and compiled: the values over NumPy columns for a batch (one point is a batch
of one); the same values pasted into the four stages of a whole RK4 loop
over Python floats; and the forward-mode tangent pass.  That pass carries one
directional derivative per slot, so the time derivative of a lift along
sampled motion costs one pass and never forms a Jacobian; gradients seed one
tangent set per coordinate in the same call.
Derivatives are exact to rounding.  A batch call allocates its outputs and
runs its binding on each block of :data:`BLOCK` rows, which writes into the
same block of those outputs: a call holds its result plus one block, whatever
the number of points, and its values are bit-equal to one evaluation of the
whole batch.  A program is built for a state dimension n and is the one
place that checks inputs: its trees at construction, then each point, batch
or direction once at the entry it is passed to.

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

import math
import re
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Add", "Mul", "Pow", "Sin", "Cos", "Exp", "Inv",
    "EvaluationDomainError", "ExpressionSyntaxError", "StateDimensionError", "Program",
    "evaluate", "gradient", "variables",
    "parse", "render",
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


class StateDimensionError(ValueError):
    """A tree reads a variable beyond the state dimension of its
    :class:`Program`: ``tree`` is the index of the first such tree and
    ``variable`` the smallest such variable index in it."""

    def __init__(self, tree: int, variable: int, n: int):
        self.tree, self.variable = tree, variable
        super().__init__(f"component {tree} references x{variable + 1} "
                         f"but the state dimension is {n}")


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


# A Program flattens trees into a topologically ordered instruction list.
# Structurally equal subtrees are hash-consed onto one slot (the key of a node
# is its type, its operand slots and its payload), so a subexpression shared
# by several trees, or repeated inside one, is computed once.  Flattening and
# source emission are loops over that list, so tree depth is not bounded by
# the interpreter's recursion limit.

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


# Source emission.  A slot read by exactly one consumer is inlined into it, so
# a chain such as (a*b + c)*d reuses its temporaries under NumPy's temporary
# elision.  A slot gets a local when it is read more than once, when it is the
# operand of a reciprocal or a negative power (tested for zero before the
# operation, so the error can name the node), or when inlining it would nest
# operands more than _INLINE_DEPTH deep: CPython's parser refuses source
# nested about 200 parentheses deep, and a 1500-term sum is an Add chain 1500
# deep.
_INLINE_DEPTH = 32


def _divides(op: int, payload) -> bool:
    """Whether an instruction divides by its operand: a reciprocal or a
    negative power."""
    return op == _OP_INV or (op == _OP_POW and payload < 0)


def _power(base, k):
    """``base ** k`` for a float base, as NumPy computes it on an array."""
    return np.asarray(base) ** k


# On floats, ``math.sin`` and ``math.cos`` match NumPy's array loops bit for
# bit, while ``math.exp`` and ``float ** int`` differ in the last ulp for some
# inputs; exp and powers therefore go through NumPy on floats too.
_FLOAT_OPS = {"_sin": math.sin, "_cos": math.cos, "_exp": np.exp, "_any": bool}
_ARRAY_OPS = {"_sin": np.sin, "_cos": np.cos, "_exp": np.exp, "_any": np.any}

# Binding -> how it reads variable j from the argument ``x``.  The tangent
# bindings give every slot value a local, since the tangent statements read
# them, and copy each variable column out of the (m, n) batch because every
# product rule reads it again; the values binding reads the strided column in
# place.  The rk4 binding, the one over floats, reads no argument: its stage
# inputs are locals of the loop (see _rk4_source).
_BINDINGS = {"values": "x[:, {}]", "tangents": "x[:, {}].copy()",
             "gradients": "x[:, {}].copy()", "rk4": None}

# Rows per block of a batch call.  A slot column of a block is 64 KB, under
# glibc's default 128 KB mmap threshold, so a block's temporaries are reused
# heap memory rather than fresh mappings; a batch call holds its result plus
# one block.
BLOCK = 8192


def _rk4_source(n: int, variables, body: list, outputs: list) -> str:
    """The ``rk4`` binding of an n-component field: ``program(out, k, steps,
    dt)`` runs RK4 steps k+1..steps of size dt in Python floats.

    ``out`` is the flat memoryview of the (steps+1, n) path whose row k holds
    the start state; each finite state is written straight into its row, so
    no path is held as floats.  The value statements ``body``, which read
    stage input j as ``x{j}``, and the ``outputs`` refs are pasted into each
    of the four stages.  The state is ``s{j}``, and the stage arithmetic is
    that of :func:`qendy.dynamics.rk4_step` in its order, so the steps are
    bit-equal to it.  Returns ``steps`` when done, else the row k from which
    step k+1 could not be finished in floats: it ends in a non-finite state,
    or it raised a ValueError other than :class:`EvaluationDomainError`
    (``math.sin`` of an infinity).
    """
    def inputs(j):
        return f"x{j} = " if j in variables else ""

    def row(j):
        return f"out[i + {j}]" if j else "out[i]"

    lines = ["def program(out, k, steps, dt):", "    half = 0.5 * dt",
             "    sixth = dt / 6.0", f"    i = k * {n}"]
    lines += [f"    s{j} = {inputs(j)}{row(j)}" for j in range(n)]
    lines += ["    try:", "        for k in range(k, steps):"]
    for stage, scale in enumerate(("half", "half", "dt", None), 1):
        lines += ["        " + line for line in body]
        lines += [f"            k{stage}_{j} = {ref}" for j, ref in enumerate(outputs)]
        if scale is not None:
            lines += [f"            x{j} = s{j} + {scale} * k{stage}_{j}"
                      for j in sorted(variables)]
    lines += [f"            {inputs(j)}s{j} = s{j} + sixth * "
              f"(((k1_{j} + 2.0 * k2_{j}) + 2.0 * k3_{j}) + k4_{j})" for j in range(n)]
    finite = " and ".join(f"_isfinite(s{j})" for j in range(n))
    lines += [f"            if not ({finite}):", "                return k",
              f"            i += {n}"]
    lines += [f"            {row(j)} = s{j}" for j in range(n)]
    lines += ["    except _DomainError:", "        raise",
              "    except ValueError:", "        return k", "    return steps", ""]
    return "\n".join(lines)


def _tangent_lines(instrs, refs, seeds: dict, suffix: str, lines: list) -> list:
    """Append the tangent statements of one seed set, ``seeds[j]`` naming the
    tangent of x_{j+1}, to ``lines``; returns every slot's tangent.  A tangent
    known to be zero (no seeded operand, or ``^0``) is None and costs nothing."""
    tans = []
    for slot, (op, args, payload, _, partner) in enumerate(instrs):
        a, t = [refs[i] for i in args], [tans[i] for i in args]
        if op == _OP_VAR:
            tans.append(seeds.get(payload))
            continue
        if op == _OP_ADD and None in t:
            tans.append(t[1] if t[0] is None else t[0])
            continue
        if op == _OP_MUL:
            text = (None if t == [None, None] else f"{a[0]} * {t[1]}" if t[0] is None
                    else f"{a[1]} * {t[0]}" if t[1] is None
                    else f"{a[0]} * {t[1]} + {a[1]} * {t[0]}")
        elif op == _OP_CONST or t[0] is None or (op == _OP_POW and payload == 0):
            text = None
        elif op == _OP_ADD:
            text = f"{t[0]} + {t[1]}"
        elif op == _OP_POW:
            text = f"({payload} * {a[0]} ** {payload - 1}) * {t[0]}"
        elif op in (_OP_SIN, _OP_COS):
            other = (refs[partner] if partner is not None
                     else f"{('_cos', '_sin')[op - _OP_SIN]}({a[0]})")
            text = f"{'-' if op == _OP_COS else ''}{other} * {t[0]}"
        elif op == _OP_EXP:
            text = f"{refs[slot]} * {t[0]}"
        else:
            text = f"-({refs[slot]} * {refs[slot]}) * {t[0]}"
        if text is not None:
            lines.append(f"    t{slot}{suffix} = {text}")
            text = f"t{slot}{suffix}"
        tans.append(text)
    return tans


class Program:
    """A tuple of trees over R^n compiled into one shared-subterm
    instruction list.

    The one place that checks inputs: construction raises
    :class:`StateDimensionError` for a tree that reads beyond x_n, and each
    entry checks a point against (n,), a batch against (m, n) and a
    direction against its points, once, raising ValueError.

    :meth:`source` emits the list as straight-line Python in four bindings,
    each compiled on first use: ``values`` (one (m,) column per slot; one
    point is a batch of one), ``rk4`` (the value statements over Python
    floats, NumPy running only ``exp`` and integer powers, pasted into the
    four stages of one fixed-step RK4 loop over the trees as the components
    of a field, for :func:`qendy.dynamics.rk4_integrate`), ``tangents`` (the
    values, then one directional derivative per slot along a direction: a
    Jacobian-vector product without a Jacobian) and ``gradients`` (the
    values, then one tangent set per coordinate).
    The batch entries allocate their outputs and run the binding, which
    writes into them, on each block of :data:`BLOCK` rows: a call holds its
    result plus one block.  Every binding tests the operand of a reciprocal
    and the base of a negative power for zero and raises
    :class:`EvaluationDomainError` naming that node.  Programs are immutable after construction, and the lazy
    compilation is locked, so one may be run from several threads at once.
    """

    def __init__(self, exprs, n: int):
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
        self.n = n
        if max(self.variables, default=-1) >= n:
            for i, root in enumerate(exprs):
                beyond = [v for v in variables(root) if v >= n]
                if beyond:
                    raise StateDimensionError(i, min(beyond), n)
        self._compiled = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Number of slots: distinct subexpressions over all compiled trees."""
        return len(self._instrs)

    def source(self, binding: str) -> str:
        """The Python source of one binding: the loop described at
        :func:`_rk4_source` for ``"rk4"``, and batch bindings that write
        output i into row i of the (K, b) arrays passed: ``program(x, out)``,
        ``program(x, v, out, tout)`` along ``v`` (``out`` may be None; a zero
        tangent writes 0.0) and ``program(x, out, grads)`` (``grads[i, :,
        j]``, zero-filled by the caller).  All value statements come first,
        in slot order, since a sin/cos partner slot can follow the slot whose
        tangent reads it."""
        read = _BINDINGS[binding]
        every_slot = binding in ("tangents", "gradients")
        instrs = self._instrs
        reads = [0] * len(instrs)
        for _, args, _, _, _ in instrs:
            for slot in args:
                reads[slot] += 1
        for slot in self.outputs:
            reads[slot] += 1
        tested = {args[0] for op, args, payload, _, _ in instrs if _divides(op, payload)}
        lines, refs, depths, varying = [], [], [], []
        for slot, (op, args, payload, node, _) in enumerate(instrs):
            a = [refs[i] for i in args]
            if op == _OP_VAR:
                refs.append(f"x{payload}")
                depths.append(0)
                varying.append(True)
                continue
            if op == _OP_CONST:
                # Non-finite constants have no literal; they are bound as _c<slot>.
                refs.append(repr(node.value) if math.isfinite(node.value) else f"_c{slot}")
                depths.append(0)
                varying.append(False)
                continue
            varying.append(any(varying[i] for i in args))
            if op == _OP_ADD:
                text = f"({a[0]} + {a[1]})"
            elif op == _OP_MUL:
                text = f"({a[0]} * {a[1]})"
            elif op == _OP_POW:
                # A constant base is a float even in the array bindings.
                text = (f"({a[0]} ** {payload})" if binding != "rk4" and varying[args[0]]
                        else f"_power({a[0]}, {payload})")
            elif op == _OP_INV:
                text = f"(1.0 / {a[0]})"
            else:
                text = f"{('_sin', '_cos', '_exp')[op - _OP_SIN]}({a[0]})"
            if _divides(op, payload):
                lines.append(f"    if _any({a[0]} == 0.0): _fail({slot})")
            depth = 1 + max(depths[i] for i in args)
            if every_slot or reads[slot] > 1 or slot in tested or depth > _INLINE_DEPTH:
                lines.append(f"    v{slot} = {text}")
                text, depth = f"v{slot}", 0
            refs.append(text)
            depths.append(depth)

        if binding == "rk4":
            return _rk4_source(len(self.outputs), self.variables, lines,
                               [refs[s] for s in self.outputs])

        lines[:0] = [f"    x{j} = {read.format(j)}" for j in sorted(self.variables)]

        def written(target, slot_refs, indent="    "):
            # Row i of target gets output i; a tangent known to be zero, 0.0.
            # A program of no trees writes nothing, so its blocks are ``pass``.
            return [f"{indent}{target}[{i}] = {slot_refs[s] or 0.0}"
                    for i, s in enumerate(self.outputs)] or [f"{indent}pass"]

        if binding == "values":
            return "\n".join(["def program(x, out):", *lines, *written("out", refs), ""])
        if binding == "tangents":
            lines += [f"    d{j} = v[:, {j}].copy()" for j in sorted(self.variables)]
            tans = _tangent_lines(instrs, refs, {j: f"d{j}" for j in self.variables},
                                  "", lines)
            return "\n".join(["def program(x, v, out, tout):", *lines,
                              "    if out is not None:", *written("out", refs, "        "),
                              *written("tout", tans), ""])
        lines += ["    one = _ones(len(x))", *written("out", refs)]
        for j in sorted(self.variables):
            tans = _tangent_lines(instrs, refs, {j: "one"}, f"_{j}", lines)
            lines += [f"    grads[{i}, :, {j}] = {tans[s]}"
                      for i, s in enumerate(self.outputs) if tans[s] is not None]
        return "\n".join(["def program(x, out, grads):", *lines, ""])

    def _bound(self, binding: str):
        """The compiled function of one binding, compiled on first use."""
        fn = self._compiled.get(binding)
        if fn is None:
            with self._lock:
                fn = self._compiled.get(binding)
                if fn is None:
                    fn = self._compiled[binding] = self._compile(binding)
        return fn

    def _compile(self, binding: str):
        instrs = self._instrs

        def fail(slot):
            op, _, _, node, _ = instrs[slot]
            raise EvaluationDomainError(node, "division by zero" if op == _OP_INV
                                        else "zero raised to a negative power")

        namespace = {**(_FLOAT_OPS if binding == "rk4" else _ARRAY_OPS),
                     "_power": _power, "_fail": fail, "_ones": np.ones,
                     "_isfinite": math.isfinite, "_DomainError": EvaluationDomainError}
        namespace.update((f"_c{slot}", node.value) for slot, (op, _, _, node, _)
                         in enumerate(instrs)
                         if op == _OP_CONST and not math.isfinite(node.value))
        exec(compile(self.source(binding), f"<qendy program: {binding}>", "exec"),
             namespace)
        return namespace.pop("program")

    def point(self, x) -> np.ndarray:
        """Every tree at one point ``x`` (n,): :meth:`values` of a batch of
        one; returns (K,)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {x.shape}")
        return self.values(x[None, :])[:, 0]

    def _batch(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n:
            raise ValueError(f"expected shape (m, {self.n}), got {x.shape}")
        return x

    def _rows(self, m: int) -> np.ndarray:
        return np.empty((len(self.outputs), m))

    def _run(self, binding: str, inputs, *outputs) -> None:
        """The one batch loop: runs ``binding`` on each block of
        :data:`BLOCK` rows of ``inputs`` (each (m, n)), which writes into
        the same block ``o[:, block]`` of each output (None passes None)."""
        fn = self._bound(binding)
        for start in range(0, max(len(inputs[0]), 1), BLOCK):
            block = slice(start, start + BLOCK)
            fn(*[a[block] for a in inputs],
               *[o if o is None else o[:, block] for o in outputs])

    def values(self, x, *, per_point: bool = False) -> np.ndarray:
        """Every tree at each row of ``x`` (m, n); returns (K, m), or with
        ``per_point`` the same values as (m, K), one row per point."""
        x = self._batch(x)
        out = np.empty((len(x), len(self.outputs))).T if per_point else self._rows(len(x))
        self._run("values", (x,), out)
        return out.T if per_point else out

    def _along(self, x, v, values: bool):
        """The ``tangents`` binding at ``x`` along ``v``: (values, or None
        unless ``values``, tangents)."""
        x, v = self._batch(x), np.asarray(v, dtype=float)
        if v.shape != x.shape:
            raise ValueError(f"direction {v.shape} does not match points {x.shape}")
        out, tout = self._rows(len(x)) if values else None, self._rows(len(x))
        self._run("tangents", (x, v), out, tout)
        return out, tout

    def tangents(self, x, v) -> np.ndarray:
        """Directional derivatives along ``v`` (m, n), row by row: entry
        (k, i) of the (K, m) result is grad f_k(x[i]) . v[i]."""
        return self._along(x, v, False)[1]

    def values_and_tangents(self, x, v):
        """(:meth:`values`, :meth:`tangents`) of the same arguments from one
        evaluation of the slots."""
        return self._along(x, v, True)

    def gradients(self, x):
        """Values (K, m) and row-wise gradients (K, m, n) from one call, with
        one unit-direction tangent set per coordinate."""
        x = self._batch(x)
        out, grads = self._rows(len(x)), np.zeros((len(self.outputs), len(x), self.n))
        self._run("gradients", (x,), out, grads)
        return out, grads


def evaluate(e: Expr, x) -> float:
    """Evaluate ``e`` at a single point ``x`` of shape (n,)."""
    return float(Program((e,), np.size(x)).point(x)[0])


def gradient(e: Expr, x) -> np.ndarray:
    """Gradient of ``e`` at a single point ``x`` of shape (n,)."""
    return Program((e,), np.size(x)).gradients(np.asarray(x, dtype=float)[None])[1][0, 0]


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


def _is_op(tok: _Token, ops: str) -> bool:
    return tok.kind == "op" and tok.text in ops


def _unexpected(tok: _Token, expected: str) -> ExpressionSyntaxError:
    return ExpressionSyntaxError(
        f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input",
        tok.offset, expected)


def parse(text: str) -> Expr:
    """Parse expression text into a tree.

    Raises :class:`ExpressionSyntaxError` with the byte offset of the failure
    and a hint naming the expected token.  One loop reads the tokens and keeps
    a stack of open groups (the whole text, each ``(`` and each function
    call), so nesting depth is not bounded by the interpreter's recursion
    limit.
    """
    tokens, pos = _tokenize(text), 0
    # An open group: [its function or None, its sum so far, the '+' or '-'
    # before the term being read, that term so far, the '*' or '/' before the
    # factor being read, the count of '-' signs read before that factor].
    groups = [[None, None, None, None, None, 0]]
    while True:
        tok = tokens[pos]
        pos += 1
        if _is_op(tok, "-"):
            groups[-1][5] += 1
            continue
        if tok.kind == "name" or _is_op(tok, "("):
            if tok.kind == "name":
                if tok.text not in _FUNCTIONS:
                    raise ExpressionSyntaxError(
                        f"unknown function {tok.text!r}", tok.offset, "sin, cos, or exp")
                if not _is_op(tokens[pos], "("):
                    raise _unexpected(tokens[pos], "'('")
                pos += 1
            groups.append([_FUNCTIONS.get(tok.text), None, None, None, None, 0])
            continue
        if tok.kind == "num":
            node = Const(float(tok.text))
        elif tok.kind == "var":
            index = int(tok.text[1:])
            if index < 1:
                raise ExpressionSyntaxError(
                    f"bad variable {tok.text!r}", tok.offset, "x1, x2, ... (1-indexed)")
            node = Var(index - 1)
        else:
            raise _unexpected(tok, "number, variable, function, or '('")
        # ``node`` is a base: fold it into its group, and close each group
        # that the next token ends into the base of the one around it.
        while True:
            function, total, add, term, mul, negations = groups[-1]
            if _is_op(tokens[pos], "^"):
                sign, pos = 1, pos + 1
                if _is_op(tokens[pos], "-"):
                    sign, pos = -1, pos + 1
                tok = tokens[pos]
                if tok.kind != "num" or any(c in tok.text for c in ".eE"):
                    raise ExpressionSyntaxError(
                        f"bad exponent {tok.text!r}" if tok.kind != "end"
                        else "unexpected end of input", tok.offset, "an integer exponent")
                node, pos = Pow(node, sign * int(tok.text)), pos + 1
            for _ in range(negations):
                node = _negated(node)
            if term is not None:
                node = Mul(term, node) if mul == "*" else _divide(term, node)
            tok = tokens[pos]
            pos += 1
            if _is_op(tok, "*/"):
                groups[-1][3:] = node, tok.text, 0
                break
            if total is not None:
                node = Add(total, node if add == "+" else _negated(node))
            if _is_op(tok, "+-"):
                groups[-1][1:] = node, tok.text, None, None, 0
                break
            if len(groups) == 1:
                if tok.kind != "end":
                    raise ExpressionSyntaxError("unexpected trailing input", tok.offset,
                                                "end of input or an operator")
                return node
            if not _is_op(tok, ")"):
                raise _unexpected(tok, "')'")
            groups.pop()
            if function is not None:
                node = function(node)


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
    if math.isinf(v):  # 1e999 parses to an infinity
        return "-1e999" if v < 0 else "1e999"
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


# The parser folds -c into one Const and reads 1/d as the bare divisor d, so
# -1*c and 1*(1/d) keep their '*' when rendered.
def _negates(e: Expr) -> bool:
    return isinstance(e, Mul) and e.left == Const(-1.0) and not isinstance(e.right, Const)


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
        if _negates(right):
            return [left, "-", (right.right, _TERM)]
        return [left, "+", (right, _TERM)]
    if isinstance(e, Mul):
        if _negates(e):
            return ["-", (e.right, _ATOM)]
        if isinstance(e.right, Inv) and e.left != Const(1.0):
            return [(e.left, _TERM), "/", (e.right.arg, _ATOM)]
        if isinstance(e.right, Pow) and e.right.exponent < 0 and e.left != Const(1.0):
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
