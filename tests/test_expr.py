"""Expression AST: compiled evaluation, tangent-pass gradients, parser,
renderer."""

import gc
import math
import re
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qendy.dictionary import (
    Dictionary, feature_map, feature_matrix, feature_matrix_and_derivatives,
    feature_time_derivatives, jacobian,
)
from qendy.dynamics import exact_derivatives
from qendy.expr import (
    _FUNCTIONS, BLOCK, Add, Const, Cos, EvaluationDomainError, Exp, Expr,
    ExpressionSyntaxError, Inv, Mul, Pow, Program, Sin, Var, _divide, _negated,
    _children, _tokenize, evaluate, gradient, parse, render, variables,
)
from qendy.systems import make_dictionary, make_system

# x/(1+x)^2 shows up in several dictionaries; build it once by hand.
RATIONAL = Mul(Var(0), Pow(Add(Const(1.0), Var(0)), -2))


# ---------------------------------------------------------------------------
# evaluation


def test_eval_identity():
    assert evaluate(Var(0), [3.5]) == 3.5


def test_eval_rational_at_one():
    # x/(1+x)^2 at x=1 is 1/4
    assert abs(evaluate(RATIONAL, [1.0]) - 0.25) < 1e-15


def test_eval_sin_ignores_other_coordinates():
    assert evaluate(Sin(Var(0)), [0.0, 7.0]) == 0.0


def test_eval_exp_and_const():
    e = Mul(Const(2.0), Exp(Var(0)))
    assert abs(evaluate(e, [1.0]) - 2.0 * math.e) < 1e-14


def test_eval_pow_negative_exponent():
    e = Pow(Var(0), -3)
    assert abs(evaluate(e, [2.0]) - 0.125) < 1e-15


def test_evaluate_many_matches_scalar_loop():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 2.0, size=(40, 1))
    batch = Program((RATIONAL,), 1).values(pts)[0]
    for k in range(pts.shape[0]):
        assert abs(batch[k] - evaluate(RATIONAL, pts[k])) < 1e-15


def test_eval_inv_zero_raises_domain_error():
    with pytest.raises(EvaluationDomainError):
        evaluate(Inv(Var(0)), [0.0])


def test_eval_pow_negative_zero_base_raises():
    with pytest.raises(EvaluationDomainError):
        evaluate(Pow(Var(0), -2), [0.0])


def test_eval_var_out_of_range():
    with pytest.raises((IndexError, ValueError)):
        evaluate(Var(2), [1.0])


# ---------------------------------------------------------------------------
# gradients


def test_grad_rational_critical_point():
    # d/dx x/(1+x)^2 = (1+x)^-2 - 2x(1+x)^-3, zero at x=1
    g = gradient(RATIONAL, [1.0])
    assert abs(g[0]) < 1e-15


def test_grad_cos_at_origin():
    g = gradient(Cos(Var(0)), [0.0, 0.0])
    assert np.abs(g).max() < 1e-15
    assert g.shape == (2,)


def test_grad_power_rule():
    g = gradient(Pow(Var(1), 4), [2.0, 3.0])
    assert abs(g[0]) == 0.0
    assert abs(g[1] - 108.0) < 1e-12  # 4 * 3^3


def test_grad_matches_finite_differences():
    """Dual-number gradients agree with central differences on random trees."""
    exprs = [
        RATIONAL,
        Sin(Mul(Var(0), Var(1))),
        Mul(Cos(Var(0)), Exp(Mul(Const(0.5), Var(1)))),
        Add(Pow(Var(0), 3), Mul(Var(1), Inv(Add(Const(2.0), Var(0))))),
        Mul(Sin(Var(1)), Pow(Add(Const(1.5), Var(0)), -2)),
    ]
    rng = np.random.default_rng(1)
    h = 1e-5
    for e in exprs:
        for _ in range(20):
            x = rng.uniform(-0.4, 0.4, size=2)
            g = gradient(e, x)
            for j in range(2):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd = (evaluate(e, xp) - evaluate(e, xm)) / (2 * h)
                assert abs(g[j] - fd) < 1e-6, f"{render(e)} d/dx{j + 1}"


def test_grad_linearity():
    e1, e2 = Sin(Var(0)), Mul(Var(0), Var(1))
    combo = Add(Mul(Const(3.0), e1), e2)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=2)
        lhs = gradient(combo, x)
        rhs = 3.0 * gradient(e1, x) + gradient(e2, x)
        assert np.abs(lhs - rhs).max() < 1e-14


def test_grad_product_rule():
    e1, e2 = Cos(Var(0)), Add(Var(1), Pow(Var(0), 2))
    prod = Mul(e1, e2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=2)
        lhs = gradient(prod, x)
        rhs = (evaluate(e2, x) * gradient(e1, x)
               + evaluate(e1, x) * gradient(e2, x))
        assert np.abs(lhs - rhs).max() < 1e-14


def test_program_gradients_match_per_point():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(25, 2))
    batch = Program((Sin(Mul(Var(0), Var(1))),), 2).gradients(pts)[1][0]
    assert batch.shape == (25, 2)
    for k in range(25):
        single = gradient(Sin(Mul(Var(0), Var(1))), pts[k])
        assert np.abs(batch[k] - single).max() < 1e-15


# ---------------------------------------------------------------------------
# parsing


def test_parse_variable():
    assert parse("x1") == Var(0)


def test_parse_product_with_function():
    assert parse("sin(x1)*x2") == Mul(Sin(Var(0)), Var(1))


def test_parse_division_lowering():
    assert parse("x1/(1+x1)^2") == RATIONAL


def test_parse_plain_division_uses_inv():
    assert parse("x2/x1") == Mul(Var(1), Inv(Var(0)))


def test_parse_unary_minus():
    e = parse("-x1")
    assert abs(evaluate(e, [2.0]) + 2.0) < 1e-15


def test_parse_precedence():
    e = parse("1+2*x1^2")
    assert abs(evaluate(e, [3.0]) - 19.0) < 1e-15


def test_parse_scientific_number():
    assert abs(evaluate(parse("2.5e-1"), [0.0]) - 0.25) < 1e-18


def test_parse_errors_carry_offset():
    for text in ("sin(", "x1 +", "1 ** 2", "foo(x1)", "x0"):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse(text)
        assert info.value.offset >= 0, text


def test_render_parse_round_trip():
    texts = [
        "x1",
        "sin(x1)*x2",
        "x1/(1+x1)^2",
        "1/(1+x1)",
        "-x1-0.1*x2",
        "cos(x3)^2*x2",
        "exp(x1)+2.5",
        "x2*sin(x1)",
        # A negated constant operand, and a 1* before a divisor.
        "-1*1e-3*x2",
        "-1*2",
        "x1 + -1*3",
        "-1*-2*x1",
        "1 * x2^-2",
        "1*(1/x1)",
    ]
    for text in texts:
        tree = parse(text)
        again = parse(render(tree))
        assert again == tree, f"{text} -> {render(tree)}"


@pytest.mark.parametrize("value, text", [(math.inf, "1e999"), (-math.inf, "-1e999")])
def test_render_parse_round_trip_of_an_infinite_constant(value, text):
    c = Const(value)
    for tree in (Add(Var(0), c), Add(c, Var(0)), Mul(Var(0), c), Mul(c, Var(0)),
                 Inv(c), Pow(c, 2)):
        assert text in render(tree)
        assert parse(render(tree)) == tree, render(tree)
    assert render(c) == text and parse(text) == c


def test_variables_collects_indices():
    assert variables(parse("sin(x1)*x3+x1")) == frozenset({0, 2})


def test_variables_of_deep_tree():
    e = Var(0)
    for k in range(1, 3000):
        e = Add(e, Var(k % 4))
    assert variables(e) == frozenset({0, 1, 2, 3})


# ---------------------------------------------------------------------------
# one-loop parser against the recursive descent it replaced


class _RecursiveParser:
    """The earlier parser: one method per grammar rule."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
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

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(
                "unexpected trailing input", tok.offset, "end of input or an operator")
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            node = Add(node, rhs if op == "+" else _negated(rhs))
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else _divide(node, rhs)
        return node

    def factor(self):
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

    def exponent(self):
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

    def base(self):
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


def _outcome(parser, text):
    """The tree ``parser`` returns for ``text``, or its error's message,
    offset and expected-token hint."""
    try:
        return parser(text)
    except ExpressionSyntaxError as error:
        return str(error), error.offset, error.expected


# Token pieces of the random strings; whitespace and a stray character go
# through the tokenizer too.
_PIECES = ["x1", "x2", "x3", "x0", "x01", "1", "0", "2.5", "1e3", "2E-1", "3", "10",
           "sin", "cos", "exp", "foo", "(", "(", "(", ")", ")", ")", "+", "-", "-",
           "*", "/", "^", "^", " ", "@"]


def _random_expression(rng, depth):
    """Well-formed text of nesting depth at most ``depth``."""
    pick = rng.integers(9 if depth > 0 else 3)
    if pick == 0:
        return f"x{rng.integers(1, 4)}"
    if pick == 1:
        return str(rng.choice(["0", "1", "2.5", "1e-3", "3", "0.5"]))
    if pick == 2:
        return f"({_random_expression(rng, depth - 1) if depth else 'x1'})"
    a, b = _random_expression(rng, depth - 1), _random_expression(rng, depth - 1)
    if pick < 7:
        return f"{a} {'+-*/'[pick - 3]} {b}"
    if pick == 7:
        return f"-{a}" if rng.random() < 0.5 else f"({a})^{rng.integers(-3, 4)}"
    return f"{rng.choice(['sin', 'cos', 'exp'])}({a})"


def test_parse_matches_recursive_parser_on_random_token_strings():
    rng = np.random.default_rng(31)
    parsed = 0
    for _ in range(20000):
        text = "".join(rng.choice(_PIECES, size=rng.integers(1, 12)))
        expected = _outcome(lambda t: _RecursiveParser(t).parse(), text)
        assert _outcome(parse, text) == expected, text
        parsed += isinstance(expected, Expr)
    assert parsed > 300


def test_parse_matches_recursive_parser_on_random_expressions():
    rng = np.random.default_rng(32)
    for _ in range(3000):
        text = _random_expression(rng, 6)
        tree = _RecursiveParser(text).parse()
        assert parse(text) == tree, text
        assert parse(render(tree)) == tree, text


def _depth(tree):
    """Length of the chain of last operands below ``tree``."""
    depth = 0
    while not isinstance(tree, (Const, Var)):
        tree, depth = _children(tree)[-1], depth + 1
    return depth


def test_parse_nesting_depth_is_unbounded():
    assert parse("(" * 20000 + "x1" + ")" * 20000) == Var(0)
    calls = parse("sin(" * 3000 + "x1" + ")" * 3000)
    assert _depth(calls) == 3000 and isinstance(calls, Sin)
    signs = parse("-" * 5000 + "x1")
    assert _depth(signs) == 5000 and signs.left == Const(-1.0)
    assert evaluate(signs, [2.0]) == 2.0
    assert parse("-" * 5001 + "2") == Const(-2.0)
    with pytest.raises(ExpressionSyntaxError, match="end of input at offset 6001"):
        parse("(" * 3000 + "x1" + ")" * 2999)


# ---------------------------------------------------------------------------
# compiled program against the recursive tree walkers it replaced
#
# The oracle is the earlier evaluator: a recursive value walk, and a
# forward-mode walk that carries a full (m, n) Jacobian at every node.


def _oracle_values(e, x):
    if isinstance(e, Const):
        return np.full(x.shape[0], e.value)
    if isinstance(e, Var):
        return x[:, e.index].copy()
    if isinstance(e, Add):
        return _oracle_values(e.left, x) + _oracle_values(e.right, x)
    if isinstance(e, Mul):
        return _oracle_values(e.left, x) * _oracle_values(e.right, x)
    if isinstance(e, Pow):
        return _oracle_values(e.base, x) ** e.exponent
    if isinstance(e, Sin):
        return np.sin(_oracle_values(e.arg, x))
    if isinstance(e, Cos):
        return np.cos(_oracle_values(e.arg, x))
    if isinstance(e, Exp):
        return np.exp(_oracle_values(e.arg, x))
    if isinstance(e, Inv):
        return 1.0 / _oracle_values(e.arg, x)
    raise TypeError(e)


def _oracle_duals(e, x):
    m, n = x.shape
    if isinstance(e, Const):
        return np.full(m, e.value), np.zeros((m, n))
    if isinstance(e, Var):
        dot = np.zeros((m, n))
        dot[:, e.index] = 1.0
        return x[:, e.index].copy(), dot
    if isinstance(e, Add):
        lv, ld = _oracle_duals(e.left, x)
        rv, rd = _oracle_duals(e.right, x)
        return lv + rv, ld + rd
    if isinstance(e, Mul):
        lv, ld = _oracle_duals(e.left, x)
        rv, rd = _oracle_duals(e.right, x)
        return lv * rv, lv[:, None] * rd + rv[:, None] * ld
    if isinstance(e, Pow):
        bv, bd = _oracle_duals(e.base, x)
        k = e.exponent
        if k == 0:
            return np.ones(m), np.zeros((m, n))
        return bv ** k, (k * bv ** (k - 1))[:, None] * bd
    if isinstance(e, Sin):
        av, ad = _oracle_duals(e.arg, x)
        return np.sin(av), np.cos(av)[:, None] * ad
    if isinstance(e, Cos):
        av, ad = _oracle_duals(e.arg, x)
        return np.cos(av), -np.sin(av)[:, None] * ad
    if isinstance(e, Exp):
        av, ad = _oracle_duals(e.arg, x)
        ev = np.exp(av)
        return ev, ev[:, None] * ad
    if isinstance(e, Inv):
        av, ad = _oracle_duals(e.arg, x)
        iv = 1.0 / av
        return iv, -(iv * iv)[:, None] * ad
    raise TypeError(e)


BUILTIN_DICTIONARIES = ["pendulum", "rational", "thomas9", "thomas15", "quartic",
                        "identity"]


def _dictionary_and_points(name, m=400):
    d = make_dictionary(name, **({"n": 3} if name == "identity" else {}))
    rng = np.random.default_rng(BUILTIN_DICTIONARIES.index(name))
    lo, hi = (0.0, 3.0) if name == "rational" else (-3.0, 3.0)
    points = rng.uniform(lo, hi, (m, d.state_dim))
    return d, points, rng.normal(size=(m, d.state_dim))


def _row_relative(a, b):
    """Largest difference per row, relative to the row's largest magnitude."""
    scale = np.maximum(np.abs(b).max(axis=-1, keepdims=True), np.finfo(float).tiny)
    return float((np.abs(a - b) / scale).max())


@pytest.mark.parametrize("name", BUILTIN_DICTIONARIES)
def test_lift_is_bit_equal_to_oracle(name):
    d, points, _ = _dictionary_and_points(name)
    expected = np.stack([_oracle_values(e, points) for e in d.basis])
    assert feature_matrix(d, points).tobytes() == expected.tobytes()
    for e, row in zip(d.basis, expected):
        assert Program((e,), d.state_dim).values(points)[0].tobytes() == row.tobytes()


@pytest.mark.parametrize("name", BUILTIN_DICTIONARIES)
def test_lifted_derivatives_match_oracle(name):
    d, points, direction = _dictionary_and_points(name)
    expected = np.stack([np.sum(_oracle_duals(e, points)[1] * direction, axis=1)
                         for e in d.basis])
    assert _row_relative(feature_time_derivatives(d, points, direction),
                         expected) <= 1e-14


@pytest.mark.parametrize("name", BUILTIN_DICTIONARIES)
def test_one_pass_lift_is_bit_equal_to_the_separate_passes(name):
    d, points, direction = _dictionary_and_points(name)
    values, tangents = feature_matrix_and_derivatives(d, points, direction)
    assert values.tobytes() == feature_matrix(d, points).tobytes()
    assert tangents.tobytes() == feature_time_derivatives(d, points, direction).tobytes()
    # Points of a wider state do not lift, even where the entries read only
    # the first coordinates.
    wide = np.ones((3, d.state_dim + 1))
    for lift in (feature_matrix_and_derivatives, feature_time_derivatives):
        with pytest.raises(ValueError, match=rf"expected shape \(m, {d.state_dim}\)"):
            lift(d, wide, wide)


@pytest.mark.parametrize("name", BUILTIN_DICTIONARIES)
def test_gradients_match_oracle(name):
    d, points, _ = _dictionary_and_points(name, m=50)
    for e in d.basis:
        expected = _oracle_duals(e, points)[1]
        got = Program((e,), d.state_dim).gradients(points)[1][0]
        assert _row_relative(got.T, expected.T) <= 1e-14
    for x in points[:5]:
        expected = np.stack([_oracle_duals(e, x[None, :])[1][0] for e in d.basis])
        assert _row_relative(jacobian(d, x), expected) <= 1e-14


def test_program_merges_structurally_equal_subtrees():
    # thomas15: 3 variables, 3 sines, 3 cosines and 6 products; the products
    # reuse the sines, cosines and variables of the other entries.
    d = make_dictionary("thomas15")
    assert len(d.program) == 15
    # Separately parsed, structurally equal trees share slots too.
    program = Program((parse("sin(x1)*x2"), parse("sin(x1)*x2"), parse("sin(x1)")), 2)
    assert len(program) == 4
    assert program.outputs[0] == program.outputs[1]
    # Equal floats of opposite sign are different constants.
    assert len(Program((Const(0.0), Const(-0.0)), 1)) == 2


def test_domain_error_names_offending_subtree():
    pole = Inv(Add(Var(0), Const(-1.0)))
    d = Dictionary(1, (Var(0), Mul(Var(0), pole), Add(Const(2.0), pole)))
    with pytest.raises(EvaluationDomainError) as info:
        feature_matrix(d, [[0.5], [1.0]])
    assert info.value.node == pole
    assert "1/(x1-1)" in str(info.value)
    with pytest.raises(EvaluationDomainError) as info:
        Program((Pow(Sin(Var(1)), -2),), 2).gradients(np.zeros((3, 2)))
    assert info.value.node == Pow(Sin(Var(1)), -2)
    assert "sin(x2)^-2" in str(info.value)


def test_evaluate_many_of_variable_is_a_copy():
    points = np.arange(6.0).reshape(3, 2)
    out = Program((Var(1),), 2).values(points)[0]
    assert not np.shares_memory(out, points)
    out[0] = -1.0
    assert points[0, 1] == 1.0


# A point and a batch of a 3-D state, passed to 2-D programs whose trees read
# only x1 and x2.
PENDULUM, PENDULUM_FIELD = make_dictionary("pendulum"), make_system("pendulum")
POINT, BATCH = np.ones(3), np.ones((4, 3))
POINT_TEXT = r"^expected shape \(2,\), got \(3,\)$"
BATCH_TEXT = r"^expected shape \(m, 2\), got \(4, 3\)$"
WRONG_SHAPES = {
    "feature_map": (lambda: feature_map(PENDULUM, POINT), POINT_TEXT),
    "feature_matrix": (lambda: feature_matrix(PENDULUM, BATCH), BATCH_TEXT),
    "feature_time_derivatives": (
        lambda: feature_time_derivatives(PENDULUM, BATCH, BATCH), BATCH_TEXT),
    "feature_matrix_and_derivatives": (
        lambda: feature_matrix_and_derivatives(PENDULUM, BATCH, BATCH), BATCH_TEXT),
    "jacobian": (lambda: jacobian(PENDULUM, POINT), POINT_TEXT),
    "VectorField.__call__": (lambda: PENDULUM_FIELD(POINT), POINT_TEXT),
    "VectorField.many": (lambda: PENDULUM_FIELD.many(BATCH), BATCH_TEXT),
    "Program.point": (lambda: PENDULUM.program.point(POINT), POINT_TEXT),
    "Program.values": (lambda: PENDULUM.program.values(BATCH), BATCH_TEXT),
    "Program.tangents": (lambda: PENDULUM.program.tangents(BATCH, BATCH), BATCH_TEXT),
    "Program.values_and_tangents": (
        lambda: PENDULUM.program.values_and_tangents(BATCH, BATCH), BATCH_TEXT),
    "Program.gradients": (lambda: PENDULUM.program.gradients(BATCH), BATCH_TEXT),
    # The state dimension of one point is its size; gradient passes it on
    # as a batch of one.
    "evaluate": (lambda: evaluate(Var(0), np.ones((1, 2))),
                 r"^expected shape \(2,\), got \(1, 2\)$"),
    "gradient": (lambda: gradient(Var(0), np.ones((1, 2))),
                 r"^expected shape \(m, 2\), got \(1, 1, 2\)$"),
}


@pytest.mark.parametrize("entry", WRONG_SHAPES)
def test_every_entry_rejects_a_wrong_shape(entry):
    call, shown = WRONG_SHAPES[entry]
    with pytest.raises(ValueError, match=shown):
        call()


@pytest.mark.parametrize("lift", [feature_time_derivatives, feature_matrix_and_derivatives])
def test_a_direction_must_match_its_points(lift):
    points = np.ones((4, 2))
    for direction in (np.ones((4, 3)), np.ones((3, 2)), np.ones(2)):
        shown = f"direction {direction.shape} does not match points (4, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(shown)}$"):
            lift(PENDULUM, points, direction)


def test_long_entry_lifts_without_recursion_error():
    # A 1500-term sum nests Add 1500 deep, beyond the interpreter's
    # default recursion limit.
    powers = np.arange(1500) % 4
    text = "+".join(f"{k + 1}*x1^{p}*sin(x2)" for k, p in enumerate(powers))
    d = Dictionary.from_strings(2, [text, "x1"])
    rng = np.random.default_rng(7)
    points = rng.uniform(-1.0, 1.0, (20, 2))
    direction = rng.normal(size=(20, 2))
    x1, x2 = points[:, 0], points[:, 1]
    coef = np.arange(1.0, 1501.0)[:, None]
    expected = np.sum(coef * x1 ** powers[:, None], axis=0) * np.sin(x2)
    d_dx1 = np.sum(coef * powers[:, None] * x1 ** np.maximum(powers - 1, 0)[:, None],
                   axis=0) * np.sin(x2)
    d_dx2 = np.sum(coef * x1 ** powers[:, None], axis=0) * np.cos(x2)
    z = feature_matrix(d, points)
    assert _row_relative(z[0], expected) <= 1e-12
    rate = feature_time_derivatives(d, points, direction)
    assert _row_relative(rate[0], d_dx1 * direction[:, 0] + d_dx2 * direction[:, 1]) <= 1e-12
    jac = jacobian(d, points[0])
    assert _row_relative(jac[0], np.array([d_dx1[0], d_dx2[0]])) <= 1e-12
    assert np.array_equal(jac[1], [1.0, 0.0])


def test_long_entry_runs_at_one_point_with_bounded_nesting():
    d = Dictionary.from_strings(2, [_long_entry_text(), "x1"])
    points = np.random.default_rng(7).uniform(-1.0, 1.0, (20, 2))
    z = feature_matrix(d, points)
    for x, column in zip(points, z.T):
        assert d.program.point(x).tobytes() == column.tobytes()
    # Inlining stops at a bounded depth, far below the parser's ~200 levels.
    for binding in ("values", "tangents", "gradients"):
        depth = deepest = 0
        for char in d.program.source(binding):
            depth += (char == "(") - (char == ")")
            deepest = max(deepest, depth)
        assert deepest < 50


# ---------------------------------------------------------------------------
# emitted source and its four bindings
#
# The reference for the array bindings is the interpreter they replaced: a
# loop over the instruction list that computes every slot as an (m,) array,
# and a second loop that carries every slot's tangent.


def _interpreted_slots(program, x):
    m = x.shape[0]
    vals = []
    for _, args, _, node, _ in program._instrs:
        a = [vals[i] for i in args]
        if isinstance(node, Const):
            v = np.full(m, node.value)
        elif isinstance(node, Var):
            v = x[:, node.index].copy()
        elif isinstance(node, Add):
            v = a[0] + a[1]
        elif isinstance(node, Mul):
            v = a[0] * a[1]
        elif isinstance(node, Pow):
            v = a[0] ** node.exponent
        elif isinstance(node, Sin):
            v = np.sin(a[0])
        elif isinstance(node, Cos):
            v = np.cos(a[0])
        elif isinstance(node, Exp):
            v = np.exp(a[0])
        else:
            v = 1.0 / a[0]
        vals.append(v)
    return vals


def _interpreted_values(program, x):
    vals = _interpreted_slots(program, x)
    return np.stack([vals[s] for s in program.outputs])


def _interpreted_tangents(program, vals, seeds):
    """Slot tangents given ``seeds[j]``, the tangent of x_{j+1}; None stands
    for an identically zero tangent."""
    tans = []
    for slot, (_, args, _, node, partner) in enumerate(program._instrs):
        if isinstance(node, Mul):
            a, b = args
            ta, tb = tans[a], tans[b]
            if ta is None:
                t = None if tb is None else vals[a] * tb
            elif tb is None:
                t = vals[b] * ta
            else:
                t = vals[a] * tb + vals[b] * ta
        elif isinstance(node, Add):
            ta, tb = tans[args[0]], tans[args[1]]
            t = tb if ta is None else ta if tb is None else ta + tb
        elif isinstance(node, Var):
            t = seeds[node.index]
        elif isinstance(node, Const):
            t = None
        else:
            ta = tans[args[0]]
            if ta is None:
                t = None
            elif isinstance(node, Pow):
                k = node.exponent
                t = None if k == 0 else (k * vals[args[0]] ** (k - 1)) * ta
            elif isinstance(node, Sin):
                cos = vals[partner] if partner is not None else np.cos(vals[args[0]])
                t = cos * ta
            elif isinstance(node, Cos):
                sin = vals[partner] if partner is not None else np.sin(vals[args[0]])
                t = -sin * ta
            elif isinstance(node, Exp):
                t = vals[slot] * ta
            else:
                t = -(vals[slot] * vals[slot]) * ta
        tans.append(t)
    return tans


def _gathered(program, slot_values, m):
    out = np.empty((len(program.outputs), m))
    for r, slot in enumerate(program.outputs):
        out[r] = 0.0 if slot_values[slot] is None else slot_values[slot]
    return out


def _interpreted_gradients(program, x):
    """One interpreted unit-direction tangent pass per coordinate."""
    m, n = x.shape
    vals = _interpreted_slots(program, x)
    grads = np.empty((len(program.outputs), m, n))
    for j in range(n):
        seeds = [None] * n
        seeds[j] = np.ones(m)
        grads[:, :, j] = _gathered(program, _interpreted_tangents(program, vals, seeds), m)
    return grads


def _off_finite_points(n):
    """Points where exp and powers overflow: 800 and 1e200, mixed."""
    return np.array([[800.0] * n, [1e200] * n, [-800.0] * n,
                     ([800.0, 1e200, -1e200] * n)[:n]])


# exp, positive and negative powers, reciprocals, shared and constant
# subexpressions, and outputs that are a variable or a constant.
POINT_CORPUS = [
    "exp(x1)*x2", "exp(-x1^2/2)/x2", "x1^3 - x2^-2", "x2^-1 + x1^2", "(x1*x2)^-3",
    "1/(x1 + 2*x2)", "sin(x1)^2 + cos(x2)^-1", "x1^5*exp(x2) - x2^4",
    "2^3*x1 + sin(2) - 1/(1+1)", "-x1/(1+x2^2)", "x2", "3", "x1^0*x2",
    "exp(sin(x1)*cos(x2))/(1 + x1^2)^2",
]
SYSTEMS = ["pendulum", "rational", "thomas", "quartic", "quartic-coupled", "mean-field"]


def _programs_and_points(m=10_000):
    """(label, program, points) of every builtin dictionary and system and of
    the corpus; rational ones are sampled away from their pole at x = -1."""
    rng = np.random.default_rng(11)
    cases = []
    for name in BUILTIN_DICTIONARIES:
        d = make_dictionary(name, **({"n": 3} if name == "identity" else {}))
        cases.append((name, d.program, d.state_dim))
    for name in SYSTEMS:
        field = make_system(name)
        cases.append((f"system {name}", field.program, field.n))
    cases.append(("corpus", Program((parse(t) for t in POINT_CORPUS), 2), 2))
    return [(label, program,
             rng.uniform(0.0, 3.0, (m, n)) if "rational" in label
             else rng.uniform(-3.0, 3.0, (m, n)))
            for label, program, n in cases]


def test_float_binding_is_bit_equal_to_the_array_binding():
    for label, program, points in _programs_and_points():
        at_points = np.stack([program.point(x) for x in points], axis=1)
        assert at_points.tobytes() == program.values(points).tobytes(), label


def test_array_bindings_are_bit_equal_to_the_interpreter():
    for label, program, points in _programs_and_points(m=2000):
        expected = _interpreted_values(program, points).tobytes()
        assert program.values(points).tobytes() == expected, label
        values, _ = program.values_and_tangents(points, points)
        assert values.tobytes() == expected, label
        by_point = program.values(points, per_point=True)
        assert by_point.flags.c_contiguous
        assert by_point.T.tobytes(order="C") == expected, label


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_tangent_bindings_are_bit_equal_to_the_interpreter():
    rng = np.random.default_rng(3)
    for label, program, points in _programs_and_points(m=2000):
        n = points.shape[1]
        for x in (points, _off_finite_points(n)):
            m = x.shape[0]
            direction = rng.normal(size=x.shape)
            vals = _interpreted_slots(program, x)
            seeds = [direction[:, j].copy() for j in range(n)]
            expected = _gathered(program, _interpreted_tangents(program, vals, seeds), m)
            assert program.tangents(x, direction).tobytes() == expected.tobytes(), label
            values, tangents = program.values_and_tangents(x, direction)
            assert values.tobytes() == _gathered(program, vals, m).tobytes(), label
            assert tangents.tobytes() == expected.tobytes(), label
            grad_values, grads = program.gradients(x)
            assert grad_values.tobytes() == values.tobytes(), label
            assert grads.tobytes() == _interpreted_gradients(program, x).tobytes(), label
            # A coordinate an output does not read has an exact zero
            # derivative, even where the output overflows.
            for k, slot in enumerate(program.outputs):
                for j in set(range(n)) - variables(program._instrs[slot][3]):
                    assert np.all(grads[k, :, j] == 0.0), (label, k, j)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("name", BUILTIN_DICTIONARIES)
def test_jacobian_and_gradient_are_bit_equal_to_the_interpreter(name):
    d, points, _ = _dictionary_and_points(name, m=5)
    for x in [*points, *_off_finite_points(d.state_dim)]:
        expected = _interpreted_gradients(d.program, x[None, :])[:, 0, :]
        assert jacobian(d, x).tobytes() == expected.tobytes(), x
        for e, row in zip(d.basis, expected):
            assert gradient(e, x).tobytes() == row.tobytes(), (x, e)


def test_lifted_derivatives_peak_memory():
    # thomas15: 15 entries over 15 slots.  Only the output tangents outlive
    # the compiled call of feature_time_derivatives, and the output values are
    # freed before feature_matrix_and_derivatives gathers the tangents.
    d = make_dictionary("thomas15")
    m = 20_000
    rng = np.random.default_rng(4)
    points, direction = rng.uniform(-3.0, 3.0, (m, 3)), rng.normal(size=(m, 3))
    table = d.size * m * 8
    for lift, bound in ((feature_time_derivatives, 2.2),
                        (feature_matrix_and_derivatives, 3.1)):
        lift(d, points, direction)  # compiles the binding
        tracemalloc.start()
        try:
            lift(d, points, direction)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * table, (lift.__name__, peak / table)


def test_batch_calls_hold_their_result_plus_one_block():
    # m spans 12 blocks: each call's peak is its result and one block's
    # slots, and feature_matrix_and_derivatives holds its two results, as
    # gradients holds its values and its (K, m, n) gradients.  One
    # whole-batch evaluation held every slot's column beside its result:
    # 1.8, 2.07, 3.0, 2.0 and 1.57 here.
    d, field = make_dictionary("thomas15"), make_system("thomas")
    m = 100_000
    rng = np.random.default_rng(4)
    points, direction = rng.uniform(-3.0, 3.0, (m, 3)), rng.normal(size=(m, 3))
    table = d.size * m * 8
    for call, result, bound in (
            (lambda: feature_matrix(d, points), table, 1.15),
            (lambda: feature_time_derivatives(d, points, direction), table, 1.25),
            (lambda: feature_matrix_and_derivatives(d, points, direction), table, 2.25),
            (lambda: exact_derivatives(field, points), points.nbytes, 1.25),
            (lambda: d.program.gradients(points), (1 + d.state_dim) * table, 1.15)):
        call()  # compiles the binding
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * result, (bound, peak / result)


def _one_block(program, binding, *arrays):
    """``binding`` run once on the whole of ``arrays``, as one block: the
    outputs it writes (the values, then each tangent set) as (K, m)."""
    m, k = len(arrays[0]), len(program.outputs)
    if binding == "gradients":
        values, grads = np.empty((k, m)), np.zeros((k, m, program.n))
        program._bound(binding)(*arrays, values, grads)
        return [values, *(grads[:, :, j] for j in sorted(program.variables))]
    outs = [np.empty((k, m)) for _ in range(1 if binding == "values" else 2)]
    program._bound(binding)(*arrays, *outs)
    return outs


def _sliced(program, binding, *arrays):
    """The row lists of ``binding`` evaluated block by block, each block of
    BLOCK rows alone, and joined along the points."""
    m = len(arrays[0])
    blocks = [_one_block(program, binding, *(a[start:start + BLOCK] for a in arrays))
              for start in range(0, max(m, 1), BLOCK)]
    return [np.concatenate(parts, axis=1) for parts in zip(*blocks)]


@pytest.mark.parametrize("m", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
def test_batch_calls_are_bit_equal_across_block_boundaries(m):
    rng = np.random.default_rng(m)
    for label, program in (("thomas15", make_dictionary("thomas15").program),
                           ("pendulum", make_dictionary("pendulum").program),
                           ("corpus", Program((parse(t) for t in POINT_CORPUS), 2)),
                           ("no trees", Program((), 2))):
        n = program.n
        x, v = rng.uniform(-3.0, 3.0, (m, n)), rng.normal(size=(m, n))
        for binding, arrays in (("values", (x,)), ("tangents", (x, v)),
                                ("gradients", (x,))):
            whole = _one_block(program, binding, *arrays)
            for got, want in zip(_sliced(program, binding, *arrays), whole):
                assert got.tobytes() == want.tobytes(), (label, binding)
        (values,), (tangents,) = _one_block(program, "values", x), _one_block(
            program, "tangents", x, v)[1:]
        assert program.values(x).tobytes() == values.tobytes(), label
        by_point = program.values(x, per_point=True)
        assert by_point.shape == (m, len(program.outputs)) and by_point.flags.c_contiguous
        assert by_point.tobytes() == values.T.tobytes(), label
        assert program.tangents(x, v).tobytes() == tangents.tobytes(), label
        both = program.values_and_tangents(x, v)
        assert [a.tobytes() for a in both] == [values.tobytes(), tangents.tobytes()]
        grad_values, *sets = _one_block(program, "gradients", x)
        got_values, grads = program.gradients(x)
        assert got_values.tobytes() == grad_values.tobytes(), label
        assert grads.shape == (len(program.outputs), m, n)
        for j, tans in zip(sorted(program.variables), sets):
            assert grads[:, :, j].tobytes() == tans.tobytes(), (label, j)


def test_a_pole_in_the_last_block_raises_naming_its_node():
    text = "x2 + 1/(x1 - 1)"
    program, pole = Program((Var(0), parse(text)), 2), parse(text).right
    points = np.tile([0.5, 2.0], (2 * BLOCK + 7, 1))
    points[-1, 0] = 1.0
    assert np.isfinite(program.values(points[:2 * BLOCK])).all()
    for call in (lambda: program.values(points),
                 lambda: program.values(points, per_point=True),
                 lambda: program.tangents(points, points),
                 lambda: program.values_and_tangents(points, points),
                 lambda: program.gradients(points)):
        with pytest.raises(EvaluationDomainError, match="division by zero") as info:
            call()
        assert info.value.node == pole


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_float_binding_matches_the_array_binding_off_the_finite_range():
    # math.sin(inf) raises where NumPy returns nan, and exp or a power may
    # overflow: one point still gives what a one-row batch gives.
    program = Program((parse(t) for t in POINT_CORPUS + ["sin(x1) + cos(x2)"]), 2)
    for x in ([np.inf, 1.0], [1.0, -np.inf], [np.nan, 2.0], [800.0, 1e200],
              [-1e300, 1e-300]):
        x = np.array(x)
        assert np.array_equal(program.point(x), program.values(x[None, :])[:, 0],
                              equal_nan=True), x


@pytest.mark.parametrize("text, message", [
    ("x2 + 1/(x1 - 1)", "division by zero"),
    ("x2*(x1 - 1)^-2", "zero raised to a negative power"),
])
def test_domain_errors_name_the_node_in_every_binding(text, message):
    program = Program((Var(0), parse(text)), 2)
    pole = parse(text).right
    points = np.array([[0.5, 2.0], [1.0, 2.0]])
    for call in (lambda: program.point(points[1]), lambda: program.values(points),
                 lambda: program.tangents(points, points),
                 lambda: program.gradients(points)):
        with pytest.raises(EvaluationDomainError, match=message) as info:
            call()
        assert info.value.node == pole
    assert program.point(points[0]).tobytes() == program.values(points[:1])[:, 0].tobytes()


def test_source_inlines_single_use_slots_and_names_shared_ones():
    program = Program((parse("(x1*x2 + 1)*x3"), parse("sin(x1)*sin(x1) + 1/x2")), 3)
    lines = program.source("values").splitlines()
    # Every intermediate of the first tree is read once: one nested expression.
    assert "    out[0] = (((x0 * x1) + 1.0) * x2)" in lines
    # sin(x1) is read twice and gets a local; the reciprocal's operand is
    # tested for zero first.
    assert sum(line.strip().startswith("v") for line in lines) == 1
    assert any("_sin(x0)" in line and "=" in line for line in lines)
    assert any(line.strip().startswith("if _any(x1 == 0.0)") for line in lines)
    # The tangent binding names every slot value that is not a variable or a
    # constant.  The constant 1.0 (slot 3) has no tangent statement, and the
    # sum x1*x2 + 1 (slot 4) reuses the tangent of x1*x2.
    tangent_lines = [line.strip() for line in program.source("tangents").splitlines()]
    assert sum(line.startswith("v") for line in tangent_lines) == len(program) - 4
    assert not [line for line in tangent_lines if line.startswith(("t3 ", "t4 "))]
    assert "t6 = v4 * d2 + x2 * t2" in tangent_lines
    assert tangent_lines[-5:] == ["if out is not None:", "out[0] = v6", "out[1] = v10",
                                  "tout[0] = t6", "tout[1] = t10"]


def test_bindings_compile_once_under_concurrent_first_use():
    workers = 8
    program = Program((parse(t) for t in POINT_CORPUS), 2)
    points = np.random.default_rng(5).uniform(-2.0, 2.0, (50, 2))
    expected = _interpreted_values(program, points)
    barrier = threading.Barrier(workers)

    def first_use(_):
        barrier.wait(timeout=30)
        column = program.point(points[0])
        values = program.values(points)
        values_too, _ = program.values_and_tangents(points, points)
        return ([id(program._bound(b)) for b in ("values", "tangents")],
                column, values, values_too)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = [f.result(timeout=60)
                       for f in [pool.submit(first_use, k) for k in range(workers)]]
    finally:
        sys.setswitchinterval(interval)
    assert len({tuple(ids) for ids, *_ in results}) == 1
    for _, column, values, values_too in results:
        assert column.tobytes() == expected[:, 0].tobytes()
        assert values.tobytes() == expected.tobytes()
        assert values_too.tobytes() == expected.tobytes()


@pytest.mark.parametrize("binding", ["values", "tangents", "gradients", "rk4"])
def test_a_compiled_binding_dies_with_its_program(binding):
    # A binding whose globals held the binding itself was a reference cycle,
    # which only the cyclic collector freed.
    gc.disable()
    try:
        program = make_system("thomas").program
        compiled = weakref.ref(program._bound(binding))
        del program
        assert compiled() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# iterative renderer against the recursive one it replaced


def _oracle_prec(e):
    if isinstance(e, Const):
        return 4 if e.value >= 0 else 2
    if isinstance(e, Add):
        return 1
    if isinstance(e, (Mul, Inv)):
        return 2
    if isinstance(e, Pow):
        return 3
    return 4


def _oracle_render(e, min_prec=1):
    text = _oracle_render_node(e)
    return f"({text})" if _oracle_prec(e) < min_prec else text


def _oracle_const(v):
    return str(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)


def _oracle_render_node(e):
    if isinstance(e, Const):
        return _oracle_const(e.value)
    if isinstance(e, Var):
        return f"x{e.index + 1}"
    if isinstance(e, Add):
        left = _oracle_render(e.left, 1)
        right = e.right
        if isinstance(right, Const) and right.value < 0:
            return f"{left}-{_oracle_render(Const(-right.value), 2)}"
        if isinstance(right, Mul) and right.left == Const(-1.0):
            return f"{left}-{_oracle_render(right.right, 2)}"
        return f"{left}+{_oracle_render(right, 2)}"
    if isinstance(e, Mul):
        if e.left == Const(-1.0):
            return f"-{_oracle_render(e.right, 4)}"
        if isinstance(e.right, Inv):
            return f"{_oracle_render(e.left, 2)}/{_oracle_render(e.right.arg, 4)}"
        if isinstance(e.right, Pow) and e.right.exponent < 0:
            flipped = Pow(e.right.base, -e.right.exponent)
            return f"{_oracle_render(e.left, 2)}/{_oracle_render(flipped, 3)}"
        return f"{_oracle_render(e.left, 2)}*{_oracle_render(e.right, 3)}"
    if isinstance(e, Pow):
        return f"{_oracle_render(e.base, 4)}^{e.exponent}"
    if isinstance(e, Inv):
        return f"1/{_oracle_render(e.arg, 4)}"
    if isinstance(e, Sin):
        return f"sin({_oracle_render_node(e.arg)})"
    if isinstance(e, Cos):
        return f"cos({_oracle_render_node(e.arg)})"
    if isinstance(e, Exp):
        return f"exp({_oracle_render_node(e.arg)})"
    raise TypeError(e)


RENDER_CORPUS = [
    "x1", "sin(x1)*x2", "x1/(1+x1)^2", "1/(1+x1)", "-x1-0.1*x2",
    "cos(x3)^2*x2", "exp(x1)+2.5", "x2*sin(x1)", "x1-(x2-x3)", "-(x1+x2)*x3",
    "(x1*x2)^3", "x1^-2", "sin(x1+x2)*cos(-x1)", "exp(-x1^2/2)", "2.5e-1*x1",
    "1e20*x2", "x1/x2/x3", "-3+x1", "x2*x1^2", "x1*(x2+x3)", "x1*(x2*x3)",
    "sin(x1)*cos(x2)^2",
]


@pytest.mark.parametrize("name", BUILTIN_DICTIONARIES)
def test_render_matches_recursive_oracle_on_builtins(name):
    d = make_dictionary(name, **({"n": 3} if name == "identity" else {}))
    for e in d.basis:
        assert render(e) == _oracle_render(e)


def test_render_matches_recursive_oracle_on_corpus():
    trees = [parse(text) for text in RENDER_CORPUS]
    trees += [Add(Var(0), Const(-2.0)), Mul(Const(-1.0), Add(Var(0), Var(1))),
              Mul(Var(0), Pow(Var(1), -3)), Const(-0.5), Pow(Const(-2.0), 2),
              Sin(Add(Var(0), Var(1))), Inv(Mul(Var(0), Var(1)))]
    for tree in trees:
        assert render(tree) == _oracle_render(tree)
        assert str(tree) == _oracle_render(tree)


def _long_entry_text():
    powers = np.arange(1500) % 4
    return "+".join(f"{k + 1}*x1^{p}*sin(x2)" for k, p in enumerate(powers))


def test_long_entry_renders_builds_and_saves(tmp_path):
    from qendy.dictionary import load_dictionary, save_dictionary
    text = _long_entry_text()
    tree = parse(text)
    assert render(tree) == text
    # Names come from rendering when none are given.
    d = Dictionary(2, (tree, Var(0), Var(1)))
    assert d.names == (text, "x1", "x2")
    path = tmp_path / "dictionary.json"
    save_dictionary(d, path)
    loaded, g = load_dictionary(path)
    assert g is None
    assert loaded.names == d.names
