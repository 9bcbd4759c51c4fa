"""Expression AST: compiled evaluation, tangent-pass gradients, parser,
renderer."""

import math

import numpy as np
import pytest

from qendy.dictionary import (
    Dictionary, feature_matrix, feature_matrix_and_derivatives, feature_time_derivatives,
    jacobian,
)
from qendy.expr import (
    Add, Const, Cos, EvaluationDomainError, Exp, ExpressionSyntaxError, Inv,
    Mul, Pow, Program, Sin, Var, evaluate, evaluate_many, gradient,
    gradient_many, parse, render, variables,
)
from qendy.systems import make_dictionary

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
    batch = evaluate_many(RATIONAL, pts)
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


def test_gradient_many_matches_per_point():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-1, 1, size=(25, 2))
    batch = gradient_many(Sin(Mul(Var(0), Var(1))), pts)
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
    ]
    for text in texts:
        tree = parse(text)
        again = parse(render(tree))
        assert again == tree, f"{text} -> {render(tree)}"


def test_variables_collects_indices():
    assert variables(parse("sin(x1)*x3+x1")) == frozenset({0, 2})


def test_variables_of_deep_tree():
    e = Var(0)
    for k in range(1, 3000):
        e = Add(e, Var(k % 4))
    assert variables(e) == frozenset({0, 1, 2, 3})


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
        assert evaluate_many(e, points).tobytes() == row.tobytes()


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
    with pytest.raises(ValueError, match="expected shape"):
        wide = np.ones((3, d.state_dim + 1))
        feature_matrix_and_derivatives(d, wide, wide)


@pytest.mark.parametrize("name", BUILTIN_DICTIONARIES)
def test_gradients_match_oracle(name):
    d, points, _ = _dictionary_and_points(name, m=50)
    for e in d.basis:
        expected = _oracle_duals(e, points)[1]
        assert _row_relative(gradient_many(e, points).T, expected.T) <= 1e-14
    for x in points[:5]:
        expected = np.stack([_oracle_duals(e, x[None, :])[1][0] for e in d.basis])
        assert _row_relative(jacobian(d, x), expected) <= 1e-14


def test_program_merges_structurally_equal_subtrees():
    # thomas15: 3 variables, 3 sines, 3 cosines and 6 products; the products
    # reuse the sines, cosines and variables of the other entries.
    d = make_dictionary("thomas15")
    assert len(d.program) == 15
    # Separately parsed, structurally equal trees share slots too.
    program = Program((parse("sin(x1)*x2"), parse("sin(x1)*x2"), parse("sin(x1)")))
    assert len(program) == 4
    assert program.outputs[0] == program.outputs[1]
    # Equal floats of opposite sign are different constants.
    assert len(Program((Const(0.0), Const(-0.0)))) == 2


def test_domain_error_names_offending_subtree():
    pole = Inv(Add(Var(0), Const(-1.0)))
    d = Dictionary(1, (Var(0), Mul(Var(0), pole), Add(Const(2.0), pole)))
    with pytest.raises(EvaluationDomainError) as info:
        feature_matrix(d, [[0.5], [1.0]])
    assert info.value.node == pole
    assert "1/(x1-1)" in str(info.value)
    with pytest.raises(EvaluationDomainError) as info:
        gradient_many(Pow(Sin(Var(1)), -2), np.zeros((3, 2)))
    assert info.value.node == Pow(Sin(Var(1)), -2)
    assert "sin(x2)^-2" in str(info.value)


def test_evaluate_many_of_variable_is_a_copy():
    points = np.arange(6.0).reshape(3, 2)
    out = evaluate_many(Var(1), points)
    assert not np.shares_memory(out, points)
    out[0] = -1.0
    assert points[0, 1] == 1.0


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
