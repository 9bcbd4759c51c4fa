"""Feature maps, Jacobians, the quadratically augmented basis, and G."""

import json
import math

import numpy as np
import pytest

from qendy.dictionary import (
    AugmentedBasis, ConfigurationError, Dictionary, augment, dictionary_from_json,
    dictionary_to_json, feature_map, feature_matrix, full_state_matrix, jacobian,
    load_dictionary, save_dictionary, write_json,
)
from qendy.expr import Var
from qendy.systems import (
    pendulum_dictionary, rational_dictionary, thomas_dictionary,
)


def test_feature_map_pendulum():
    z = feature_map(pendulum_dictionary(), [0.0, 1.0])
    assert np.abs(z - np.array([0.0, 1.0, 0.0, 1.0])).max() < 1e-15


def test_feature_map_rational():
    z = feature_map(rational_dictionary(), [1.0])
    assert np.abs(z - np.array([1.0, 0.5, 0.25])).max() < 1e-15


def test_feature_map_thomas_at_origin():
    z = feature_map(thomas_dictionary(), [0.0, 0.0, 0.0])
    expected = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1], dtype=float)
    assert np.abs(z - expected).max() < 1e-15


def test_feature_matrix_stacks_columns():
    d = pendulum_dictionary()
    pts = np.array([[0.0, 1.0], [0.5, -0.5], [1.0, 2.0]])
    mat = feature_matrix(d, pts)
    assert mat.shape == (4, 3)
    for k in range(3):
        assert np.abs(mat[:, k] - feature_map(d, pts[k])).max() < 1e-15


def test_jacobian_pendulum():
    d = pendulum_dictionary()
    for x1, x2 in [(0.0, 1.0), (0.7, -0.3), (-1.2, 0.4)]:
        j = jacobian(d, [x1, x2])
        expected = np.array([
            [1.0, 0.0],
            [0.0, 1.0],
            [math.cos(x1), 0.0],
            [-math.sin(x1), 0.0],
        ])
        assert np.abs(j - expected).max() < 1e-14


def test_jacobian_single_variable():
    d = Dictionary.from_strings(1, ["x1"])
    assert np.abs(jacobian(d, [5.0]) - np.array([[1.0]])).max() == 0.0


def test_jacobian_rational_at_zero():
    j = jacobian(rational_dictionary(), [0.0])
    # d/dx [x, 1/(1+x), x/(1+x)^2] at 0 = [1, -1, 1]
    assert np.abs(j - np.array([[1.0], [-1.0], [1.0]])).max() < 1e-14


def test_augment_single_function():
    d = Dictionary.from_strings(1, ["x1"])
    aug = augment(d)
    assert len(aug.exprs()) == 3
    z = feature_map(aug.as_dictionary(), [2.0])
    assert np.abs(z - np.array([4.0, 2.0, 1.0])).max() < 1e-15


def test_augment_two_functions_ordering():
    d = Dictionary.from_strings(1, ["x1", "x1^2"])
    aug = augment(d)
    assert len(aug.exprs()) == 7
    x = [3.0]
    base = feature_map(d, x)
    z = feature_map(aug.as_dictionary(), x)
    # product block row-major: (1,1), (1,2), (2,1), (2,2), then singles, then 1
    expected = np.array([
        base[0] * base[0], base[0] * base[1], base[1] * base[0],
        base[1] * base[1], base[0], base[1], 1.0,
    ])
    assert np.abs(z - expected).max() < 1e-12


def test_augment_pendulum_product_entry():
    d = pendulum_dictionary()
    aug = augment(d)
    assert len(aug.exprs()) == 21
    z = feature_map(aug.as_dictionary(), [0.0, 1.0])
    # pair (2,4) is x2*cos(x1) = 1 at [0,1], at flat position N*i + j
    assert abs(z[4 * 1 + 3] - 1.0) < 1e-15


def test_augment_product_block_consistency():
    """Product entry (i1,i2) always equals phi_i1 * phi_i2."""
    d = thomas_dictionary()
    aug = augment(d)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=3)
        base = feature_map(d, x)
        z = feature_map(aug.as_dictionary(), x)
        for i in range(9):
            for j in range(9):
                assert abs(z[9 * i + j] - base[i] * base[j]) < 1e-12
    assert abs(z[-1] - 1.0) == 0.0


def test_full_state_matrix_pendulum():
    g = full_state_matrix(pendulum_dictionary())
    expected = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    assert np.array_equal(g, expected)


def test_full_state_matrix_rational():
    g = full_state_matrix(rational_dictionary())
    assert np.array_equal(g, np.array([[1.0, 0.0, 0.0]]))


def test_full_state_matrix_missing_coordinate():
    d = Dictionary.from_strings(1, ["sin(x1)"])
    with pytest.raises(ConfigurationError) as info:
        full_state_matrix(d)
    assert "x1" in str(info.value)


def test_full_state_matrix_exactness():
    d = pendulum_dictionary()
    g = full_state_matrix(d)
    rng = np.random.default_rng(6)
    for _ in range(30):
        x = rng.uniform(-3, 3, size=2)
        assert np.abs(g @ feature_map(d, x) - x).max() == 0.0


def test_full_state_matrix_override_validated():
    d = pendulum_dictionary()
    good = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    out = full_state_matrix(d, override=good)
    assert np.array_equal(out, good)
    bad = np.array([[0, 0, 1, 0], [0, 1, 0, 0]], dtype=float)
    with pytest.raises(ConfigurationError):
        full_state_matrix(d, override=bad)


def test_dictionary_validates_variable_range():
    with pytest.raises(ConfigurationError,
                       match=r"^basis entry 0 \(x2\) references x2 but state dimension is 1$"):
        Dictionary.from_strings(1, ["x2"])
    with pytest.raises(ConfigurationError,
                       match=r"^basis entry 1 \(x4\*x3\) references x3 but state dimension is 2$"):
        Dictionary.from_strings(2, ["x1", "x4*x3", "x5"])


def test_json_round_trip(tmp_path):
    d = rational_dictionary()
    path = tmp_path / "dict.json"
    write_json(path, {**dictionary_to_json(d), "G": [[1.0, 0.0, 0.0]]})
    loaded, g = load_dictionary(path)
    assert loaded.state_dim == 1
    assert [str(n) for n in loaded.names] == [str(n) for n in d.names]
    assert np.array_equal(g, np.array([[1.0, 0.0, 0.0]]))
    x = [0.7]
    assert np.abs(feature_map(loaded, x) - feature_map(d, x)).max() < 1e-15


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_rejects_what_json_cannot_hold(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(path, {"fine": 1.0, "values": [0.5, value]})
    assert not path.exists()


def test_json_without_g(tmp_path):
    d = pendulum_dictionary()
    path = tmp_path / "dict.json"
    save_dictionary(d, path)
    loaded, g = load_dictionary(path)
    assert g is None
    assert loaded.state_dim == 2
    obj = json.loads(path.read_text())
    assert set(obj) == {"state_dim", "basis"}


def test_dictionary_json_fields():
    obj = dictionary_to_json(rational_dictionary())
    assert obj["state_dim"] == 1
    assert isinstance(obj["basis"], list) and len(obj["basis"]) == 3
    d2, _ = dictionary_from_json(obj)
    assert feature_map(d2, [1.0])[2] == 0.25
