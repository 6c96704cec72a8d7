import numpy as np
import pytest

from rankadapt.adapter import forward, merge, trainable_param_count
from rankadapt.errors import ValidationError
from rankadapt.spectral import decompose
from rankadapt.stm import split_factors, split_weight

from conftest import rand_matrix


def make_layer(seed, m=10, n=8, selected=(1, 3)):
    w = rand_matrix(seed, m, n)
    return split_weight(w, split_factors(decompose(w), selected))


def test_forward_zero_input():
    layer = make_layer(0)
    assert np.array_equal(forward(layer, np.zeros(8)), np.zeros(10))


def test_forward_at_init_equals_original():
    w = rand_matrix(1, 10, 8)
    layer = split_weight(w, split_factors(decompose(w), (2, 4)))
    x = rand_matrix(2, 8, 5)
    assert np.allclose(forward(layer, x), w @ x, atol=1e-10)


def test_forward_matches_merge():
    layer = make_layer(3)
    rng = np.random.default_rng(4)
    # simulate some training
    layer.b = layer.b + 0.1 * rng.standard_normal(layer.b.shape)
    layer.a = layer.a + 0.1 * rng.standard_normal(layer.a.shape)
    merged = merge(layer)
    for _ in range(10):
        x = rng.standard_normal(8)
        lhs, rhs = forward(layer, x), merged @ x
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_merge_at_init_and_zeroed():
    w = rand_matrix(5, 9, 9)
    layer = split_weight(w, split_factors(decompose(w), (1,)))
    assert np.linalg.norm(merge(layer) - w) <= 1e-10 * np.linalg.norm(w)
    layer.b = np.zeros_like(layer.b)
    assert np.array_equal(merge(layer), layer.w0)


def test_forward_shape_checks():
    layer = make_layer(6)
    with pytest.raises(ValidationError):
        forward(layer, np.zeros(7))
    with pytest.raises(ValidationError):
        forward(layer, np.full(8, np.nan))


def test_param_count():
    layer = make_layer(7, m=8, n=8, selected=(1, 2))
    assert trainable_param_count([layer]) == 32
    assert trainable_param_count([]) == 0


def test_param_count_mixed_stack():
    layers = [
        make_layer(8, m=768, n=768, selected=tuple(range(1, 9))),
        make_layer(9, m=768, n=3072, selected=tuple(range(1, 13))),
    ]
    assert trainable_param_count(layers) == 8 * 1536 + 12 * 3840  # 58368
