"""Unit tests for the reverse-mode engine and its primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganids import autodiff as ad


def _unfold_reference(x, k, pad):
    """Fancy-index gather: out[b, l, c*k + j] = xpad[b, c, l + j]."""
    b, c, length = x.shape
    xp = np.zeros((b, c, length + 2 * pad), dtype=np.float64)
    xp[:, :, pad:pad + length] = x
    idx = np.arange(length)[:, None] + np.arange(k)[None, :]  # (L, k)
    cols = xp[:, :, idx]                 # (B, C, L, k)
    cols = cols.transpose(0, 2, 1, 3)    # (B, L, C, k)
    return cols.reshape(b, length, c * k)


def _fold_reference(g, k, pad, c, length):
    """Scatter-add with np.add.at, the adjoint of _unfold_reference."""
    b = g.shape[0]
    gc = g.reshape(b, length, c, k).transpose(0, 2, 1, 3)  # (B, C, L, k)
    buf = np.zeros((b, c, length + 2 * pad), dtype=np.float64)
    idx = np.arange(length)[:, None] + np.arange(k)[None, :]
    np.add.at(buf, (slice(None), slice(None), idx), gc)
    return buf[:, :, pad:pad + length]


def test_add_mul_scalars():
    x = ad.leaf(np.array(3.0))
    y = ad.leaf(np.array(4.0))
    z = x * y + x
    assert z.item() == 15.0
    gx, gy = ad.grad(z, [x, y])
    assert gx.item() == 5.0  # y + 1
    assert gy.item() == 3.0


def test_broadcast_add_gradient():
    x = ad.leaf(np.ones((3, 2)))
    b = ad.leaf(np.array([1.0, 2.0]))
    s = ad.sum_(x + b)
    gx, gb = ad.grad(s, [x, b])
    assert np.array_equal(gx.data, np.ones((3, 2)))
    assert np.array_equal(gb.data, np.array([3.0, 3.0]))


def test_matmul_gradient_matches_manual():
    rng = np.random.default_rng(1)
    a = ad.leaf(rng.standard_normal((2, 3)))
    b = ad.leaf(rng.standard_normal((3, 4)))
    s = ad.sum_(a @ b)
    ga, gb = ad.grad(s, [a, b])
    ones = np.ones((2, 4))
    assert np.allclose(ga.data, ones @ b.data.T)
    assert np.allclose(gb.data, a.data.T @ ones)


def test_matmul_rejects_non_2d():
    with pytest.raises(ad.ShapeMismatch):
        ad.matmul(ad.leaf(np.ones(3)), ad.leaf(np.ones((3, 2))))


def test_grad_requires_scalar_output():
    x = ad.leaf(np.ones(3))
    with pytest.raises(ad.ShapeMismatch):
        ad.grad(x, [x])


def test_tanh_at_zero_has_unit_slope():
    x = ad.leaf(np.zeros(4))
    (g,) = ad.grad(ad.sum_(ad.tanh(x)), [x])
    assert np.allclose(g.data, 1.0)


def test_leaky_relu_values_and_grad():
    x = ad.leaf(np.array([-1.0, 2.0]))
    y = ad.leaky_relu(x, 0.2)
    assert np.allclose(y.data, [-0.2, 2.0])
    (g,) = ad.grad(ad.sum_(y), [x])
    assert np.allclose(g.data, [0.2, 1.0])


def test_safe_recip_zero_is_zero_with_zero_grad():
    x = ad.leaf(np.array([0.0, 2.0]))
    y = ad.safe_recip(x)
    assert np.allclose(y.data, [0.0, 0.5])
    (g,) = ad.grad(ad.sum_(y), [x])
    assert g.data[0] == 0.0
    assert np.isclose(g.data[1], -0.25)


def test_sqrt_zero_gradient_defined_as_zero():
    x = ad.leaf(np.array([0.0, 4.0]))
    (g,) = ad.grad(ad.sum_(ad.sqrt(x)), [x])
    assert g.data[0] == 0.0
    assert np.isclose(g.data[1], 0.25)


def test_sum_axis_keepdims_gradient():
    x = ad.leaf(np.arange(6.0).reshape(2, 3))
    s = ad.sum_(ad.mul(ad.sum_(x, axis=1), np.array([1.0, 2.0])))
    (g,) = ad.grad(s, [x])
    assert np.array_equal(g.data, np.array([[1.0] * 3, [2.0] * 3]))


def test_mean_gradient():
    x = ad.leaf(np.ones((2, 5)))
    (g,) = ad.grad(ad.mean(x), [x])
    assert np.allclose(g.data, 0.1)


def test_unfold_fold_are_adjoint():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 5))
    y = rng.standard_normal((2, 5, 9))
    # <unfold(x), y> == <x, fold(y)> for exact adjoints
    ux = ad.unfold1d(ad.leaf(x), 3, 1).data
    fy = ad.fold1d(ad.leaf(y), 3, 1, 3, 5).data
    assert np.isclose(np.sum(ux * y), np.sum(x * fy))


@settings(max_examples=80, deadline=None)
@given(b=st.integers(1, 4), c=st.integers(1, 5), length=st.integers(1, 9),
       half=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_unfold_fold_match_references_on_random_shapes(b, c, length, half, seed):
    k, pad = 2 * half + 1, half
    rng = np.random.default_rng(seed)
    # a transposed view, like a conv layer's output
    x = rng.standard_normal((b, length, c)).transpose(0, 2, 1)
    y = rng.standard_normal((b, length, c * k))
    ux = ad.unfold1d(ad.leaf(x), k, pad).data
    fy = ad.fold1d(ad.leaf(y), k, pad, c, length).data
    assert np.array_equal(ux, _unfold_reference(x, k, pad))
    np.testing.assert_allclose(fy, _fold_reference(y, k, pad, c, length),
                               rtol=0, atol=1e-12)
    lhs, rhs = np.sum(ux * y), np.sum(x * fy)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.abs(ux * y).sum())


def test_grad_builds_no_cotangent_outside_wrt(monkeypatch):
    rng = np.random.default_rng(3)
    x = ad.leaf(rng.standard_normal((2, 3)))
    w = ad.leaf(rng.standard_normal((3, 4)))
    loss = ad.sum_(ad.matmul(x, w))
    shapes = []
    matmul = ad.matmul

    def recording(a, b):
        out = matmul(a, b)
        shapes.append(out.data.shape)
        return out

    monkeypatch.setattr(ad, "matmul", recording)
    (gx,) = ad.grad(loss, [x])
    # only x's cotangent g @ w.T was built, not w's x.T @ g
    assert shapes == [(2, 3)]
    assert np.allclose(gx.data, np.ones((2, 4)) @ w.data.T)


def test_linear_is_bit_identical_to_matmul_plus_bias():
    rng = np.random.default_rng(4)
    x = ad.leaf(rng.standard_normal((5, 3)))
    w = ad.leaf(rng.standard_normal((3, 2)))
    b = ad.leaf(rng.standard_normal(2))
    fused = ad.linear(x, w, b)
    split = ad.matmul(x, w) + b
    assert np.array_equal(fused.data, split.data)
    c = rng.standard_normal((5, 2))
    for f, s in zip(ad.grad(ad.sum_(ad.mul(fused, c)), [x, w, b]),
                    ad.grad(ad.sum_(ad.mul(split, c)), [x, w, b])):
        assert np.array_equal(f.data, s.data)


def test_second_order_gradient_simple():
    # d/dx of (dy/dx) for y = x^3: first grad 3x^2, second 6x
    x = ad.leaf(np.array(2.0))
    y = ad.mul(ad.mul(x, x), x)
    (g1,) = ad.grad(y, [x], create_graph=True)
    assert np.isclose(g1.item(), 12.0)
    (g2,) = ad.grad(g1, [x])
    assert np.isclose(g2.item(), 12.0)


def test_grad_without_create_graph_detaches():
    x = ad.leaf(np.array(2.0))
    y = ad.mul(x, x)
    (g1,) = ad.grad(y, [x])
    (g2,) = ad.grad(ad.sum_(g1), [x])
    assert g2.item() == 0.0


def test_check_finite_raises():
    with pytest.raises(ad.NonFiniteValue):
        ad.check_finite(np.array([1.0, np.nan]))


def test_unreachable_wrt_gets_zeros():
    x = ad.leaf(np.ones(3))
    other = ad.leaf(np.ones(2))
    (g,) = ad.grad(ad.sum_(x), [other])
    assert np.array_equal(g.data, np.zeros(2))
