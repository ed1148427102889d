"""Unit tests for the reverse-mode engine and its primitives."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ganids import autodiff as ad
from ganids.errors import NonFiniteValue, ShapeMismatch, check_finite


def _unfold_reference(x, k, pad):
    """Fancy-index gather: out[b, l, j*c + ci] = xpad[b, l + j, ci]."""
    b, length, c = x.shape
    xp = np.zeros((b, length + 2 * pad, c), dtype=np.float64)
    xp[:, pad:pad + length] = x
    idx = np.arange(length)[:, None] + np.arange(k)[None, :]  # (L, k)
    cols = xp[:, idx]                    # (B, L, k, C)
    return cols.reshape(b, length, k * c)


def _fold_reference(g, k, pad, c, length):
    """Scatter-add with np.add.at, the adjoint of _unfold_reference."""
    b = g.shape[0]
    gc = g.reshape(b, length, k, c)
    buf = np.zeros((b, length + 2 * pad, c), dtype=np.float64)
    idx = np.arange(length)[:, None] + np.arange(k)[None, :]
    np.add.at(buf, (slice(None), idx), gc)
    return buf[:, pad:pad + length]


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
    with pytest.raises(ShapeMismatch):
        ad.matmul(ad.leaf(np.ones(3)), ad.leaf(np.ones((3, 2))))


def test_grad_requires_scalar_output():
    x = ad.leaf(np.ones(3))
    with pytest.raises(ShapeMismatch):
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
    x = rng.standard_normal((2, 5, 3))
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
    # a transposed view: the helpers take any strides
    x = rng.standard_normal((b, c, length)).transpose(0, 2, 1)
    y = rng.standard_normal((b, length, c * k))
    ux = ad.unfold1d(ad.leaf(x), k, pad).data
    fy = ad.fold1d(ad.leaf(y), k, pad, c, length).data
    assert np.array_equal(ux, _unfold_reference(x, k, pad))
    np.testing.assert_allclose(fy, _fold_reference(y, k, pad, c, length),
                               rtol=0, atol=1e-12)
    lhs, rhs = np.sum(ux * y), np.sum(x * fy)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.abs(ux * y).sum())


def _conv_reference(x, w, b):
    """conv1d as the reference unfold followed by one matmul plus bias."""
    bsz, length, c = x.shape
    o, k, _ = w.shape
    cols = _unfold_reference(x, k, (k - 1) // 2)
    y = cols.reshape(bsz * length, k * c) @ w.reshape(o, k * c).T + b
    return y.reshape(bsz, length, o)


conv_shapes = dict(b=st.integers(1, 3), c=st.integers(1, 4),
                   o=st.integers(1, 4), length=st.integers(1, 7),
                   k=st.sampled_from([1, 3, 5]),
                   seed=st.integers(0, 2**32 - 1))


def _conv_operands(b, c, o, length, k, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((b, length, c)),
            0.5 * rng.standard_normal((o, k, c)),
            rng.standard_normal(o), rng.standard_normal((b, length, o)))


@settings(max_examples=60, deadline=None)
@given(**conv_shapes)
def test_conv1d_matches_unfold_reference(b, c, o, length, k, seed):
    assume(c != o)
    x, w, bias, _ = _conv_operands(b, c, o, length, k, seed)
    got = ad.conv1d(ad.leaf(x), ad.leaf(w), ad.leaf(bias)).data
    assert got.shape == (b, length, o)
    assert np.array_equal(got, _conv_reference(x, w, bias))


@settings(max_examples=60, deadline=None)
@given(**conv_shapes)
def test_conv_trio_adjoint_identities(b, c, o, length, k, seed):
    # conv1d is bilinear, and its cotangents toward x and w, which grad
    # builds through unfold1d, matmul and fold1d, are its two adjoints:
    # <conv1d(x, w), g> == <x, x-adjoint of g> == <w, w-adjoint of g>
    assume(c != o)
    x, w, _, g = _conv_operands(b, c, o, length, k, seed)
    xv, wv = ad.leaf(x), ad.leaf(w)
    y = ad.conv1d(xv, wv)
    xt, wt = (v.data for v in ad.grad(ad.sum_(ad.mul(y, g)), [xv, wv]))
    assert xt.shape == x.shape and wt.shape == w.shape
    ref = np.sum(y.data * g)
    scale = max(np.abs(y.data * g).sum(), 1e-300)
    assert abs(np.sum(x * xt) - ref) <= 1e-12 * scale
    assert abs(np.sum(w * wt) - ref) <= 1e-12 * scale


def _conv_second_order(x, w, bias, c_out, e, f):
    """h = <dL/dx, e> + <dL/dw, f> for L = <tanh(conv1d(x, w, b)), c_out>,
    with its gradient: the first-order gradients are conv1d's two adjoints,
    built by the chain rule through unfold1d, matmul and fold1d, so
    differentiating h differentiates those adjoints again."""
    xv, wv = ad.leaf(x), ad.leaf(w)
    loss = ad.sum_(ad.mul(ad.tanh(ad.conv1d(xv, wv, bias)), c_out))
    gx, gw = ad.grad(loss, [xv, wv], create_graph=True)
    h = ad.sum_(ad.mul(gx, e)) + ad.sum_(ad.mul(gw, f))
    hx, hw = ad.grad(h, [xv, wv])
    return h.item(), hx.data, hw.data


@settings(max_examples=30, deadline=None)
@given(**conv_shapes)
def test_conv_trio_second_derivative_matches_finite_differences(
        b, c, o, length, k, seed):
    assume(c != o)
    x, w, bias, c_out = _conv_operands(b, c, o, length, k, seed)
    rng = np.random.default_rng(seed + 1)
    e, f = rng.standard_normal(x.shape), rng.standard_normal(w.shape)
    vx, vw = rng.standard_normal(x.shape), rng.standard_normal(w.shape)
    _, hx, hw = _conv_second_order(x, w, bias, c_out, e, f)
    eps = 1e-6
    hp = _conv_second_order(x + eps * vx, w + eps * vw, bias, c_out, e, f)[0]
    hm = _conv_second_order(x - eps * vx, w - eps * vw, bias, c_out, e, f)[0]
    fd = (hp - hm) / (2 * eps)
    exact = np.sum(hx * vx) + np.sum(hw * vw)
    assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_conv1d_rejects_mismatched_operands():
    x = ad.leaf(np.ones((2, 5, 3)))
    with pytest.raises(ShapeMismatch):
        ad.conv1d(x, ad.leaf(np.ones((4, 3, 2))))   # channel count
    with pytest.raises(ShapeMismatch):
        ad.conv1d(x, ad.leaf(np.ones((4, 2, 3))))   # even kernel width


@pytest.mark.parametrize("slope", [0.01, 0.2, 0.3, 1 / 3])
def test_leaky_relu_mask_is_bit_identical_to_where(slope):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3, 7)) * 10.0 ** rng.integers(-300, 300, (4, 3, 7))
    a[0, 0, :7] = [0.0, -0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf]
    x = ad.leaf(a)
    y = ad.leaky_relu(x, slope)
    mask = np.where(a > 0, 1.0, slope)
    assert np.array_equal(y.data, a * mask, equal_nan=True)
    (g,) = ad.grad(ad.sum_(y), [x])
    assert np.array_equal(g.data, mask)
    given_mask = ad.leaky_relu(x, slope, pos=a > 0)
    assert np.array_equal(given_mask.data, y.data, equal_nan=True)


def test_tanh_second_derivative():
    # d2/dx2 tanh(x) = -2 tanh(x) (1 - tanh(x)^2)
    x = ad.leaf(np.linspace(-2.0, 2.0, 7))
    (g1,) = ad.grad(ad.sum_(ad.tanh(x)), [x], create_graph=True)
    (g2,) = ad.grad(ad.sum_(g1), [x])
    t = np.tanh(x.data)
    np.testing.assert_allclose(g2.data, -2.0 * t * (1.0 - t * t),
                               rtol=1e-15, atol=1e-16)


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
    with pytest.raises(NonFiniteValue):
        check_finite(np.array([1.0, np.nan]))


def test_unreachable_wrt_gets_zeros():
    x = ad.leaf(np.ones(3))
    other = ad.leaf(np.ones(2))
    (g,) = ad.grad(ad.sum_(x), [other])
    assert np.array_equal(g.data, np.zeros(2))


def _graph_nodes(*roots):
    """Every Var reachable from `roots` through parents."""
    seen = {}
    stack = list(roots)
    while stack:
        v = stack.pop()
        if id(v) not in seen:
            seen[id(v)] = v
            stack.extend(v.parents)
    return list(seen.values())


def _second_order_graph(op, seed):
    """(leaves, loss, g1, h, g2): loss = <tanh(op(leaves)), c>, g1 its
    gradients kept differentiable, h = sum of their squares and g2 the
    gradients of h, also kept differentiable (a grad of a grad)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3, 5))
    if op == "tanh":
        leaves = [ad.leaf(x)]
        y = ad.tanh(leaves[0])
    elif op == "sqrt":
        x[0, 0, 0] = 0.0   # the zero case of sqrt's derivative
        leaves = [ad.leaf(x * x)]
        y = ad.sqrt(leaves[0])
    elif op == "safe_recip":
        x[0, 0, 0] = 0.0
        leaves = [ad.leaf(x)]
        y = ad.safe_recip(leaves[0])
    else:  # conv1d
        leaves = [ad.leaf(x), ad.leaf(rng.standard_normal((4, 3, 5)))]
        y = ad.conv1d(leaves[0], leaves[1], rng.standard_normal(4))
    loss = ad.sum_(ad.mul(ad.tanh(y), rng.standard_normal(y.data.shape)))
    g1 = ad.grad(loss, leaves, create_graph=True)
    h = ad.sum_(ad.square(g1[0]))
    for g in g1[1:]:
        h = h + ad.sum_(ad.square(g))
    g2 = ad.grad(h, leaves, create_graph=True)
    return leaves, loss, g1, h, g2


@settings(max_examples=30, deadline=None)
@given(op=st.sampled_from(["tanh", "sqrt", "safe_recip", "conv1d"]),
       seed=st.integers(0, 2**32 - 1))
def test_graph_of_a_grad_of_a_grad_is_freed_on_del(op, seed):
    # reference counting alone must free every node: no node refers to
    # itself, so the cyclic collector has nothing to do
    gc.collect()
    gc.disable()
    try:
        leaves, loss, g1, h, g2 = _second_order_graph(op, seed)
        refs = [weakref.ref(v) for v in _graph_nodes(loss, h, *g1, *g2)]
        loss_ref = weakref.ref(loss)
        del leaves, loss, g1, h, g2
        assert loss_ref() is None
        assert [r for r in refs if r() is not None] == []
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("build", [
    lambda c: ad.tanh(c),
    lambda c: ad.sqrt(ad.mul(c, c)),
    lambda c: ad.safe_recip(c),
    lambda c: ad.leaky_relu(c),
    lambda c: ad.add(c, c),
    lambda c: ad.conv1d(c, ad.asvar(np.ones((2, 3, 5))), np.zeros(2)),
], ids=["tanh", "sqrt", "safe_recip", "leaky_relu", "add", "conv1d"])
def test_constant_node_keeps_no_history(build):
    c = ad.asvar(np.random.default_rng(0).standard_normal((2, 3, 5)))
    out = build(c)
    assert not out.requires_grad
    assert out.parents == () and out.vjp is None
