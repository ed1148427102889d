"""Network forward/backward tests against hand and finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import ELEMENTWISE_FIRST, fd_param_grad, rel_err

from ganids import autodiff as ad
from ganids import gan, nn
from ganids.errors import NonFiniteValue, ShapeMismatch


def fc_spec(width, out):
    return nn.NetworkSpec(width, (nn.FullyConnected(out),))


def set_params(spec, **tensors):
    shapes = nn.param_shapes(spec)
    full = {name: np.zeros(shape) for name, shape in shapes.items()}
    full.update({k: np.asarray(v, dtype=np.float64) for k, v in tensors.items()})
    return nn.ParamSet(full)


def outputs(spec, params, batch):
    """The network's output on `batch` by the kernel and by the engine."""
    batch = np.asarray(batch, dtype=np.float64)
    return [nn.forward(spec, params.tensors, batch),
            ref.graph_forward(spec, params, batch)[0].data]


def kernel_grads(spec, params, batch, cotangent):
    """The kernels' parameter gradients by name and input gradient for the
    output cotangent `cotangent(output)`."""
    batch = np.asarray(batch, dtype=np.float64)
    caches = []
    g = cotangent(nn.forward(spec, params.tensors, batch, caches=caches))
    grads = params.zeros()
    nn.backward(spec, params.tensors, list(caches), g, grads=grads)
    return grads.tensors, nn.backward(spec, params.tensors, caches, g)


def test_identity_fc_layer():
    spec = fc_spec(2, 2)
    params = set_params(spec, **{"l0.w": np.eye(2)})
    for out in outputs(spec, params, [[0.5, -0.5]]):
        assert np.allclose(out, [[0.5, -0.5]])


def test_leaky_relu_layer_values():
    spec = nn.NetworkSpec(2, (nn.LeakyRelu(0.2),))
    for out in outputs(spec, nn.ParamSet({}), [[-1.0, 2.0]]):
        assert np.allclose(out, [[-0.2, 2.0]])


def test_conv_hand_oracle():
    # kernel [1,1,1], zero same-padding on [1,2,3,4] -> [3,6,9,7]
    spec = nn.NetworkSpec(4, (nn.Conv1d(1, 3),))
    params = set_params(spec, **{"l0.w": np.ones((1, 3, 1))})
    for out in outputs(spec, params, [[1.0, 2.0, 3.0, 4.0]]):
        assert np.allclose(out, [[3.0, 6.0, 9.0, 7.0]])


def test_linear_loss_gradient_is_input():
    # D(x) = w.x, loss = D(x), x = (1,2) -> dloss/dw = (1,2)
    spec = fc_spec(2, 1)
    params = set_params(spec, **{"l0.w": [[0.3], [0.7]]})
    out, tape = ref.graph_forward(spec, params, [[1.0, 2.0]])
    grads = ref.grad_params(ad.sum_(out), tape)
    kernel, _ = kernel_grads(spec, params, [[1.0, 2.0]], np.ones_like)
    for w, b in [(grads["l0.w"].data, grads["l0.b"].data),
                 (kernel["l0.w"], kernel["l0.b"])]:
        assert np.allclose(w, [[1.0], [2.0]])
        assert np.allclose(b, [1.0])


def test_squared_error_gradient():
    # loss = (w*x - y)^2, w=1, x=2, y=1 -> dloss/dw = 2*(2-1)*2 = 4
    spec = fc_spec(1, 1)
    params = set_params(spec, **{"l0.w": [[1.0]]})
    out, tape = ref.graph_forward(spec, params, [[2.0]])
    loss = ad.sum_(ad.square(out - 1.0))
    grads = ref.grad_params(loss, tape)
    assert np.isclose(grads["l0.w"].item(), 4.0)
    kernel, _ = kernel_grads(spec, params, [[2.0]], lambda y: 2.0 * (y - 1.0))
    assert np.isclose(kernel["l0.w"].item(), 4.0)


def test_grad_wrt_input_linear_critic():
    spec = fc_spec(3, 1)
    w = np.array([[0.5], [-1.0], [2.0]])
    params = set_params(spec, **{"l0.w": w})
    out, tape = ref.graph_forward(spec, params, np.ones((4, 3)))
    g = ref.grad_input(ad.sum_(out), tape)
    _, kernel = kernel_grads(spec, params, np.ones((4, 3)), np.ones_like)
    for got in (g.data, kernel):
        assert np.allclose(got, np.tile(w.ravel(), (4, 1)))


def test_grad_wrt_input_tanh_at_zero():
    spec = nn.NetworkSpec(3, (nn.FullyConnected(1), nn.Tanh()))
    w = np.array([[0.5], [-1.0], [2.0]])
    params = set_params(spec, **{"l0.w": w})
    out, tape = ref.graph_forward(spec, params, np.zeros((2, 3)))
    g = ref.grad_input(ad.sum_(out), tape)
    _, kernel = kernel_grads(spec, params, np.zeros((2, 3)), np.ones_like)
    for got in (g.data, kernel):
        assert np.allclose(got, np.tile(w.ravel(), (2, 1)))


def _fd_check(spec, seed, batch_size, n_probes=12, tol=1e-5):
    rng = np.random.default_rng(seed)
    params = nn.init_params(spec, seed)
    batch = rng.standard_normal((batch_size, spec.input_width))

    def loss_fn(p):
        out, tape = ref.graph_forward(spec, p, batch)
        return float(np.sum(out.data)), tape.relu_signs

    out, tape = ref.graph_forward(spec, params, batch)
    grads = ref.grad_params(ad.sum_(out), tape)
    names = sorted(params.tensors)
    checked = 0
    for _ in range(n_probes * 4):
        if checked >= n_probes:
            break
        name = names[rng.integers(len(names))]
        idx = int(rng.integers(params.tensors[name].size))
        fd = fd_param_grad(loss_fn, params, name, idx)
        if fd is None:
            continue  # probe crossed an activation kink
        an = grads[name].data.flat[idx]
        assert rel_err(fd, an) <= tol, (name, idx, fd, an)
        checked += 1
    assert checked >= n_probes


def test_fd_gradients_fc_stack():
    _fd_check(nn.NetworkSpec(6, (nn.FullyConnected(5), nn.LeakyRelu(0.2),
                                 nn.FullyConnected(1), nn.Tanh())), 3, 4)


def test_fd_gradients_conv_stack():
    _fd_check(nn.NetworkSpec(7, (nn.Conv1d(4, 3), nn.LeakyRelu(0.2),
                                 nn.Conv1d(2, 3), nn.FullyConnected(1))), 4, 3)


def test_fd_gradients_critic_architecture():
    spec = nn.NetworkSpec(8, (nn.Conv1d(32, 3), nn.LeakyRelu(0.2),
                              nn.FullyConnected(64), nn.LeakyRelu(0.2),
                              nn.FullyConnected(1), nn.Tanh()))
    _fd_check(spec, 5, 4)


def test_gradient_penalty_linear_closed_form():
    spec = fc_spec(2, 1)
    params = set_params(spec, **{"l0.w": [[3.0], [4.0]]})
    x_hat = np.array([[0.2, 0.9], [1.5, -0.3]])
    penalty, grads = nn.gradient_penalty(spec, params, x_hat, 10.0)
    # ||w|| = 5, penalty = 10*(5-1)^2 = 160; grad = 2*10*(5-1)*w/5 = (48, 64)
    assert abs(penalty - 160.0) <= 1e-12
    assert np.allclose(grads["l0.w"].ravel(), [48.0, 64.0], atol=1e-12)
    assert np.allclose(grads["l0.b"], 0.0)


def test_gradient_penalty_constant_critic():
    spec = fc_spec(3, 1)
    params = set_params(spec, **{"l0.b": [0.7]})
    penalty, grads = nn.gradient_penalty(spec, params, np.ones((5, 3)), 10.0)
    assert np.isclose(penalty, 10.0)  # zero gradient norm -> lambda * 1
    assert np.allclose(grads["l0.b"], 0.0)


def test_gradient_penalty_rejects_empty_batch():
    spec = fc_spec(3, 1)
    with pytest.raises(nn.EmptyBatch):
        nn.gradient_penalty(spec, nn.init_params(spec, 0), np.zeros((0, 3)),
                            10.0)


def test_gradient_penalty_fd_oracle():
    spec = nn.NetworkSpec(5, (nn.Conv1d(6, 3), nn.LeakyRelu(0.2),
                              nn.FullyConnected(8), nn.LeakyRelu(0.2),
                              nn.FullyConnected(1), nn.Tanh()))
    rng = np.random.default_rng(6)
    params = nn.init_params(spec, 6)
    x_hat = rng.standard_normal((4, 5))
    _, grads = nn.gradient_penalty(spec, params, x_hat, 10.0)

    def loss_fn(p):
        out, tape = ref.graph_forward(spec, p, x_hat)
        gin = ref.grad_input(ad.sum_(out), tape, create_graph=True)
        norm = ad.sqrt(ad.sum_(ad.square(gin), axis=1))
        pen = 10.0 * ad.mean(ad.square(norm - 1.0))
        return pen.item(), tape.relu_signs

    names = sorted(params.tensors)
    checked = 0
    for _ in range(60):
        if checked >= 10:
            break
        name = names[rng.integers(len(names))]
        idx = int(rng.integers(params.tensors[name].size))
        fd = fd_param_grad(loss_fn, params, name, idx)
        if fd is None:
            continue
        assert rel_err(fd, grads[name].flat[idx], floor=1e-4) <= 1e-4
        checked += 1
    assert checked >= 10


def test_eval_forward_is_pure():
    spec = nn.NetworkSpec(4, (nn.FullyConnected(6), nn.LeakyRelu(0.2),
                              nn.Dropout(0.4), nn.FullyConnected(1)))
    params = nn.init_params(spec, 7)
    batch = np.random.default_rng(7).standard_normal((3, 4))
    a = nn.forward(spec, params.tensors, batch)
    b = nn.forward(spec, params.tensors, batch)
    assert np.array_equal(a, b)


def test_dropout_train_scales_by_keep_probability():
    # train mode's dropout is the masks drawn from an rng: 0, or 1 / keep
    spec = nn.NetworkSpec(3, (nn.Dropout(0.4),))
    masks = nn.dropout_masks(spec, 2, np.random.default_rng(8))
    again = nn.dropout_masks(spec, 2, np.random.default_rng(8))
    assert list(masks) == [0] and np.array_equal(masks[0], again[0])
    assert masks[0].shape == (2, 3)
    assert set(np.unique(masks[0])) <= {0.0, 1.0 / 0.6}
    out = nn.forward(spec, {}, np.ones((2, 3)), masks)
    assert np.array_equal(out, masks[0])


def test_param_count_generator_architecture():
    # hand-counted parameter total for the 8-wide generator network
    from ganids.gan import generator_spec
    spec = generator_spec(8)
    shapes = nn.param_shapes(spec)
    total = sum(int(np.prod(s)) for s in shapes.values())
    # FC 8->8: 72; conv(64,3) on 1ch: 256; conv(32,3) on 64ch: 6176;
    # conv(1,1) on 32ch: 33
    assert total == 72 + 256 + 6176 + 33


def test_as_batch_rejects_bad_width():
    # the check the critic step runs on the real rows it is given
    spec = fc_spec(3, 1)
    with pytest.raises(ShapeMismatch):
        nn.as_batch(spec, np.ones((2, 4)))


def test_as_batch_rejects_nonfinite_input():
    spec = fc_spec(2, 1)
    with pytest.raises(NonFiniteValue):
        nn.as_batch(spec, [[np.nan, 1.0]])


def test_adam_first_step_magnitude():
    spec = fc_spec(1, 1)
    params = set_params(spec, **{"l0.w": [[1.0]]})
    state = nn.AdamState(params)
    nn.adam_step(params, nn.ParamSet({"l0.w": np.array([[1.0]]),
                                      "l0.b": np.zeros(1)}), state)
    assert state.t == 1
    assert np.isclose(params.tensors["l0.w"][0, 0], 1.0 - nn.LR, atol=1e-8)
    assert params.tensors["l0.b"][0] == 0.0  # zero grad leaves the bias alone


def test_adam_two_steps_match_hand_replay():
    lr, b1, b2, eps = nn.LR, nn.BETA1, nn.BETA2, nn.EPS
    spec = fc_spec(1, 1)
    params = set_params(spec, **{"l0.w": [[0.5]]})
    state = nn.AdamState(params)
    g = nn.ParamSet({"l0.w": np.array([[1.0]]), "l0.b": np.zeros(1)})
    nn.adam_step(params, g, state)
    nn.adam_step(params, g, state)
    # independent replay of the Adam recurrences
    w, m, v = 0.5, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * 1.0
        v = b2 * v + (1 - b2) * 1.0
        w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    assert np.isclose(params.tensors["l0.w"][0, 0], w, atol=1e-12)


@pytest.mark.parametrize("spec", [
    nn.NetworkSpec(5, (nn.Conv1d(3, 3), nn.FullyConnected(2))),
    gan.generator_spec(11),
    gan.critic_spec(11),
], ids=["conv-fc", "generator", "critic"])
def test_adam_in_place_moments_are_bit_identical_to_fresh_arrays(spec):
    lr, b1, b2, eps = nn.LR, nn.BETA1, nn.BETA2, nn.EPS
    params = nn.init_params(spec, 4)
    state = nn.AdamState(params)
    rng = np.random.default_rng(4)
    ref = {k: v.copy() for k, v in params.tensors.items()}
    m = {k: np.zeros_like(v) for k, v in ref.items()}
    v = {k: np.zeros_like(x) for k, x in ref.items()}
    flat = params.flat
    for t in (1, 2, 3):
        grads = {k: rng.standard_normal(x.shape) for k, x in ref.items()}
        nn.adam_step(params, nn.ParamSet(grads), state)
        # the parameters are updated in place
        assert params.flat is flat
        for k, g in grads.items():
            # the moment updates as fresh arrays
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            ref[k] = ref[k] - lr * (m[k] / (1 - b1 ** t)) \
                / (np.sqrt(v[k] / (1 - b2 ** t)) + eps)
        for k in ref:
            assert np.array_equal(state.m.tensors[k], m[k])
            assert np.array_equal(state.v.tensors[k], v[k])
            assert np.array_equal(params.tensors[k], ref[k])


def test_adam_shape_mismatch():
    spec = fc_spec(2, 1)
    params = nn.init_params(spec, 0)
    state = nn.AdamState(params)
    with pytest.raises(ShapeMismatch):
        nn.adam_step(params, nn.ParamSet({"l0.w": np.zeros((3, 1)),
                                          "l0.b": np.zeros(1)}), state)


def _layout(params):
    return [(name, t.shape) for name, t in params.tensors.items()]


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 6),
       layers=st.lists(st.one_of(
           st.builds(nn.FullyConnected, st.integers(1, 5)),
           st.builds(nn.Conv1d, st.integers(1, 4), st.sampled_from([1, 3]))),
           min_size=1, max_size=3),
       seed=st.integers(0, 2**16))
def test_param_set_arrays_are_views_of_one_vector(width, layers, seed):
    spec = nn.NetworkSpec(width, tuple(layers))
    params = nn.init_params(spec, seed)
    # sorted-name order, each array one run of the vector
    assert _layout(params) == sorted(nn.param_shapes(spec).items())
    lo = 0
    for t in params.tensors.values():
        assert np.shares_memory(t, params.flat)
        assert np.array_equal(t.ravel(), params.flat[lo:lo + t.size])
        lo += t.size
    assert lo == params.flat.size
    for other in (params.copy(), params.astype(np.float32),
                  params.like(params.flat * 2.0), params.zeros()):
        assert _layout(other) == _layout(params)
        assert not np.shares_memory(other.flat, params.flat)
        assert all(np.shares_memory(t, other.flat)
                   for t in other.tensors.values())
    # Adam reads the gradient vector and updates the parameter vector in
    # place: every value moves, and the views still see it
    grads = params.like(
        np.random.default_rng(seed).standard_normal(params.flat.size))
    before = params.flat.copy(), grads.flat.tobytes()
    grads.flat.flags.writeable = False
    flat, views = params.flat, list(params.tensors.values())
    nn.adam_step(params, grads, nn.AdamState(params))
    assert grads.flat.tobytes() == before[1]
    assert params.flat is flat and np.all(flat != before[0])
    assert all(a is b for a, b in zip(params.tensors.values(), views))


@pytest.mark.parametrize("make", [
    lambda: nn.Conv1d(4, 2),         # even width: no centred window
    lambda: nn.Conv1d(4, 0),
    lambda: nn.Conv1d(0, 3),
    lambda: nn.FullyConnected(0),
    lambda: nn.FullyConnected(2.5),
    lambda: nn.Dropout(1.0),
    lambda: nn.Dropout(-0.1),
    lambda: nn.NetworkSpec(0, ()),
])
def test_layer_specs_reject_unbuildable_sizes(make):
    with pytest.raises(nn.InvalidSpec):
        make()


@pytest.mark.parametrize("spec", gan.network_specs(11),
                         ids=["generator", "critic"])
def test_kernel_forward_equals_the_engine_bit_for_bit(spec):
    # the critic's fc reads its conv's output flattened in (length, channel)
    # order, in the kernels as in the engine
    params = nn.init_params(spec, 9)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, spec.input_width))
    pv = {k: ad.leaf(v) for k, v in params.tensors.items()}
    for masks in (None, nn.dropout_masks(spec, len(x), rng)):
        want, _ = nn.forward_var(spec, pv, ad.leaf(x), train=masks is not None,
                                 masks=masks)
        for caches in (None, []):
            got = nn.forward(spec, params.tensors, x, masks, caches)
            assert np.array_equal(got, want.data)


def _kernel_case(spec, seed=3):
    """Parameters, a batch, dropout masks and the forward pass's caches."""
    params = nn.init_params(spec, seed)
    rng = np.random.default_rng(seed)
    x = rng.random((8, spec.input_width))
    masks = nn.dropout_masks(spec, len(x), rng)
    caches = []
    out = nn.forward(spec, params.tensors, x, masks, caches)
    return params, caches, rng.standard_normal(out.shape)


@pytest.mark.parametrize("spec", [*gan.network_specs(7),
                                  nn.NetworkSpec(7, ELEMENTWISE_FIRST)],
                         ids=["generator", "critic", "elementwise first"])
@pytest.mark.parametrize("grads", [False, True], ids=["input", "params"])
def test_backward_consumes_the_caches_it_walks(spec, grads):
    params, caches, g = _kernel_case(spec)
    untouched = [(shape, None if c is None else c.copy())
                 for shape, c in caches]
    runs = []
    for walked in (caches, untouched):
        into = params.zeros() if grads else None
        rows = slice(2, None)
        got = nn.backward(spec, params.tensors, walked, g[rows], rows,
                          grads=into, record={})
        runs.append(into.flat.tobytes() if grads else got.tobytes())
        assert walked == [None] * (len(spec.layers) + 1)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("spec", [gan.critic_spec(7),
                                  nn.NetworkSpec(7, ELEMENTWISE_FIRST)],
                         ids=["critic", "elementwise first"])
def test_penalty_leaves_its_caches_whole(spec):
    params, caches, _ = _kernel_case(spec)
    before = list(caches)
    rows = slice(3, None)
    nn.penalty(spec, params.tensors, caches, (5, 1), rows, 10.0,
               params.zeros())
    assert len(caches) == len(before)
    assert all(a is b for a, b in zip(caches, before))
