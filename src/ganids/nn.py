"""Layer specs, parameter sets, network forward passes and Adam.

The five layer kinds here are exactly what the generator/critic pair needs:
fully-connected, 1-D convolution (stride 1, zero same-padding), leaky ReLU,
tanh and inverted dropout.

Two implementations run a network. `forward`/`forward_var` build autodiff
graphs, and `grad_params`/`grad_input` differentiate them; they are the
reference. Training and the gradient penalty run layer-wise kernels on
plain arrays instead (`_forward`, `_backward` and `_penalty`, below), with
a closed-form double backward for the penalty and no graph.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteValue, ShapeMismatch, Var, check_finite


# ---------------------------------------------------------------------------
# layer descriptors


class InvalidSpec(ValueError):
    """A layer or network description that no network can be built from."""


class EmptyBatch(ValueError):
    """A batch-mean loss was asked for over zero rows."""


def _check_size(what, n):
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise InvalidSpec(f"{what} must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class FullyConnected:
    out_size: int
    kind: str = "fc"

    def __post_init__(self):
        _check_size("fc out_size", self.out_size)


@dataclass(frozen=True)
class Conv1d:
    out_channels: int
    kernel_width: int
    kind: str = "conv1d"

    def __post_init__(self):
        _check_size("conv1d out_channels", self.out_channels)
        _check_size("conv1d kernel_width", self.kernel_width)
        # same-padding keeps the length only for a centred, odd window
        if self.kernel_width % 2 == 0:
            raise InvalidSpec(
                f"conv1d kernel_width must be odd, got {self.kernel_width}")


@dataclass(frozen=True)
class LeakyRelu:
    slope: float = 0.2
    kind: str = "leaky_relu"


@dataclass(frozen=True)
class Tanh:
    kind: str = "tanh"


@dataclass(frozen=True)
class Dropout:
    rate: float
    kind: str = "dropout"

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise InvalidSpec(f"dropout rate must be in [0, 1), got {self.rate!r}")


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layers plus the declared input width (flat features)."""

    input_width: int
    layers: tuple

    def __post_init__(self):
        _check_size("input_width", self.input_width)


def _shape_chain(spec: NetworkSpec):
    """Per-layer input shapes; flat widths chain through conv reshapes.

    A flat width d entering a conv is treated as a single-channel sequence of
    length d; a sequence entering an FC layer is flattened to channels*length.
    Yields (layer, in_desc) where in_desc is ("flat", w) or ("seq", c, l).
    """
    cur = ("flat", spec.input_width)
    for layer in spec.layers:
        if layer.kind == "fc":
            if cur[0] == "seq":
                cur = ("flat", cur[1] * cur[2])
            yield layer, cur
            cur = ("flat", layer.out_size)
        elif layer.kind == "conv1d":
            if cur[0] == "flat":
                cur = ("seq", 1, cur[1])
            yield layer, cur
            cur = ("seq", layer.out_channels, cur[2])
        else:
            yield layer, cur


def param_shapes(spec: NetworkSpec):
    shapes = {}
    for i, (layer, in_desc) in enumerate(_shape_chain(spec)):
        if layer.kind == "fc":
            shapes[f"l{i}.w"] = (in_desc[1], layer.out_size)
            shapes[f"l{i}.b"] = (layer.out_size,)
        elif layer.kind == "conv1d":
            shapes[f"l{i}.w"] = (layer.out_channels, in_desc[1], layer.kernel_width)
            shapes[f"l{i}.b"] = (layer.out_channels,)
    return shapes


# ---------------------------------------------------------------------------
# parameters


class ParamSet:
    """Ordered name -> float64 array mapping with a content hash."""

    def __init__(self, tensors):
        self.tensors = dict(tensors)

    def content_hash(self):
        h = hashlib.sha256()
        for name in sorted(self.tensors):
            arr = self.tensors[name]
            h.update(name.encode())
            h.update(str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return h.hexdigest()

    def copy(self):
        return ParamSet({k: v.copy() for k, v in self.tensors.items()})


def init_params(spec: NetworkSpec, seed: int) -> ParamSet:
    """Uniform +-sqrt(6/fan_in) weights, zero biases."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in param_shapes(spec).items():
        if name.endswith(".b"):
            tensors[name] = np.zeros(shape)
        else:
            fan_in = shape[0] if len(shape) == 2 else shape[1] * shape[2]
            bound = np.sqrt(6.0 / fan_in)
            tensors[name] = rng.uniform(-bound, bound, size=shape)
    return ParamSet(tensors)


# ---------------------------------------------------------------------------
# forward


class Tape:
    """Graph handles for one recorded forward pass."""

    def __init__(self, input_var, param_vars, output, relu_signs=None):
        self.input = input_var
        self.params = param_vars
        self.output = output
        # sign pattern at each leaky-relu input; finite-difference oracles use
        # this to reject probes that step across a kink
        self.relu_signs = relu_signs or []


def dropout_masks(spec: NetworkSpec, batch_size: int, rng) -> dict:
    """Inverted-dropout masks, one per dropout layer, reusable across passes."""
    masks = {}
    for i, (layer, in_desc) in enumerate(_shape_chain(spec)):
        if layer.kind == "dropout":
            keep = 1.0 - layer.rate
            if in_desc[0] == "flat":
                shape = (batch_size, in_desc[1])
            else:
                shape = (batch_size, in_desc[1], in_desc[2])
            masks[i] = (rng.random(shape) < keep) / keep
    return masks


def as_batch(spec: NetworkSpec, batch):
    """`batch` as a float64 (B, input_width) array of finite values."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != spec.input_width:
        raise ShapeMismatch(
            f"batch width {batch.shape} does not match input width {spec.input_width}")
    return check_finite(batch, "input batch")


def forward(spec: NetworkSpec, params: ParamSet, batch, train=False,
            rng=None, masks=None):
    """Run the network; returns (output Var flattened to (B, out), Tape).

    Eval mode skips dropout entirely. In train mode dropout masks come from
    `masks` (so one mask can be shared across several passes) or from `rng`.
    """
    batch = as_batch(spec, batch)
    if train and masks is None:
        if rng is None:
            rng = np.random.default_rng(0)
        masks = dropout_masks(spec, batch.shape[0], rng)

    x = Var(batch, requires_grad=True)
    param_vars = {name: ad.leaf(arr) for name, arr in params.tensors.items()}
    h, relu_signs = forward_var(spec, param_vars, x, train=train, masks=masks)
    check_finite(h.data, "network output")
    return h, Tape(x, param_vars, h, relu_signs)


def forward_var(spec: NetworkSpec, param_vars: dict, x: Var, train=False,
                masks=None):
    """Forward pass over existing graph nodes; lets networks compose.

    Returns (output Var flattened to (B, out), relu sign patterns).
    """
    h = x
    cur_seq = False
    relu_signs = []
    for i, (layer, in_desc) in enumerate(_shape_chain(spec)):
        if layer.kind == "fc":
            if cur_seq:
                b, c, length = h.data.shape
                h = ad.reshape(h, (b, c * length))
                cur_seq = False
            h = ad.linear(h, param_vars[f"l{i}.w"], param_vars[f"l{i}.b"])
        elif layer.kind == "conv1d":
            if not cur_seq:
                b, w = h.data.shape
                h = ad.reshape(h, (b, 1, w))
                cur_seq = True
            h = ad.conv1d(h, param_vars[f"l{i}.w"], param_vars[f"l{i}.b"])
        elif layer.kind == "leaky_relu":
            pos = h.data > 0
            relu_signs.append(pos)
            h = ad.leaky_relu(h, layer.slope, pos=pos)
        elif layer.kind == "tanh":
            h = ad.tanh(h)
        elif layer.kind == "dropout":
            if train:
                h = ad.scale(h, masks[i])
        else:  # pragma: no cover
            raise ValueError(f"unknown layer kind {layer.kind}")
    if cur_seq:
        b, c, length = h.data.shape
        h = ad.reshape(h, (b, c * length))
    return h, relu_signs


def grad_params(loss, tape: Tape, create_graph=False) -> dict:
    names = list(tape.params)
    gs = ad.grad(loss, [tape.params[n] for n in names], create_graph=create_graph)
    return {n: g for n, g in zip(names, gs)}


def grad_input(scalar, tape: Tape, create_graph=False):
    """Gradient of a scalar with respect to the recorded input batch."""
    (g,) = ad.grad(scalar, [tape.input], create_graph=create_graph)
    return g


def gradient_penalty(spec: NetworkSpec, params: ParamSet, x_hat, lam,
                     masks=None, train=False):
    """The penalty lambda * mean_batch (||grad_x D(x)||_2 - 1)^2 and its
    parameter gradients, by the layer-wise kernels below."""
    x_hat = penalty_batch(spec, x_hat)
    if train and masks is None:
        masks = dropout_masks(spec, len(x_hat), np.random.default_rng(0))
    tensors = params.tensors
    caches = []
    out = _forward(spec, tensors, x_hat, masks if train else None, caches)
    check_finite(out, "network output")
    grads = {}
    value, inject = _penalty(spec, tensors, caches, out.shape, slice(None),
                             lam, grads)
    _backward(spec, tensors, caches, np.zeros_like(out), grads=grads,
              inject=inject)
    return value, grads


def penalty_batch(spec: NetworkSpec, x_hat):
    """The interpolates `x_hat` as a checked batch of at least one row."""
    x_hat = as_batch(spec, x_hat)
    if len(x_hat) == 0:
        raise EmptyBatch("the gradient penalty needs at least one row")
    return x_hat


# ---------------------------------------------------------------------------
# layer-wise kernels
#
# Training runs on plain arrays, one branch per layer kind over
# `_shape_chain(spec)`: a forward pass that keeps per-layer caches, a
# first-order backward pass over them, and the gradient penalty's
# second-order sweep. The arithmetic of each layer is that of the autodiff
# primitives `forward_var` uses, which stay as the reference the tests check
# these kernels against.
#
# The penalty's double backward has a closed form on these layers. The
# input gradient of sum D(x) is a backward pass, a chain of maps
# g_in = B_l(g_out) that are linear in g_out: fc (g W^T), conv (conv1d_t of
# g with W), leaky ReLU and dropout (g times a mask that is constant almost
# everywhere) and tanh (g (1 - y^2), y the layer's output). Differentiating
# the penalty through that chain runs bottom to top with the cotangent v of
# each g_in: v passes up as v W, conv1d(v, W), v m or v (1 - y^2), each fc
# and conv weight gains <v, B_l(g_out)>'s weight derivative (v^T g_out, or
# conv1d_w(v, g_out)), and each tanh adds -2 y g_out v to the cotangent of
# its output y, which the ordinary backward pass then carries down to the
# weights. Biases enter only through that last term.


def _flat(h):
    return h.reshape(h.shape[0], h.shape[1] * h.shape[2]) if h.ndim == 3 else h


def _seq(h):
    return h.reshape(h.shape[0], 1, h.shape[1]) if h.ndim == 2 else h


def _forward(spec, params, x, masks=None, caches=None):
    """Forward pass on arrays: (B, input_width) -> (B, out).

    Dropout multiplies by `masks[i]`, and is skipped when `masks` is None.
    With a list `caches`, appends per layer its input shape and cache (an fc
    layer's flat input, a conv's unfolded `cols`, the leaky ReLU or dropout
    mask, the tanh output), then the output's shape. The arithmetic is that
    of `forward_var`, so the output is bit-identical to it.
    """
    h = x
    for i, (layer, _) in enumerate(_shape_chain(spec)):
        shape = h.shape
        kind = layer.kind
        if kind == "fc":
            h = cache = _flat(h)
            h = h @ params[f"l{i}.w"] + params[f"l{i}.b"]
        elif kind == "conv1d":
            h = _seq(h)
            w = params[f"l{i}.w"]
            o, c, k = w.shape
            bsz, _, length = h.shape
            cache = ad._unfold_data(h, k, (k - 1) // 2)
            y = cache.reshape(bsz * length, c * k) @ w.reshape(o, c * k).T
            y += params[f"l{i}.b"]
            h = y.reshape(bsz, length, o).transpose(0, 2, 1)
        elif kind == "leaky_relu":
            slope = layer.slope
            if caches is None:
                # the same values as h times the mask, on finite inputs
                cache = None
                h = (np.minimum if slope > 1 else np.maximum)(h, slope * h)
            else:
                pos = h > 0
                cache = np.multiply(~pos, slope, dtype=np.float64)
                cache += pos
                h = h * cache
        elif kind == "tanh":
            h = cache = np.tanh(h)
        elif kind == "dropout":
            cache = None if masks is None else masks[i]
            if cache is not None:
                h = h * cache
        else:  # pragma: no cover
            raise ValueError(f"unknown layer kind {layer.kind}")
        if caches is not None:
            caches.append((shape, cache))
    if caches is not None:
        caches.append((h.shape, None))
    return _flat(h)


def _add(grads, name, g):
    if name in grads:
        grads[name] += g
    else:
        grads[name] = g


def _backward(spec, params, caches, g, rows=slice(None), grads=None,
              record=None, inject=None):
    """First-order backward pass from the output cotangent `g` (B', out)
    over the cached rows `rows`.

    With a dict `grads`, adds each parameter's gradient to it and stops at
    the first layer, returning None; without, skips the parameter gradients
    and returns the input cotangent (B', input_width). A dict `record`
    receives each layer's output cotangent; `inject` is (rows, {i: array})
    added to layer i's input cotangent on those rows.
    """
    layers = list(_shape_chain(spec))
    n = len(g)
    g = g.reshape((n,) + caches[-1][0][1:])
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i][0]
        shape, cache = caches[i]
        if record is not None:
            record[i] = g
        kind = layer.kind
        if kind == "fc":
            if grads is not None:
                _add(grads, f"l{i}.w", cache[rows].T @ g)
                _add(grads, f"l{i}.b", g.sum(axis=0))
                if i == 0:
                    return None
            w = params[f"l{i}.w"]
            if len(shape) == 3:
                # rows of w in (length, channel) order give the cotangent
                # channels-last, the layout of the conv output it meets
                _, c, length = shape
                w = w.reshape(c, length, -1).transpose(1, 0, 2) \
                    .reshape(length * c, -1)
                g = (g @ w.T).reshape(n, length, c).transpose(0, 2, 1)
            else:
                g = g @ w.T
        elif kind == "conv1d":
            w = params[f"l{i}.w"]
            o, c, k = w.shape
            length = g.shape[2]
            gm = g.transpose(0, 2, 1).reshape(n * length, o)
            if grads is not None:
                cols = cache[rows].reshape(n * length, c * k)
                _add(grads, f"l{i}.w", (gm.T @ cols).reshape(o, c, k))
                _add(grads, f"l{i}.b", gm.sum(axis=0))
                if i == 0:
                    return None
            gcols = (gm @ w.reshape(o, c * k)).reshape(n, length, c * k)
            g = ad._fold_data(gcols, k, (k - 1) // 2, c, length)
        elif grads is not None and i == 0:
            return None
        elif kind == "leaky_relu":
            g = g * cache[rows]
        elif kind == "tanh":
            y = cache[rows]
            g = g * (1.0 - y * y)
        elif kind == "dropout":
            if cache is not None:
                g = g * cache[rows]
        if inject is not None and i in inject[1]:
            g[inject[0]] += inject[1][i]
        g = g.reshape((n,) + shape[1:])
    return g


def _penalty(spec, params, caches, out_shape, rows, lam, grads):
    """The penalty lam * mean (||grad_x sum D(x)||_2 - 1)^2 over the cached
    rows `rows`, whose output has `out_shape`.

    Adds the penalty's weight terms to `grads` and returns (value, inject),
    `inject` being (rows, {i: term}) with the terms its tanh layers add to
    the forward pass's cotangent, for `_backward(..., inject=inject)` to
    carry down (see above).
    """
    record = {}
    gin = _backward(spec, params, caches, np.ones(out_shape), rows,
                    record=record)
    n = len(gin)
    norm = np.sqrt(np.sum(gin * gin, axis=1))
    value = float(np.sum(np.square(norm - 1.0)) * (1.0 / n) * lam)
    check_finite(value, "gradient penalty")
    # d value / d gin; the norm's derivative is taken as 0 where it is 0
    nz = norm != 0
    recip = np.where(nz, 1.0 / np.where(nz, norm, 1.0), 0.0)
    v = ((2.0 * lam / n) * (norm - 1.0) * recip)[:, None] * gin
    inject = {}
    for i, (layer, _) in enumerate(_shape_chain(spec)):
        cache = caches[i][1]
        kind = layer.kind
        if kind == "fc":
            v = _flat(v)
            w = params[f"l{i}.w"]
            _add(grads, f"l{i}.w", v.T @ record[i])
            v = v @ w
        elif kind == "conv1d":
            v = _seq(v)
            w = params[f"l{i}.w"]
            o, c, k = w.shape
            length = v.shape[2]
            vcols = ad._unfold_data(v, k, (k - 1) // 2) \
                .reshape(n * length, c * k)
            gm = record[i].transpose(0, 2, 1).reshape(n * length, o)
            _add(grads, f"l{i}.w", (gm.T @ vcols).reshape(o, c, k))
            v = (vcols @ w.reshape(o, c * k).T).reshape(n, length, o) \
                .transpose(0, 2, 1)
        elif kind == "leaky_relu":
            v = v * cache[rows]
        elif kind == "tanh":
            y = cache[rows]
            slope = 1.0 - y * y
            inject[i] = -2.0 * y * record[i] * v * slope
            v = v * slope
        elif kind == "dropout":
            if cache is not None:
                v = v * cache[rows]
    return value, (rows, inject)


# ---------------------------------------------------------------------------
# Adam


class AdamState:
    def __init__(self, params: ParamSet, lr=1e-4, beta1=0.9, beta2=0.999,
                 eps=1e-8):
        self.m = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.tensors.items()}
        self.t = 0
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps


def adam_step(params: ParamSet, grads: dict, state: AdamState) -> ParamSet:
    """One bias-corrected Adam descent step; updates `state` in place and
    returns new params."""
    state.t += 1
    t = state.t
    new = {}
    for name, p in params.tensors.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1 - state.beta1) * g
        v *= state.beta2
        v += (1 - state.beta2) * g * g
        mhat = m / (1 - state.beta1 ** t)
        vhat = v / (1 - state.beta2 ** t)
        new[name] = p - state.lr * mhat / (np.sqrt(vhat) + state.eps)
    return ParamSet(new)
