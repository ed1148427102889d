"""Layer specs, parameter sets, network forward passes and Adam.

The five layer kinds here are exactly what the generator/critic pair needs:
fully-connected, 1-D convolution (stride 1, zero same-padding), leaky ReLU,
tanh and inverted dropout.

A sequence is (B, L, C), channels last: a flat width d entering a conv is d
positions of one channel, a conv's kernel is (out, k, in) and its output is
its (B*L, out) matmul result reshaped, and an fc layer reads a sequence
flattened in (length, channel) order, which is its memory order.

Training, synthesis and the gradient penalty run the layer-wise kernels
`forward`, `backward` and `penalty` on plain arrays, with a hand-written
backward pass, a closed-form double backward for the penalty and no graph.
The kernels and Adam compute in the dtype of the parameter set they are
given, and every array they allocate takes that dtype: the GAN runs them in
float32, the tests in float64. A set's arrays are views into one flat
vector, in sorted-name order, and gradients (added into a zeroed set), Adam
and the model file all use it. Adam updates that vector in place and is the
one writer of parameters; the kernels only read them.

`forward_var` composes the same layers from the generic primitives of
`autodiff` (an fc layer is `matmul` plus `add`, dropout a `mul`), and
`gradient_penalty` is the penalty with its parameter gradients as one call.
No program path calls either; the benchmark's tracer wraps them by name,
and the tests differentiate `forward_var` by the engine's chain rule, in
float64, as the reference the kernels are checked against.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ShapeMismatch, check_finite


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

    @functools.cached_property
    def walk(self):
        """Per layer (i, layer, in_desc, weight name, bias name), computed
        once per spec; the names are None for a layer without parameters.

        in_desc is the layer's input shape, ("flat", w) or ("seq", l, c). A
        flat width d entering a conv is a single-channel sequence of length
        d; a sequence entering an fc layer is flattened, in (length,
        channel) order, to length*channels.
        """
        walk = []
        cur = ("flat", self.input_width)
        for i, layer in enumerate(self.layers):
            if layer.kind == "fc":
                if cur[0] == "seq":
                    cur = ("flat", cur[1] * cur[2])
                walk.append((i, layer, cur, f"l{i}.w", f"l{i}.b"))
                cur = ("flat", layer.out_size)
            elif layer.kind == "conv1d":
                if cur[0] == "flat":
                    cur = ("seq", cur[1], 1)
                walk.append((i, layer, cur, f"l{i}.w", f"l{i}.b"))
                cur = ("seq", cur[1], layer.out_channels)
            else:
                walk.append((i, layer, cur, None, None))
        return tuple(walk)


def param_shapes(spec: NetworkSpec):
    shapes = {}
    for _, layer, in_desc, wn, bn in spec.walk:
        if layer.kind == "fc":
            shapes[wn] = (in_desc[1], layer.out_size)
            shapes[bn] = (layer.out_size,)
        elif layer.kind == "conv1d":
            shapes[wn] = (layer.out_channels, layer.kernel_width, in_desc[2])
            shapes[bn] = (layer.out_channels,)
    return shapes


# ---------------------------------------------------------------------------
# parameters


class ParamSet:
    """A network's arrays, one run each of the vector `flat` in sorted-name
    order; `tensors` maps each name to its view."""

    def __init__(self, tensors):
        shapes = {name: np.shape(arr) for name, arr in tensors.items()}
        dtype = np.result_type(*tensors.values()) if tensors else np.float64
        size = sum(map(math.prod, shapes.values()))
        self._bind(shapes, np.empty(size, dtype))
        for name, view in self.tensors.items():
            view[...] = tensors[name]

    @classmethod
    def of(cls, shapes, flat):
        """The set of `shapes` (name -> shape) over `flat`, not copied."""
        params = cls.__new__(cls)
        params._bind(shapes, flat)
        return params

    def _bind(self, shapes, flat):
        """Sets `flat`, and the arrays as its runs in sorted-name order."""
        self.flat, self.tensors, lo = flat, {}, 0
        for name in sorted(shapes):
            hi = lo + math.prod(shapes[name])
            self.tensors[name] = flat[lo:hi].reshape(shapes[name])
            lo = hi

    def like(self, flat):
        """A set of this one's names and shapes over `flat`, not copied."""
        return ParamSet.of({k: v.shape for k, v in self.tensors.items()}, flat)

    def zeros(self):
        """A set of this one's names, shapes and dtype, all zero."""
        return self.like(np.zeros_like(self.flat))

    @property
    def dtype(self):
        """The dtype the kernels compute this set's networks in."""
        return self.flat.dtype

    def astype(self, dtype):
        return self.like(self.flat.astype(dtype))

    def copy(self):
        return self.like(self.flat.copy())


def init_params(spec: NetworkSpec, seed: int) -> ParamSet:
    """Uniform +-sqrt(6/fan_in) weights, zero biases, in float64."""
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
# batches, dropout masks and the graph forward pass


def dropout_masks(spec: NetworkSpec, batch_size: int, rng) -> dict:
    """Inverted-dropout masks, one per dropout layer, reusable across passes."""
    masks = {}
    for i, layer, in_desc, _, _ in spec.walk:
        if layer.kind == "dropout":
            keep = 1.0 - layer.rate
            # (draw < keep) / keep, on the draw's own array
            m = rng.random((batch_size,) + in_desc[1:])
            np.less(m, keep, out=m)
            m /= keep
            masks[i] = m
    return masks


def as_batch(spec: NetworkSpec, batch, dtype=np.float64):
    """`batch` as a (B, input_width) array of finite values in `dtype`."""
    batch = np.asarray(batch, dtype=dtype)
    if batch.ndim != 2 or batch.shape[1] != spec.input_width:
        raise ShapeMismatch(
            f"batch width {batch.shape} does not match input width {spec.input_width}")
    return check_finite(batch, "input batch")


def forward_var(spec: NetworkSpec, param_vars: dict, x: ad.Var, train=False,
                masks=None):
    """Forward pass over existing graph nodes; lets networks compose.

    Returns (output Var flattened to (B, out), relu sign patterns).
    """
    h = x
    relu_signs = []
    for i, layer, in_desc, wn, bn in spec.walk:
        if layer.kind == "fc":
            if h.data.ndim == 3:
                h = ad.reshape(h, (len(h.data), in_desc[1]))
            h = ad.add(ad.matmul(h, param_vars[wn]), param_vars[bn])
        elif layer.kind == "conv1d":
            if h.data.ndim == 2:
                h = ad.reshape(h, (len(h.data),) + in_desc[1:])
            h = ad.conv1d(h, param_vars[wn], param_vars[bn])
        elif layer.kind == "leaky_relu":
            pos = h.data > 0
            relu_signs.append(pos)
            h = ad.leaky_relu(h, layer.slope, pos=pos)
        elif layer.kind == "tanh":
            h = ad.tanh(h)
        elif layer.kind == "dropout":
            if train:
                h = ad.mul(h, masks[i])
        else:  # pragma: no cover
            raise ValueError(f"unknown layer kind {layer.kind}")
    if h.data.ndim == 3:
        h = ad.reshape(h, (len(h.data), -1))
    return h, relu_signs


def gradient_penalty(spec: NetworkSpec, params: ParamSet, x_hat, lam,
                     masks=None, train=False):
    """The penalty lambda * mean_batch (||grad_x D(x)||_2 - 1)^2 and its
    parameter gradients by name, by the layer-wise kernels below."""
    dtype = params.dtype
    x_hat = penalty_batch(spec, x_hat, dtype)
    if train and masks is None:
        masks = dropout_masks(spec, len(x_hat), np.random.default_rng(0))
    if train:
        masks = {i: m.astype(dtype, copy=False) for i, m in masks.items()}
    tensors = params.tensors
    caches = []
    out = forward(spec, tensors, x_hat, masks if train else None, caches)
    check_finite(out, "network output")
    grads = params.zeros()
    value, inject = penalty(spec, tensors, caches, out.shape, slice(None),
                            lam, grads)
    backward(spec, tensors, caches, np.zeros_like(out), grads=grads,
             inject=inject)
    return value, grads.tensors


def penalty_batch(spec: NetworkSpec, x_hat, dtype=np.float64):
    """The interpolates `x_hat` as a checked batch of at least one row."""
    x_hat = as_batch(spec, x_hat, dtype)
    if len(x_hat) == 0:
        raise EmptyBatch("the gradient penalty needs at least one row")
    return x_hat


# ---------------------------------------------------------------------------
# layer-wise kernels
#
# Training runs on plain arrays, one branch per layer kind over
# `spec.walk`: a forward pass that keeps per-layer caches, a first-order
# backward pass over them, and the gradient penalty's second-order sweep.
# The forward arithmetic of each layer is that of the autodiff primitives
# `forward_var` composes, so outputs are bit-identical to it; the backward
# passes are written by hand, and the tests check them against the
# engine's chain rule.
#
# Every pass computes in the dtype of its input and parameters, which the
# caller keeps alike (dropout masks and cotangents included); each array a
# pass allocates takes the dtype of the arrays it is computed from.
#
# A pass holds an array only while something still reads it. The forward
# pass drops a conv's input once its windows are unfolded. The caches live
# from the forward pass to the last backward pass over them, which consumes
# the list: `backward` sets each entry to None as it reads it and frees a
# layer's cache before it allocates that layer's input cotangent, so a
# conv's windows and their cotangent are never held at once. A caller that
# walks the caches again passes a copy, `list(caches)`, as `penalty` does
# for its first-order pass.
#
# Biases and the leaky ReLU, dropout and tanh factors are applied in place,
# but only to an array the pass itself allocated: each pass keeps one flag,
# `own`, for that. The caller's input, a cached array and a cotangent kept
# in `record` are never written, and neither is a parameter (only Adam
# writes those). In place or not, each element gets the same operations in
# the same order, so the results are bit-identical.
#
# The penalty's double backward has a closed form on these layers. The
# input gradient of sum D(x) is a backward pass, a chain of maps
# g_in = B_l(g_out) that are linear in g_out: fc (g W^T), conv (the conv's
# input adjoint: g times W's rows, folded back), leaky ReLU and dropout (g
# times a mask that is constant almost everywhere) and tanh (g (1 - y^2), y
# the layer's output). Differentiating the penalty through that chain runs
# bottom to top with the cotangent v of each g_in: v passes up as v W, the
# conv of v with W, v m or v (1 - y^2), each fc and conv weight gains
# <v, B_l(g_out)>'s weight derivative (v^T g_out, or g_out's rows times v's
# unfolded windows), and each tanh adds -2 y g_out v to the cotangent of
# its output y, which the ordinary backward pass then carries down to the
# weights. Biases enter only through that last term.


def _flat(h):
    return h.reshape(h.shape[0], h.shape[1] * h.shape[2]) if h.ndim == 3 else h


def _seq(h):
    return h.reshape(h.shape[0], h.shape[1], 1) if h.ndim == 2 else h


def forward(spec, params, x, masks=None, caches=None):
    """Forward pass on arrays: (B, input_width) -> (B, out).

    Dropout multiplies by `masks[i]`, and is skipped when `masks` is None.
    With a list `caches`, appends per layer its input shape and cache (an fc
    layer's flat input; a conv's unfolded `cols`; the leaky ReLU or dropout
    mask; the tanh output), then the output's shape. The arithmetic is that
    of `forward_var`, so the output is bit-identical to it. A conv's input
    is dropped once its windows are unfolded.
    """
    h = x
    own = False
    for i, layer, _, wn, bn in spec.walk:
        shape = h.shape
        kind = layer.kind
        if kind == "fc":
            cache = _flat(h)
            h = cache @ params[wn]
            h += params[bn]
            own = True
        elif kind == "conv1d":
            h = _seq(h)
            w = params[wn]
            o, k, c = w.shape
            bsz, length, _ = h.shape
            cache = _cols(h, k)
            del h  # read no more once unfolded
            h = cache.reshape(bsz * length, k * c) @ w.reshape(o, k * c).T
            h += params[bn]
            h = h.reshape(bsz, length, o)
            own = True
        elif kind == "leaky_relu":
            slope = layer.slope
            if caches is None:
                # the same values as h times the mask, on finite inputs
                cache = None
                t = h * slope
                h = (np.minimum if slope > 1 else np.maximum)(
                    h, t, out=h if own else t)
                del t
            else:
                # exactly 1 or slope, in less time than np.where(pos, 1.0, slope)
                pos = h > 0
                cache = np.multiply(~pos, slope, dtype=h.dtype)
                cache += pos
                del pos
                h = np.multiply(h, cache, out=h if own else None)
            own = True
        elif kind == "tanh":
            h = cache = np.tanh(h, out=h if own else None)
            # a cached output is read by the backward passes
            own = caches is None
        elif kind == "dropout":
            cache = None if masks is None else masks[i]
            if cache is not None:
                h = np.multiply(h, cache, out=h if own else None)
                own = True
        else:  # pragma: no cover
            raise ValueError(f"unknown layer kind {layer.kind}")
        if caches is not None:
            caches.append((shape, cache))
    if caches is not None:
        caches.append((h.shape, None))
    return _flat(h)


def _cols(h, k):
    """A conv's unfolded input (B, L, k*C): for a window of width 1, the
    input itself."""
    return h if k == 1 else ad._unfold_data(h, k, (k - 1) // 2)


def backward(spec, params, caches, g, rows=slice(None), grads=None,
             record=None, inject=None):
    """First-order backward pass from the output cotangent `g` (B', out)
    over the cached rows `rows`.

    With `grads`, a zeroed ParamSet of the parameters' layout, adds each
    parameter's gradient into it and stops at the first layer, returning
    None; without, skips the parameter gradients and returns the input
    cotangent (B', input_width). A dict `record`
    receives the output cotangent of each fc, conv1d and tanh layer, the
    ones `penalty` reads; `inject` is (rows, {i: array}) added to layer
    i's input cotangent on those rows.

    Consumes `caches`: each entry is set to None once read, and a layer's
    cache (a conv's windows, an fc layer's input) is freed before that
    layer's input cotangent is allocated. To walk the caches again, pass a
    copy, `list(caches)`.
    """
    n = len(g)
    g = g.reshape((n,) + caches[-1][0][1:])
    caches[-1] = None
    own = False
    for i, layer, _, wn, bn in reversed(spec.walk):
        shape, cache = caches[i]
        caches[i] = None
        kind = layer.kind
        if record is not None and kind in ("fc", "conv1d", "tanh"):
            record[i] = g
            own = False
        if kind == "fc":
            if grads is not None:
                grads.tensors[wn] += cache[rows].T @ g
                grads.tensors[bn] += g.sum(axis=0)
                if i == 0:
                    return None
            del cache  # the input, freed before its cotangent is allocated
            g = g @ params[wn].T
            own = True
        elif kind == "conv1d":
            w = params[wn]
            o, k, c = w.shape
            length = g.shape[1]
            if grads is not None:
                gm = g.reshape(n * length, o)
                cols = cache[rows].reshape(n * length, k * c)
                grads.tensors[wn] += (gm.T @ cols).reshape(o, k, c)
                grads.tensors[bn] += gm.sum(axis=0)
                if i == 0:
                    return None
                del gm, cols
            del cache  # the windows, freed before their cotangent is allocated
            g = g.reshape(n * length, o) @ w.reshape(o, k * c)
            g = ad._fold_data(g.reshape(n, length, k * c), k, (k - 1) // 2,
                              c, length)
            own = True
        elif grads is not None and i == 0:
            return None
        elif kind == "tanh":
            y = cache[rows]
            t = y * y
            np.subtract(1.0, t, out=t)
            g = np.multiply(g, t, out=g if own else t)
            own = True
        elif cache is not None:  # the leaky ReLU or dropout mask
            g = np.multiply(g, cache[rows], out=g if own else None)
            own = True
        if inject is not None and i in inject[1]:
            g[inject[0]] += inject[1][i]
        g = g.reshape((n,) + shape[1:])
    return g


def penalty(spec, params, caches, out_shape, rows, lam, grads):
    """The penalty lam * mean (||grad_x sum D(x)||_2 - 1)^2 over the cached
    rows `rows`, whose output has `out_shape`.

    Adds the penalty's weight terms to `grads` and returns (value, inject),
    `inject` being (rows, {i: term}) with the terms its tanh layers add to
    the forward pass's cotangent, for `backward(..., inject=inject)` to
    carry down (see above). Every array `v` passes through is the sweep's
    own, so it is scaled in place throughout.

    Leaves `caches` whole: its first-order pass walks a copy, because its
    sweep and the caller's final `backward` still read them.
    """
    record = {}
    gin = backward(spec, params, list(caches),
                   np.ones(out_shape, grads.dtype), rows, record=record)
    n = len(gin)
    norm = np.sqrt(np.sum(gin * gin, axis=1))
    value = float(np.sum(np.square(norm - 1.0)) * (1.0 / n) * lam)
    check_finite(value, "gradient penalty")
    # d value / d gin; the norm's derivative is taken as 0 where it is 0
    nz = norm != 0
    recip = np.where(nz, 1.0 / np.where(nz, norm, 1.0), 0.0)
    v = ((2.0 * lam / n) * (norm - 1.0) * recip)[:, None] * gin
    inject = {}
    for i, layer, _, wn, _ in spec.walk:
        cache = caches[i][1]
        kind = layer.kind
        if kind == "fc":
            v = _flat(v)
            grads.tensors[wn] += v.T @ record.pop(i)
            v = v @ params[wn]
        elif kind == "conv1d":
            v = _seq(v)
            w = params[wn]
            o, k, c = w.shape
            length = v.shape[1]
            vcols = _cols(v, k).reshape(n * length, k * c)
            gm = record.pop(i).reshape(n * length, o)
            grads.tensors[wn] += (gm.T @ vcols).reshape(o, k, c)
            del gm  # freed now, as each record once read: a lower peak
            v = (vcols @ w.reshape(o, k * c).T).reshape(n, length, o)
        elif kind == "leaky_relu":
            v *= cache[rows]
        elif kind == "tanh":
            y = cache[rows]
            slope = y * y
            np.subtract(1.0, slope, out=slope)
            # -2 y g_out v (1 - y^2), multiplied in that order
            term = y * -2.0
            term *= record.pop(i)
            term *= v
            term *= slope
            inject[i] = term
            v *= slope
        elif kind == "dropout":
            if cache is not None:
                v *= cache[rows]
    return value, (rows, inject)


# ---------------------------------------------------------------------------
# Adam


# Adam's step size, moment decay rates and denominator guard
LR = 1e-4
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """One training phase's Adam state for one network: the moments `m`
    and `v`, the step count `t`, and `grads`, the set each step clears and
    adds its gradients into. All three sets start as zero sets of the
    parameters' names, shapes and dtype. `step` and `tmp` are the flat
    scratch vectors `adam_step` writes its intermediates into."""

    def __init__(self, params: ParamSet):
        self.m = params.zeros()
        self.v = params.zeros()
        self.grads = params.zeros()
        self.t = 0
        self.step = np.empty_like(params.flat)
        self.tmp = np.empty_like(params.flat)

    def zero_grads(self) -> ParamSet:
        """`grads`, set to zero in place."""
        self.grads.flat.fill(0)
        return self.grads


def adam_step(params: ParamSet, grads: ParamSet, state: AdamState):
    """One bias-corrected Adam descent step over the flat vectors; updates
    `state` and `params.flat` in place and does not write `grads`. Per
    element it runs the operations of m = b1 m + (1 - b1) g,
    v = b2 v + (1 - b2) g g and
    p - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps), in that order.
    """
    p, g, m, v = params.flat, grads.flat, state.m.flat, state.v.flat
    if not p.shape == g.shape == m.shape:
        raise ShapeMismatch(f"{g.size} gradients and {p.size} parameters, "
                            f"where Adam's state holds {m.size}")
    state.t += 1
    t, step, tmp = state.t, state.step, state.tmp
    np.multiply(g, 1 - BETA1, out=step)
    m *= BETA1
    m += step
    np.multiply(g, 1 - BETA2, out=tmp)
    tmp *= g
    v *= BETA2
    v += tmp
    np.divide(v, 1 - BETA2 ** t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += EPS
    np.divide(m, 1 - BETA1 ** t, out=step)
    step *= LR
    step /= tmp
    p -= step
