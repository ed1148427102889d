"""Layer specs, parameter sets, network forward passes and Adam.

The five layer kinds here are exactly what the generator/critic pair needs:
fully-connected, 1-D convolution (stride 1, zero same-padding), leaky ReLU,
tanh and inverted dropout.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteValue, ShapeMismatch, Var, check_finite


class ArchiveError(ValueError):
    """A serialized model (an archive or a parameter blob) is truncated or
    malformed. Defined here, with the innermost byte format; archive
    re-exports it."""


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

    def to_dict(self):
        return {
            "input_width": self.input_width,
            "layers": [vars(l) for l in self.layers],
        }

    @staticmethod
    def from_dict(d):
        """Inverse of to_dict; raises InvalidSpec on a malformed dict."""
        kinds = {
            "fc": lambda l: FullyConnected(l["out_size"]),
            "conv1d": lambda l: Conv1d(l["out_channels"], l["kernel_width"]),
            "leaky_relu": lambda l: LeakyRelu(l["slope"]),
            "tanh": lambda l: Tanh(),
            "dropout": lambda l: Dropout(l["rate"]),
        }
        try:
            return NetworkSpec(d["input_width"],
                               tuple(kinds[l["kind"]](l) for l in d["layers"]))
        except (KeyError, TypeError) as e:
            raise InvalidSpec(f"malformed network spec: {e!r}") from e


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

    def to_bytes(self):
        buf = io.BytesIO()
        names = sorted(self.tensors)
        header = json.dumps({n: list(self.tensors[n].shape) for n in names})
        hb = header.encode()
        buf.write(len(hb).to_bytes(8, "little"))
        buf.write(hb)
        for n in names:
            buf.write(np.ascontiguousarray(self.tensors[n], dtype=np.float64).tobytes())
        return buf.getvalue()

    @staticmethod
    def from_bytes(raw):
        """Inverse of to_bytes; raises ArchiveError on truncated or
        malformed input."""
        n = read_length(raw, 0, "parameter blob")
        try:
            header = json.loads(raw[8:8 + n].decode())
            shapes = {name: [int(d) for d in shape]
                      for name, shape in header.items()}
        except (ValueError, TypeError, AttributeError) as e:
            raise ArchiveError(f"parameter blob: unreadable header: {e}") from e
        off = 8 + n
        tensors = {}
        for name, shape in shapes.items():
            size = 8 * math.prod(shape)
            if min(shape, default=0) < 0 or size > len(raw) - off:
                raise ArchiveError(
                    f"parameter blob: tensor {name} {shape} needs {size} "
                    f"bytes at byte {off}, {len(raw) - off} left")
            arr = np.frombuffer(raw[off:off + size], dtype=np.float64)
            tensors[name] = arr.reshape(shape).copy()
            off += size
        if off != len(raw):
            raise ArchiveError(f"parameter blob: {len(raw) - off} bytes "
                               "left after the last tensor")
        return ParamSet(tensors)


def read_length(buf, off, what):
    """The 8-byte little-endian length prefix at off, checked to fit in buf
    after the prefix."""
    if len(buf) - off < 8:
        raise ArchiveError(f"{what}: truncated length prefix at byte {off}")
    n = int.from_bytes(buf[off:off + 8], "little")
    if n > len(buf) - off - 8:
        raise ArchiveError(f"{what}: length {n} at byte {off} runs past the "
                           f"end ({len(buf) - off - 8} bytes left)")
    return n


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


def penalty_var(spec: NetworkSpec, param_vars: dict, x_hat, lam,
                masks=None, train=False):
    """The penalty lambda * mean_batch (||grad_x D(x)||_2 - 1)^2 as a Var.

    Built reverse-over-reverse: the inner input gradient stays differentiable,
    so a later `grad` of the result with respect to `param_vars` gives exact
    parameter gradients of the penalty.
    """
    x_hat = as_batch(spec, x_hat)
    if len(x_hat) == 0:
        raise EmptyBatch("the gradient penalty needs at least one row")
    x = Var(x_hat, requires_grad=True)
    out, _ = forward_var(spec, param_vars, x, train=train, masks=masks)
    check_finite(out.data, "network output")
    (gin,) = ad.grad(ad.sum_(out), [x], create_graph=True)  # (B, d) per-sample
    norm = ad.sqrt(ad.sum_(ad.square(gin), axis=1))         # (B,)
    penalty = ad.scale(ad.mean(ad.square(norm - 1.0)), lam)
    check_finite(penalty.data, "gradient penalty")
    return penalty


def gradient_penalty(spec: NetworkSpec, params: ParamSet, x_hat, lam,
                     masks=None, train=False):
    """The penalty value (see `penalty_var`) and its parameter gradients."""
    if train and masks is None:
        masks = dropout_masks(spec, len(x_hat), np.random.default_rng(0))
    param_vars = {name: ad.leaf(arr) for name, arr in params.tensors.items()}
    penalty = penalty_var(spec, param_vars, x_hat, lam, masks=masks, train=train)
    names = list(param_vars)
    grads = ad.grad(penalty, [param_vars[n] for n in names])
    return penalty.item(), {n: g.data for n, g in zip(names, grads)}


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
    """One bias-corrected Adam descent step; mutates `state`, returns new params."""
    state.t += 1
    t = state.t
    new = {}
    for name, p in params.tensors.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} != param shape {p.shape} for {name}")
        state.m[name] = state.beta1 * state.m[name] + (1 - state.beta1) * g
        state.v[name] = state.beta2 * state.v[name] + (1 - state.beta2) * g * g
        mhat = state.m[name] / (1 - state.beta1 ** t)
        vhat = state.v[name] / (1 - state.beta2 ** t)
        new[name] = p - state.lr * mhat / (np.sqrt(vhat) + state.eps)
    return ParamSet(new)
