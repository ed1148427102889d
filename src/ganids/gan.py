"""WGAN-GP with a transfer-pretraining phase for minority-class synthesis.

The critic trains on mean D(fake) - mean D(real) plus the gradient penalty;
the generator on -mean D(G(z)). Pretraining runs this loop on normal traffic;
fine-tuning copies the pretrained weights and continues on a single minority
class. A model is its networks' specs and weights: no training setting,
optimizer state, phase or seed. Each phase takes its seed and config as
arguments and builds one Adam state per network, starting from zero, which
updates the weights in place; the caller orders the phases.

The steps and synthesis run `nn`'s layer-wise kernels on plain arrays and
build no autodiff graph; the graph engine is their test reference. A GAN's
networks train and synthesize in `DTYPE`; the tests run the same kernels on
float64 casts of them.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import Dataset, EmptyDataset, PreprocessPlan, inverse_transform
from .errors import check_finite


CRITIC_STEPS = 5  # critic updates per generator update

# the precision of a GAN's parameters, and so of its steps and synthesis;
# WGAN-GP (Gulrajani et al., 2017) trains in single precision
DTYPE = np.float32


class InvalidDimension(ValueError):
    pass


@dataclass
class GanConfig:
    lam: float = 10.0
    batch_size: int = 64
    stop_delta: float = 0.02
    finetune_stop_delta: float = 0.01
    stop_window: int = 50
    max_steps: int = 20000

    def __post_init__(self):
        if not (0 <= self.lam < math.inf and self.batch_size >= 1
                and self.stop_window >= 1 and self.max_steps >= 0):
            raise ValueError("invalid GAN configuration: needs a finite "
                             "lam >= 0, batch_size >= 1, stop_window >= 1 "
                             "and max_steps >= 0")
        # the stop rule's EMA is never <= a NaN or negative delta, and every
        # phase would run to max_steps
        for name in ("stop_delta", "finetune_stop_delta"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got "
                                 f"{getattr(self, name)!r}")


@dataclass
class StepRecord:
    step: int
    loss_d: float
    loss_g: float
    wasserstein: float
    gp: float


@dataclass
class TrainTrace:
    records: list = field(default_factory=list)
    stop_reason: str = ""

    @property
    def steps_to_stop(self):
        return len(self.records)

    def rows(self):
        return [(r.step, r.loss_d, r.loss_g, r.wasserstein, r.gp)
                for r in self.records]


@dataclass(eq=False)
class GanModel:
    """A generator/critic pair: the networks' specs and weights."""

    g_spec: nn.NetworkSpec
    g_params: nn.ParamSet
    d_spec: nn.NetworkSpec
    d_params: nn.ParamSet

    @property
    def feature_dim(self):
        return self.d_spec.input_width

    @property
    def noise_dim(self):
        return self.g_spec.input_width


def generator_spec(feature_dim):
    return nn.NetworkSpec(feature_dim, (
        nn.FullyConnected(feature_dim), nn.LeakyRelu(0.2),
        nn.Conv1d(64, 3), nn.LeakyRelu(0.2),
        nn.Conv1d(32, 3), nn.LeakyRelu(0.2),
        nn.Conv1d(1, 1),
    ))


def critic_spec(feature_dim):
    return nn.NetworkSpec(feature_dim, (
        nn.Conv1d(32, 3), nn.LeakyRelu(0.2),
        nn.FullyConnected(64), nn.LeakyRelu(0.2),
        nn.Dropout(0.4),
        nn.FullyConnected(1), nn.Tanh(),
    ))


def network_specs(feature_dim):
    """The (generator, critic) specs of a GAN over `feature_dim` features,
    G drawing noise as wide; the archive rebuilds a saved model from them."""
    if feature_dim < 1:
        raise InvalidDimension(f"feature_dim must be >= 1, got {feature_dim}")
    return generator_spec(feature_dim), critic_spec(feature_dim)


def build_gan(feature_dim, seed) -> GanModel:
    """G's weights are `nn.init_params`' float64 draw from `seed` (>= 0) and
    D's the draw from `seed + 1`, each cast to `DTYPE`."""
    g_spec, d_spec = network_specs(feature_dim)
    g_params = nn.init_params(g_spec, seed).astype(DTYPE)
    d_params = nn.init_params(d_spec, seed + 1).astype(DTYPE)
    return GanModel(g_spec, g_params, d_spec, d_params)


# glibc's mallopt parameter M_TOP_PAD, and the freed heap kept at its top
_M_TOP_PAD = -2
_KEPT_HEAP_BYTES = 128 << 20


@functools.cache
def _keep_freed_heap():
    """Ask glibc, once per process, to keep up to 128 MB of freed memory at
    the top of the heap.

    Each training step frees its arrays when it returns. By default glibc
    then returns the top of the heap to the system, and the next step
    faults the same pages in again: 1.6-5.9k minor faults per step at width
    122, batch 64. The setting holds for the whole process; a no-op off
    Linux.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _KEPT_HEAP_BYTES)


def critic_grads(model: GanModel, grads, real_batch, rng, lam,
                 fake_batch=None):
    """Critic parameter gradients of mean D(fake) - mean D(real) + penalty,
    the penalty weighted by `lam`.

    Adds the gradients into `grads`, a zeroed ParamSet of the critic's
    layout, and returns (loss_d, wasserstein_estimate, gp_value). Fake, real
    and interpolated rows go through one forward pass with the dropout mask
    tiled three times. The penalty's input gradient and second-order sweep
    run on the interpolated rows, and one backward pass over all rows
    (cotangents +-1/n on the fake and real rows, the penalty's tanh terms on
    the interpolated ones) gives the gradients. `fake_batch` overrides the
    generator's samples (test harness hook). The noise, `eps` and the mask
    are drawn in float64 and cast to the parameters' dtype, which every
    array of the step then has."""
    d_spec, params = model.d_spec, model.d_params.tensors
    dtype = model.d_params.dtype
    real = nn.as_batch(d_spec, real_batch, dtype)
    n = real.shape[0]
    if fake_batch is None:
        z = rng.standard_normal((n, model.noise_dim))
        fake = nn._forward(model.g_spec, model.g_params.tensors,
                           z.astype(model.g_params.dtype))
    else:
        fake = nn.as_batch(d_spec, fake_batch, dtype)

    eps = rng.random((n, 1)).astype(dtype)
    x_hat = eps * real + (1.0 - eps) * fake

    # one dropout mask per critic step, shared by the fake, real and
    # interpolated rows so the penalty differentiates a fixed function
    masks = nn.dropout_masks(d_spec, n, rng)
    x_hat = nn.penalty_batch(d_spec, x_hat, dtype)
    caches = []
    out = nn._forward(d_spec, params, np.concatenate([fake, real, x_hat]),
                      {i: np.concatenate([m, m, m], dtype=dtype)
                       for i, m in masks.items()},
                      caches)
    check_finite(out[2 * n:], "network output")
    hat = slice(2 * n, None)
    gp_val, inject = nn._penalty(d_spec, params, caches, out[hat].shape, hat,
                                 lam, grads)
    sign = np.zeros_like(out)
    sign[:n] = 1.0 / n
    sign[n:2 * n] = -1.0 / n
    nn._backward(d_spec, params, caches, sign, grads=grads, inject=inject)

    mean_f = float(out[:n].mean())
    mean_r = float(out[n:2 * n].mean())
    loss_d = mean_f - mean_r + gp_val
    check_finite([loss_d], "critic loss")
    return loss_d, mean_r - mean_f, gp_val


def critic_step(model: GanModel, adam: nn.AdamState, real_batch, rng, lam,
                fake_batch=None):
    """One critic update by `adam`, the phase's Adam state of the critic.
    Returns (loss_d, wasserstein_estimate, gp_value).

    `fake_batch` overrides the generator's samples (test harness hook)."""
    _keep_freed_heap()
    grads = adam.zero_grads()
    losses = critic_grads(model, grads, real_batch, rng, lam, fake_batch)
    nn.adam_step(model.d_params, grads, adam)
    return losses


def generator_step(model: GanModel, adam: nn.AdamState, rng, n):
    """One generator update on -mean D(G(z)) over n noise rows by `adam`,
    the phase's Adam state of the generator; D is left untouched."""
    _keep_freed_heap()
    g_params, d_params = model.g_params.tensors, model.d_params.tensors
    z = rng.standard_normal((n, model.noise_dim))
    g_caches = []
    fake = nn._forward(model.g_spec, g_params,
                       z.astype(model.g_params.dtype), caches=g_caches)
    masks = nn.dropout_masks(model.d_spec, n, rng)
    dtype = model.d_params.dtype
    d_caches = []
    out = nn._forward(model.d_spec, d_params, fake,
                      {i: m.astype(dtype) for i, m in masks.items()},
                      d_caches)
    loss_g = -(np.sum(out) * (1.0 / out.size))
    # checked before the update, so a non-finite loss leaves G and its
    # optimizer state as they were
    check_finite(loss_g, "generator loss")
    g_fake = nn._backward(model.d_spec, d_params, d_caches,
                          np.full(out.shape, -1.0 / out.size, dtype))
    grads = adam.zero_grads()
    nn._backward(model.g_spec, g_params, g_caches, g_fake, grads=grads)
    nn.adam_step(model.g_params, grads, adam)
    return float(loss_g)


class _StopRule:
    """EMA of |Wasserstein estimate| must stay <= delta for `window`
    consecutive critic steps. The EMA starts at 1.0 so an untrained pair
    cannot trigger the rule before it has actually converged."""

    def __init__(self, delta, window, decay=0.99):
        self.delta = delta
        self.window = window
        self.decay = decay
        self.ema = 1.0
        self.run = 0

    def update(self, w_estimate):
        self.ema = self.decay * self.ema + (1 - self.decay) * abs(w_estimate)
        self.run = self.run + 1 if self.ema <= self.delta else 0
        return self.run >= self.window


def _train_loop(model: GanModel, data: Dataset, seed, cfg: GanConfig,
                stop_delta):
    if len(data) == 0:
        raise EmptyDataset("GAN training needs a non-empty dataset")
    if not data.encoded:
        raise ValueError("GAN training expects an encoded dataset")
    rng = np.random.default_rng(seed)
    matrix = np.asarray(data.features, dtype=model.d_params.dtype)
    g_adam, d_adam = nn.AdamState(model.g_params), nn.AdamState(model.d_params)
    trace = TrainTrace()
    stop = _StopRule(stop_delta, cfg.stop_window)
    loss_g = float("nan")
    order = rng.permutation(len(matrix))
    pos = 0
    trace.stop_reason = "max_steps"
    # a generator step after every CRITIC_STEPS critic steps, unless the
    # phase ends there
    for step in range(1, cfg.max_steps + 1):
        if pos + cfg.batch_size > len(order):
            order = rng.permutation(len(matrix))
            pos = 0
        batch = matrix[order[pos:pos + cfg.batch_size]]
        pos += cfg.batch_size
        loss_d, w_est, gp = critic_step(model, d_adam, batch, rng, cfg.lam)
        trace.records.append(StepRecord(step, loss_d, loss_g, w_est, gp))
        if stop.update(w_est):
            trace.stop_reason = "criterion"
            break
        if step % CRITIC_STEPS == 0 and step < cfg.max_steps:
            loss_g = generator_step(model, g_adam, rng, cfg.batch_size)
    return trace


def pretrain(model: GanModel, normal_data: Dataset, seed, cfg: GanConfig):
    """Train on normal traffic under `cfg`, drawing from `seed`, until the
    stop rule fires at `cfg.stop_delta`; returns the model, trained in
    place, and its trace."""
    return model, _train_loop(model, normal_data, seed, cfg, cfg.stop_delta)


def finetune(pretrained: GanModel, minority_data: Dataset, seed,
             cfg: GanConfig):
    """Continue training on one minority class from the pretrained weights,
    under `cfg` and its `finetune_stop_delta`.

    Weights are copied exactly; Adam starts from zero and the batches, noise
    and masks draw from `seed` (>= 0), as in every phase. The ablation's arm
    without pretraining fine-tunes a model pretrained for 0 steps: the
    untrained weights of `build_gan`."""
    model = dataclasses.replace(
        pretrained, g_params=pretrained.g_params.copy(),
        d_params=pretrained.d_params.copy())
    return model, _train_loop(model, minority_data, seed, cfg,
                              cfg.finetune_stop_delta)


def synthesize(generator: GanModel, n, plan: PreprocessPlan, seed, schema,
               class_name) -> Dataset:
    """Draw n rows of class `class_name` from a fine-tuned generator,
    decoded into raw space."""
    rng = np.random.default_rng(seed)
    outs = []
    remaining = n
    while remaining > 0:
        k = min(remaining, 512)
        z = rng.standard_normal((k, generator.noise_dim))
        out = nn._forward(generator.g_spec, generator.g_params.tensors,
                          z.astype(generator.g_params.dtype))
        check_finite(out, "network output")
        outs.append(np.clip(out, 0.0, 1.0))
        remaining -= k
    matrix = np.vstack(outs) if outs else np.zeros((0, generator.feature_dim))
    raw = inverse_transform(matrix, plan)
    labels = np.full(n, schema.class_id(class_name), dtype=np.int64)
    return Dataset(raw, labels, schema, encoded=False,
                   feature_names=[t[0] for t in plan.transforms],
                   synthetic=np.ones(n, dtype=bool),
                   levels=plan.level_tables())
