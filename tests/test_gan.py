"""Tests for the adversarial training loops and the transfer mechanism."""

import gc
import os
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import (ELEMENTWISE_FIRST, encoded_dataset, float64_model,
                      unit_plan)

from ganids import autodiff as ad
from ganids import gan, nn
from ganids.data import inverse_transform, preprocess
from ganids.errors import NonFiniteValue

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def small_cfg(**kw):
    base = dict(batch_size=16, stop_window=5, max_steps=20)
    base.update(kw)
    return gan.GanConfig(**base)


LAM = small_cfg().lam  # the penalty weight the steps take by default


def normal_dataset(n=200, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    x = np.clip(rng.normal(0.5, 0.1, size=(n, dim)), 0, 1)
    return encoded_dataset(x, np.zeros(n), ["normal", "attack"])


def linear_critic_model(w):
    d_spec = nn.NetworkSpec(2, (nn.FullyConnected(1),))
    d_params = nn.ParamSet({"l0.w": np.asarray(w, dtype=np.float64),
                            "l0.b": np.zeros(1)})
    g_spec = gan.generator_spec(2)
    return gan.GanModel(g_spec, nn.init_params(g_spec, 0), d_spec, d_params)


def critic_step(model, real_batch, rng, fake_batch=None, lam=LAM):
    """One critic step with a fresh Adam state."""
    return gan.critic_step(model, nn.AdamState(model.d_params), real_batch,
                           rng, lam, fake_batch)


def generator_step(model, rng, n=16):
    """One generator step on n noise rows with a fresh Adam state."""
    return gan.generator_step(model, nn.AdamState(model.g_params), rng, n)


def critic_grads(model, real, rng, lam=LAM):
    """`gan.critic_grads` into a zeroed set: (grads by name, loss_d,
    wasserstein estimate, gp)."""
    grads = model.d_params.zeros()
    return (grads.tensors,) + gan.critic_grads(model, grads, real, rng, lam)


def test_build_gan_shapes():
    model = gan.build_gan(41, 0)
    out = nn.forward(model.g_spec, model.g_params.tensors,
                     np.zeros((3, 41), gan.DTYPE))
    assert out.shape == (3, 41)
    d_out = nn.forward(model.d_spec, model.d_params.tensors, out)
    assert d_out.shape == (3, 1)


def test_build_gan_rejects_zero_dim():
    with pytest.raises(gan.InvalidDimension):
        gan.build_gan(0, 0)


def test_critic_output_bounded_by_tanh():
    model = gan.build_gan(8, 0)
    x = np.random.default_rng(0).standard_normal((64, 8)) * 5
    out = nn.forward(model.d_spec, model.d_params.tensors, x.astype(gan.DTYPE))
    assert np.all(np.abs(out) <= 1.0)


def test_critic_step_zero_lambda_fake_equals_real():
    model = linear_critic_model([[3.0], [4.0]])
    rng = np.random.default_rng(0)
    batch = np.array([[0.4, 0.6], [0.1, 0.9]])
    loss_d, w_est, gp = critic_step(model, batch, rng, fake_batch=batch,
                                    lam=0.0)
    assert loss_d == 0.0
    assert w_est == 0.0
    assert gp == 0.0


def test_critic_step_linear_closed_form():
    # w=(3,4), lam=10, real (1,0), fake (0,1): loss = (4-3) + 160 = 161
    model = linear_critic_model([[3.0], [4.0]])
    rng = np.random.default_rng(0)
    loss_d, w_est, gp = critic_step(model, [[1.0, 0.0]], rng,
                                    fake_batch=[[0.0, 1.0]], lam=10.0)
    assert np.isclose(loss_d, 161.0, atol=1e-9)
    assert np.isclose(gp, 160.0, atol=1e-9)
    assert np.isclose(w_est, -1.0)


def _critic_grads_reference(model, real, rng, lam):
    """Critic gradients as three forward passes and four `grad` calls:
    fake and real losses each differentiated on their own tape, and the
    penalty, weighted by lam, through an input gradient and a parameter
    gradient."""
    n = real.shape[0]
    z = rng.standard_normal((n, model.noise_dim))
    fake = ref.graph_forward(model.g_spec, model.g_params, z)[0].data
    eps = rng.random((n, 1))
    x_hat = eps * real + (1.0 - eps) * fake
    masks = nn.dropout_masks(model.d_spec, n, rng)
    out_f, tape_f = ref.graph_forward(model.d_spec, model.d_params, fake,
                                      masks)
    out_r, tape_r = ref.graph_forward(model.d_spec, model.d_params, real,
                                      masks)
    out_h, tape_h = ref.graph_forward(model.d_spec, model.d_params, x_hat,
                                      masks)
    gin = ref.grad_input(ad.sum_(out_h), tape_h, create_graph=True)
    norm = ad.sqrt(ad.sum_(ad.square(gin), axis=1))
    penalty = lam * ad.mean(ad.square(norm - 1.0))
    g_p = ref.grad_params(penalty, tape_h)
    g_f = ref.grad_params(ad.mean(out_f), tape_f)
    g_r = ref.grad_params(ad.mean(out_r), tape_r)
    grads = {k: g_f[k].data - g_r[k].data + g_p[k].data
             for k in model.d_params.tensors}
    mean_f, mean_r = float(out_f.data.mean()), float(out_r.data.mean())
    return grads, mean_f - mean_r + penalty.item(), mean_r - mean_f, \
        penalty.item()


@pytest.mark.parametrize("d_layers", [
    None,  # the critic architecture
    (nn.Conv1d(4, 5), nn.LeakyRelu(0.1), nn.Dropout(0.3),
     nn.FullyConnected(1)),
    (nn.FullyConnected(6), nn.Tanh(), nn.Dropout(0.5), nn.FullyConnected(3),
     nn.LeakyRelu(0.3), nn.FullyConnected(1)),
])
@pytest.mark.parametrize("dim,seed", [(3, 0), (8, 1), (11, 2)])
def test_critic_grads_match_three_pass_reference(d_layers, dim, seed):
    cfg = small_cfg(lam=10.0)
    model = float64_model(gan.build_gan(dim, seed))
    if d_layers is not None:
        model.d_spec = nn.NetworkSpec(dim, d_layers)
        model.d_params = nn.init_params(model.d_spec, seed + 5)
    real = np.random.default_rng(seed + 9).random((cfg.batch_size, dim))
    got = critic_grads(model, real, np.random.default_rng(seed), cfg.lam)
    want = _critic_grads_reference(model, real, np.random.default_rng(seed),
                                   cfg.lam)
    for k, ref in want[0].items():
        err = np.linalg.norm(got[0][k] - ref)
        assert err <= 1e-10 * max(np.linalg.norm(ref), 1e-300), k
    np.testing.assert_allclose(got[1:], want[1:], rtol=1e-12, atol=1e-12)


def _assert_grads_close(got, want):
    # relative per tensor; a gradient that cancels to (near) zero, such as
    # a bias that fake and real rows pull equally, is held to 1e-13 of the
    # whole gradient's norm and 1e-14 absolute, far above the rounding noise
    # of its O(1) terms
    assert set(got) == set(want)
    total = np.sqrt(sum(np.sum(g * g) for g in want.values()))
    for k, ref in want.items():
        err = np.linalg.norm(got[k] - ref)
        assert err <= 1e-10 * max(np.linalg.norm(ref), 1e-3 * total, 1e-4), k


def _generator_grads_reference(model, rng, n):
    """Generator gradients of -mean D(G(z)) over n noise rows through the
    autodiff engine."""
    z = rng.standard_normal((n, model.noise_dim))
    g_vars = {k: ad.leaf(v) for k, v in model.g_params.tensors.items()}
    fake, _ = nn.forward_var(model.g_spec, g_vars, ad.Var(z), train=True)
    masks = nn.dropout_masks(model.d_spec, n, rng)
    d_vars = {k: ad.asvar(v) for k, v in model.d_params.tensors.items()}
    out, _ = nn.forward_var(model.d_spec, d_vars, fake, train=True,
                            masks=masks)
    loss = -ad.mean(out)
    names = list(g_vars)
    gs = ad.grad(loss, [g_vars[k] for k in names])
    return {k: g.data for k, g in zip(names, gs)}, loss.item()


_layers = st.one_of(
    st.builds(nn.FullyConnected, st.integers(1, 7)),
    st.builds(nn.Conv1d, st.integers(1, 5), st.sampled_from([1, 3, 5])),
    st.builds(nn.LeakyRelu, st.floats(0.0, 1.5)),
    st.just(nn.Tanh()),
    st.builds(nn.Dropout, st.floats(0.0, 0.7)),
)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 7), body=st.lists(_layers, max_size=5),
       head=st.sampled_from([(), (nn.Tanh(),), (nn.LeakyRelu(0.3),)]),
       batch=st.integers(1, 6), seed=st.integers(0, 2**16))
@example(dim=2, body=[nn.Conv1d(3, 5), nn.Tanh(), nn.Dropout(0.3),
                      nn.LeakyRelu(0.1), nn.Conv1d(2, 3), nn.Dropout(0.5)],
         head=(nn.Tanh(),), batch=4, seed=1)
def test_step_gradients_match_autodiff_on_random_critics(dim, body, head,
                                                        batch, seed):
    # the layer-wise kernels against the graph engine on sequential critics
    # of every layer kind: conv with k up to 5 on lengths from 1, dropout
    # masks of both ranks, tanh anywhere
    cfg = small_cfg(batch_size=batch, lam=10.0)
    model = float64_model(gan.build_gan(dim, seed % 100))
    model.d_spec = nn.NetworkSpec(dim, tuple(body) + (nn.FullyConnected(1),)
                                  + head)
    model.d_params = nn.init_params(model.d_spec, seed)
    real = np.random.default_rng(seed + 1).random((batch, dim))
    got = critic_grads(model, real, np.random.default_rng(seed), cfg.lam)
    want = _critic_grads_reference(model, real, np.random.default_rng(seed),
                                   cfg.lam)
    _assert_grads_close(got[0], want[0])
    np.testing.assert_allclose(got[1:], want[1:], rtol=1e-10, atol=1e-12)

    updates = []
    with mock.patch.object(nn, "adam_step",
                           lambda p, g, state: updates.append(g)):
        loss_g = generator_step(model, np.random.default_rng(seed),
                                cfg.batch_size)
    want_g, want_loss = _generator_grads_reference(
        model, np.random.default_rng(seed), cfg.batch_size)
    _assert_grads_close(updates[0].tensors, want_g)
    assert np.isclose(loss_g, want_loss, rtol=1e-12, atol=1e-15)


def test_training_steps_build_no_autodiff_nodes(monkeypatch):
    # the training steps, the penalty and synthesis run on plain arrays
    model = gan.build_gan(6, 0)
    rng = np.random.default_rng(0)

    def refuse(self, *args, **kwargs):
        raise AssertionError("an autodiff node was built")

    monkeypatch.setattr(ad.Var, "__init__", refuse)
    critic_step(model, rng.random((16, 6)), rng)
    generator_step(model, rng)
    nn.gradient_penalty(model.d_spec, model.d_params, rng.random((16, 6)),
                        10.0, train=True)
    _synthesize_600(model)


def test_critic_step_rejects_empty_batch():
    model = gan.build_gan(4, 0)
    d_flat = model.d_params.flat.copy()
    with pytest.raises(nn.EmptyBatch):
        critic_step(model, np.zeros((0, 4)), np.random.default_rng(0))
    assert np.array_equal(model.d_params.flat, d_flat)


def test_critic_step_updates_critic_only():
    model = gan.build_gan(4, 0)
    g_flat = model.g_params.flat.copy()
    d_flat = model.d_params.flat.copy()
    critic_step(model, np.random.default_rng(1).random((16, 4)),
                np.random.default_rng(2))
    assert np.array_equal(model.g_params.flat, g_flat)
    assert not np.array_equal(model.d_params.flat, d_flat)


def test_steps_update_the_weights_in_place():
    model = gan.build_gan(4, 0)
    g_flat, d_flat = model.g_params.flat, model.d_params.flat
    g_before, d_before = g_flat.copy(), d_flat.copy()
    rng = np.random.default_rng(1)
    critic_step(model, rng.random((16, 4)), rng)
    generator_step(model, rng)
    assert model.g_params.flat is g_flat and model.d_params.flat is d_flat
    assert not np.array_equal(d_flat, d_before)
    assert not np.array_equal(g_flat, g_before)


def test_each_phase_starts_from_a_fresh_adam_state(monkeypatch):
    calls = []  # (phase, Adam state, its t and zero moments before the step)
    phase = ["pretrain"]
    adam_step = nn.adam_step

    def recording(params, grads, state):
        assert grads is state.grads
        zero = not (state.m.flat.any() or state.v.flat.any())
        calls.append((phase[0], state, state.t, zero))
        adam_step(params, grads, state)

    monkeypatch.setattr(nn, "adam_step", recording)
    cfg = small_cfg(max_steps=7)  # both phases take generator steps
    model, _ = gan.pretrain(gan.build_gan(4, 0), normal_dataset(), 0, cfg)
    phase[0] = "finetune"
    gan.finetune(model, normal_dataset(seed=1), 0, cfg)
    # `calls` keeps every state alive, so no two share an id
    first = {}
    for name, state, t, zero in calls:
        first.setdefault(id(state), (name, t, zero))
    # a critic and a generator state per phase, none carried into the next
    assert sorted(first.values()) == [("finetune", 0, True)] * 2 \
        + [("pretrain", 0, True)] * 2


def test_generator_step_constant_critic():
    model = gan.build_gan(3, 0)
    zeroed = {k: np.zeros_like(v) for k, v in model.d_params.tensors.items()}
    zeroed["l5.b"] = np.array([0.3])  # critic output = tanh(0.3) everywhere
    model.d_params = nn.ParamSet(zeroed)
    g_flat = model.g_params.flat.copy()
    loss_g = generator_step(model, np.random.default_rng(0))
    assert np.isclose(loss_g, -np.tanh(0.3))
    # constant critic -> zero generator gradient -> parameters unchanged
    assert np.array_equal(model.g_params.flat, g_flat)


def test_generator_step_determinism():
    results = []
    for _ in range(2):
        model = gan.build_gan(4, 0)
        loss = generator_step(model, np.random.default_rng(3))
        results.append((loss, model.g_params.flat.copy()))
    assert results[0][0] == results[1][0]
    assert np.array_equal(results[0][1], results[1][1])


def test_generator_step_nonfinite_loss_leaves_generator_unchanged():
    model = gan.build_gan(4, 0)
    model.d_params.tensors["l0.w"][0, 0, 0] = np.nan
    g_flat = model.g_params.flat.copy()
    adam = nn.AdamState(model.g_params)
    m_before = adam.m.flat.copy()
    with pytest.raises(NonFiniteValue):
        gan.generator_step(model, adam, np.random.default_rng(0), 16)
    assert np.array_equal(model.g_params.flat, g_flat)
    assert adam.t == 0
    assert np.array_equal(adam.m.flat, m_before)


def test_stop_rule_fires_after_window_below_delta():
    rule = gan._StopRule(delta=0.5, window=3, decay=0.0)  # ema = |w| directly
    seq = [2.0, 0.4, 0.4, 0.4]
    fired = [rule.update(w) for w in seq]
    assert fired == [False, False, False, True]


def test_stop_rule_resets_on_spike():
    rule = gan._StopRule(delta=0.5, window=3, decay=0.0)
    assert not any(rule.update(w) for w in [0.1, 0.1, 2.0, 0.1, 0.1])
    assert rule.update(0.1)


def test_stop_rule_ema_starts_high():
    # an immediately tiny estimate must not trigger before the EMA decays
    rule = gan._StopRule(delta=0.02, window=1, decay=0.99)
    assert not rule.update(0.0)


def test_pretrain_zero_steps():
    cfg = small_cfg(max_steps=0)
    model = gan.build_gan(4, 0)
    g_flat = model.g_params.flat.copy()
    model, trace = gan.pretrain(model, normal_dataset(), 0, cfg)
    assert trace.records == []
    assert trace.stop_reason == "max_steps"
    assert np.array_equal(model.g_params.flat, g_flat)


def test_pretrain_trains_under_the_config_it_is_given(monkeypatch):
    cfg = small_cfg(batch_size=8, max_steps=12, lam=3.0)
    sizes, lams = [], []
    masks, penalty = nn.dropout_masks, nn.penalty

    def recording_masks(spec, batch_size, rng):
        # each critic and generator step draws one mask set for its batch
        sizes.append(batch_size)
        return masks(spec, batch_size, rng)

    def recording_penalty(spec, params, caches, shape, rows, lam, grads):
        lams.append(lam)
        return penalty(spec, params, caches, shape, rows, lam, grads)

    monkeypatch.setattr(nn, "dropout_masks", recording_masks)
    monkeypatch.setattr(nn, "penalty", recording_penalty)
    model, trace = gan.pretrain(gan.build_gan(4, 0), normal_dataset(), 0, cfg)
    assert len(sizes) > len(trace.records)  # generator steps ran too
    assert set(sizes) == {8}
    assert lams == [3.0] * 12


def test_a_gan_model_is_its_networks():
    assert [f.name for f in fields(gan.GanModel)] \
        == ["g_spec", "g_params", "d_spec", "d_params"]


def test_finetune_after_a_zero_step_pretrain_trains_its_own_budget():
    # the ablation's arm without pretraining: a 0-step pretrain does not
    # carry its budget into the fine-tune
    model, pre = gan.pretrain(gan.build_gan(4, 0), normal_dataset(), 0,
                              small_cfg(max_steps=0))
    cfg = small_cfg(max_steps=7, finetune_stop_delta=0.0)
    _, trace = gan.finetune(model, normal_dataset(seed=1), 0, cfg)
    assert (len(pre.records), len(trace.records)) == (0, 7)
    assert trace.stop_reason == "max_steps"


def test_pretrain_rejects_empty_dataset():
    cfg = small_cfg()
    ds = normal_dataset().select(np.zeros(0, dtype=np.int64))
    with pytest.raises(gan.EmptyDataset):
        gan.pretrain(gan.build_gan(4, 0), ds, 0, cfg)


def test_trace_records_are_complete():
    cfg = small_cfg(max_steps=12)
    model, trace = gan.pretrain(gan.build_gan(4, 0), normal_dataset(), 0,
                                cfg)
    assert [r.step for r in trace.records] == list(range(1, 13))
    assert trace.steps_to_stop == 12
    with pytest.raises(AttributeError):  # read from the records only
        trace.steps_to_stop = 3
    for r in trace.records:
        assert np.isfinite(r.loss_d) and np.isfinite(r.gp)
        assert r.gp >= 0.0
        # loss_d without the penalty equals the negated distance estimate
        assert np.isclose(r.loss_d - r.gp, -r.wasserstein, atol=1e-12)


def test_finetune_copies_pretrained_weights():
    cfg = small_cfg(max_steps=6)
    model, _ = gan.pretrain(gan.build_gan(4, 0), normal_dataset(), 0, cfg)
    g_flat = model.g_params.flat.copy()
    d_flat = model.d_params.flat.copy()
    zero_cfg = small_cfg(max_steps=0)
    tuned, trace = gan.finetune(model, normal_dataset(seed=1), 0, zero_cfg)
    # step 0: parameters are an exact copy; source model untouched
    assert np.array_equal(tuned.g_params.flat, g_flat)
    assert np.array_equal(tuned.d_params.flat, d_flat)
    assert tuned.g_params.flat is not model.g_params.flat
    assert tuned.d_params.flat is not model.d_params.flat


def test_training_determinism_full_replay():
    def run():
        cfg = small_cfg(max_steps=15)
        model, trace = gan.pretrain(gan.build_gan(4, 0),
                                    normal_dataset(), 0, cfg)
        return model.g_params.flat, model.d_params.flat, np.asarray(trace.rows())
    a, b = run(), run()
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)  # includes nan == nan


def _identity_stub(plan, dim):
    """Model whose G is the identity on the noise."""
    g_spec = nn.NetworkSpec(dim, (nn.FullyConnected(dim),))
    g_params = nn.ParamSet({"l0.w": np.eye(dim), "l0.b": np.zeros(dim)})
    d_spec = gan.critic_spec(dim)
    return gan.GanModel(g_spec, g_params, d_spec, nn.init_params(d_spec, 1))


def test_synthesize_identity_stub_matches_clamped_noise():
    raw = normal_dataset(50, 3)
    # fit a plan in raw space for the inverse transform
    rows = [[float(v) for v in r] for r in raw.features]
    from conftest import raw_dataset
    ds = raw_dataset(rows, raw.labels, ["numeric"] * 3, ["normal", "attack"])
    enc, plan = preprocess(ds)
    model = _identity_stub(plan, 3)
    out = gan.synthesize(model, 7, plan, seed=11, schema=ds.schema,
                         class_name="attack")
    expect = np.clip(np.random.default_rng(11).standard_normal((7, 3)), 0, 1)
    got = out.features.astype(np.float64)
    los = np.array([t[2] for t in plan.transforms])
    his = np.array([t[3] for t in plan.transforms])
    assert np.allclose(got, expect * (his - los) + los)
    assert np.all(out.labels == 1)
    assert out.synthetic.all()


def test_synthesize_zero_rows_and_determinism():
    plan = unit_plan(2)
    model = _identity_stub(plan, 2)
    schema = normal_dataset(5, 2).schema
    empty = gan.synthesize(model, 0, plan, seed=3, schema=schema,
                           class_name="attack")
    assert len(empty) == 0
    a = gan.synthesize(model, 5, plan, seed=3, schema=schema, class_name="attack")
    b = gan.synthesize(model, 5, plan, seed=3, schema=schema, class_name="attack")
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synthesize_matches_forward_and_builds_no_gradient_graph(monkeypatch):
    dim = 3
    plan = unit_plan(dim)
    model = float64_model(gan.build_gan(dim, 0))
    schema = normal_dataset(5, dim).schema
    n = 600  # 75 8-row blocks in ten chunks: 8 blocks in five, 7 in five
    rng = np.random.default_rng(7)
    chunks = []
    for k in [64] * 5 + [56] * 5:
        z = rng.standard_normal((k, model.noise_dim))
        out, _ = ref.graph_forward(model.g_spec, model.g_params, z)
        chunks.append(np.clip(out.data, 0.0, 1.0))
    want = inverse_transform(np.vstack(chunks), plan)

    grad_nodes = []
    init = ad.Var.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        # a constant node holds no history either
        if self.requires_grad or self.parents or self.vjp is not None:
            grad_nodes.append(self)

    monkeypatch.setattr(ad.Var, "__init__", recording_init)
    got = gan.synthesize(model, n, plan, seed=7, schema=schema,
                         class_name="attack")
    monkeypatch.undo()
    assert grad_nodes == []
    assert np.array_equal(got.features.astype(np.float64),
                          want.astype(np.float64))


# synthesize against one pass of G over all n rows, and a digest of its rows
ONE_PASS = """
import hashlib
import numpy as np
from conftest import encoded_dataset, unit_plan
from ganids import gan, nn
from ganids.data import inverse_transform
for width in (11, 122):
    model = gan.build_gan(width, 4)
    plan = unit_plan(width)
    schema = encoded_dataset(np.zeros((2, width)), [0, 1],
                             ["normal", "attack"]).schema
    for n in (1, 2, 63, 64, 65, 125, 129, 600):
        got = gan.synthesize(model, n, plan, 5, schema, "attack").features
        z = np.random.default_rng(5).standard_normal((n, width))
        out = nn.forward(model.g_spec, model.g_params.tensors,
                         z.astype(gan.DTYPE))
        want = inverse_transform(np.clip(out, 0.0, 1.0), plan)
        print(got.tobytes() == want.tobytes(),
              hashlib.sha256(got.tobytes()).hexdigest())
"""


def test_synthesize_equals_one_pass_on_any_blas_thread_count():
    # G's last conv is a matrix-vector product, whose BLAS kernel sums the
    # tail rows of each thread's share another way, so one pass over all n
    # rows is the reference only on one thread; the chunks' rows must be
    # the same on two (one pass over 125 rows at width 122 is not)
    runs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", ONE_PASS], capture_output=True,
            text=True, timeout=120, cwd=TESTS,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                 "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])})
        assert proc.returncode == 0, proc.stderr
        runs.append([ln.split() for ln in proc.stdout.splitlines()])
    assert len(runs[0]) == 16
    assert all(equal == "True" for equal, _ in runs[0]), runs[0]
    assert [h for _, h in runs[1]] == [h for _, h in runs[0]]


def _synthesize_600(model):
    plan = unit_plan(model.feature_dim)
    schema = normal_dataset(5, model.feature_dim).schema
    gan.synthesize(model, 600, plan, seed=3, schema=schema,
                   class_name="attack")


@pytest.mark.parametrize("call", [
    lambda m, rng: critic_step(m, rng.random((16, m.feature_dim)), rng),
    lambda m, rng: generator_step(m, rng),
    lambda m, rng: nn.gradient_penalty(m.d_spec, m.d_params,
                                       rng.random((16, m.feature_dim)), 10.0,
                                       train=True),
    lambda m, rng: _synthesize_600(m),
], ids=["critic_step", "generator_step", "gradient_penalty", "synthesize"])
def test_step_leaves_no_cyclic_garbage(call):
    # each step's graph is freed by reference counting when the step returns
    model = gan.build_gan(6, 0)
    rng = np.random.default_rng(0)
    gc.collect()
    gc.disable()
    try:
        call(model, rng)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_forward_on_constant_parameters_keeps_no_layer_alive(monkeypatch):
    # constants hold no history, so once forward_var returns only its
    # output is left of the nodes it built
    model = gan.build_gan(6, 0)
    g_vars = {k: ad.asvar(v) for k, v in model.g_params.tensors.items()}
    z = ad.Var(np.random.default_rng(1).standard_normal((32, 6)))
    built = []
    init = ad.Var.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(ad.Var, "__init__", recording_init)
    out, _ = nn.forward_var(model.g_spec, g_vars, z, train=True)
    monkeypatch.undo()
    assert len(built) > 1
    assert [r() for r in built if r() is not None] == [out]


def _freeze(arrays):
    """Marks each array read-only; returns a copy of each one's bytes."""
    before = []
    for a in arrays:
        a.flags.writeable = False
        before.append(a.tobytes())
    return before


def _param_arrays(*params):
    return [a for p in params for a in p.tensors.values()]


@pytest.mark.parametrize("call", [
    lambda m, real, rng: critic_step(m, real, rng),
    lambda m, real, rng: generator_step(m, rng),
    lambda m, real, rng: _synthesize_600(m),
    lambda m, real, rng: nn.gradient_penalty(m.d_spec, m.d_params, real, 10.0,
                                             train=True),
], ids=["critic_step", "generator_step", "synthesize", "gradient_penalty"])
def test_kernels_write_only_to_arrays_they_own(call, monkeypatch):
    # in-place kernels on a read-only batch and read-only parameters: a
    # write to either raises, and their bytes stay as they were. Adam, the
    # one writer of parameters, is stubbed out
    monkeypatch.setattr(nn, "adam_step", lambda params, grads, state: None)
    model = gan.build_gan(11, 0)
    rng = np.random.default_rng(0)
    real = rng.random((16, 11))
    arrays = [real] + _param_arrays(model.g_params, model.d_params)
    before = _freeze(arrays)
    call(model, real, rng)
    assert [a.tobytes() for a in arrays] == before


@pytest.mark.parametrize("layers", [
    None,  # the critic architecture
    ELEMENTWISE_FIRST,
], ids=["critic", "elementwise first"])
def test_kernels_leave_input_cotangent_caches_and_params_unchanged(layers):
    rng = np.random.default_rng(1)
    spec = gan.critic_spec(11) if layers is None \
        else nn.NetworkSpec(11, layers)
    params = nn.init_params(spec, 2)
    tensors = params.tensors
    x = rng.random((12, 11))
    masks = nn.dropout_masks(spec, 12, rng)
    arrays = [x, *masks.values(), *_param_arrays(params)]
    before = _freeze(arrays)
    nn.forward(spec, tensors, x, masks)
    caches = []
    out = nn.forward(spec, tensors, x, masks, caches)
    assert [a.tobytes() for a in arrays] == before
    cached = [a for _, c in caches if c is not None
              for a in (c if isinstance(c, tuple) else (c,))
              if a is not None]
    g = rng.standard_normal(out.shape)
    arrays += [g, *cached]
    before = _freeze(arrays)
    rows = slice(4, None)
    grads = params.zeros()
    _, inject = nn.penalty(spec, tensors, caches, out[rows].shape, rows,
                           10.0, grads)
    # a backward pass consumes its cache list, so the first one walks a copy
    nn.backward(spec, tensors, list(caches), g, grads=grads, inject=inject)
    nn.backward(spec, tensors, caches, g, record={})
    assert [a.tobytes() for a in arrays] == before
