"""The GAN's float32 networks against the same kernels in float64.

A GAN trains and synthesizes in `gan.DTYPE` (float32); the oracles check the
kernels in float64. These tests tie the two together: a float32 model gives
the results of its own float64 cast to within a stated tolerance, computes
in float32 throughout, and its archive round-trips bit for bit.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from conftest import encoded_dataset, float64_model, unit_plan

from ganids import archive, gan, nn
from ganids import autodiff as ad

# float32 rounding leaves about 1e-6 of the largest |value| at these
# widths; 1e-4 is two orders above that and far below any real error
TOL = 1e-4


def small_cfg(**kw):
    base = dict(batch_size=16, stop_window=5, max_steps=20)
    base.update(kw)
    return gan.GanConfig(**base)


def _close(got, want):
    """|got - want| within TOL of want's largest |value|."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL * np.max(np.abs(want))


def _models(dim, seed):
    """A float32 GAN after a few training steps, and its float64 cast."""
    cfg = small_cfg(max_steps=12)
    rng = np.random.default_rng(seed)
    x = np.clip(rng.normal(0.5, 0.1, size=(64, dim)), 0, 1)
    data = encoded_dataset(x, np.zeros(64), ["normal", "attack"])
    m32, _ = gan.pretrain(gan.build_gan(dim, seed), data, seed, cfg)
    # float64_model sets new casts on a second model; m32 keeps its own
    return m32, float64_model(replace(m32))


def _generator_grads(model, rng):
    """The gradients the generator step hands to Adam, and its loss."""
    updates = []
    with mock.patch.object(nn, "adam_step",
                           lambda p, g, state: updates.append(g)):
        loss = gan.generator_step(model, nn.AdamState(model.g_params), rng,
                                  16)
    return updates[0].tensors, loss


def _critic_grads(model, real, rng):
    """The critic's gradients by name, loss, distance estimate and penalty."""
    grads = model.d_params.zeros()
    return (grads.tensors,) + gan.critic_grads(model, grads, real, rng, 10.0)


def test_build_gan_casts_the_float64_draw():
    # a seed keeps its meaning: the float32 parameters are the float64
    # draw of nn.init_params, rounded
    model = gan.build_gan(7, 3)
    for params, spec, seed in [(model.g_params, model.g_spec, 3),
                               (model.d_params, model.d_spec, 4)]:
        want = nn.init_params(spec, seed)
        assert params.dtype == np.float32 == gan.DTYPE
        for k, v in want.tensors.items():
            assert np.array_equal(params.tensors[k], v.astype(np.float32))
    data = encoded_dataset(np.full((20, 7), 0.5), np.zeros(20),
                           ["normal", "attack"])
    # the ablation's arm without pretraining: untrained weights, fine-tuned
    model, _ = gan.pretrain(model, data, 0, small_cfg(max_steps=0))
    cold, _ = gan.finetune(model, data, 0, small_cfg(max_steps=0))
    assert cold.g_params.dtype == cold.d_params.dtype == np.float32


@pytest.mark.parametrize("dim,seed", [(3, 0), (8, 1), (11, 2), (41, 3)])
def test_float32_steps_match_their_float64_cast(dim, seed):
    m32, m64 = _models(dim, seed)
    x = np.random.default_rng(seed + 7).random((16, dim)).astype(np.float32)

    # the forward kernel, both networks, on the same float32 input
    for spec, p32, p64 in [(m32.g_spec, m32.g_params, m64.g_params),
                           (m32.d_spec, m32.d_params, m64.d_params)]:
        _close(nn._forward(spec, p32.tensors, x),
               nn._forward(spec, p64.tensors, x.astype(np.float64)))

    real = np.random.default_rng(seed + 9).random((16, dim))
    got = _critic_grads(m32, real, np.random.default_rng(seed))
    want = _critic_grads(m64, real, np.random.default_rng(seed))
    assert set(got[0]) == set(want[0])
    for k, ref in want[0].items():
        _close(got[0][k], ref)
    np.testing.assert_allclose(got[1:], want[1:], rtol=TOL, atol=TOL)

    got_g, loss32 = _generator_grads(m32, np.random.default_rng(seed))
    want_g, loss64 = _generator_grads(m64, np.random.default_rng(seed))
    assert set(got_g) == set(want_g)
    for k, ref in want_g.items():
        _close(got_g[k], ref)
    assert abs(loss32 - loss64) <= TOL * abs(loss64)


def _arrays(value):
    """Every ndarray in a kernel's arguments or result, however nested."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, nn.ParamSet):
        yield value.flat
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _arrays(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _arrays(v)


def test_a_float32_model_computes_in_float32_throughout(monkeypatch):
    # every array a kernel returns, caches, records, injects or adds to the
    # gradients, and every Adam moment and update, is float32
    seen = []

    def recording(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.append((name, list(_arrays((out, args, kwargs)))))
            return out
        monkeypatch.setattr(module, name, wrapper)

    for name in ("_forward", "_backward", "_penalty", "adam_step"):
        recording(nn, name)
    for name in ("_unfold_data", "_fold_data"):
        recording(ad, name)

    model = gan.build_gan(11, 0)
    rng = np.random.default_rng(0)
    real = rng.random((16, 11))  # the caller's batch, float64
    adams = nn.AdamState(model.d_params), nn.AdamState(model.g_params)
    gan.critic_step(model, adams[0], real, rng, 10.0)
    gan.generator_step(model, adams[1], rng, 16)
    nn.gradient_penalty(model.d_spec, model.d_params, real, 10.0, train=True)
    plan = unit_plan(11)
    schema = encoded_dataset(np.zeros((2, 11)), [0, 1],
                             ["normal", "attack"]).schema
    gan.synthesize(model, 20, plan, seed=3, schema=schema,
                   class_name="attack")

    assert {name for name, _ in seen} == {
        "_forward", "_backward", "_penalty", "adam_step", "_unfold_data",
        "_fold_data"}
    for name, arrays in seen:
        floats = [a for a in arrays if a.dtype.kind == "f"]
        assert floats and all(a.dtype == np.float32 for a in floats), \
            (name, sorted({str(a.dtype) for a in floats}))
    for adam in adams:
        assert adam.m.dtype == adam.v.dtype == adam.grads.dtype == np.float32
    assert model.g_params.dtype == model.d_params.dtype == np.float32


def test_float32_gan_archive_round_trips_bit_exactly(tmp_path):
    model, _ = _models(6, 5)
    path = tmp_path / "gan.bin"
    archive.save_gan(path, model)
    loaded = archive.load_gan(path)
    for want, got in [(model.g_params, loaded.g_params),
                      (model.d_params, loaded.d_params)]:
        assert got.dtype == np.float32
        assert set(got.tensors) == set(want.tensors)
        for k, v in want.tensors.items():
            assert got.tensors[k].tobytes() == v.tobytes()
    again = tmp_path / "again.bin"
    archive.save_gan(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def test_a_float64_gan_archive_loads_as_float32(tmp_path):
    # an archive of float64 parameters, as the float64 trainer wrote them
    # in the same format, is cast on loading
    model = float64_model(gan.build_gan(5, 2))
    model.g_params = nn.init_params(model.g_spec, 2)
    model.d_params = nn.init_params(model.d_spec, 3)
    path = tmp_path / "gan64.bin"
    archive.save_gan(path, model)
    loaded = archive.load_gan(path)
    for want, got in [(model.g_params, loaded.g_params),
                      (model.d_params, loaded.d_params)]:
        assert got.dtype == np.float32
        for k, v in want.tensors.items():
            # the drawn weights are not float32 values; the biases are 0
            assert k.endswith(".b") or np.all(v != v.astype(np.float32))
            assert np.array_equal(got.tensors[k], v.astype(np.float32))
