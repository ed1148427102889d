"""The benchmark's tracer wraps ganids functions by name; each name it wraps
must exist, or a traced benchmark run fails when it installs the tracer."""

import importlib

import numpy as np

from conftest import encoded_dataset, tracer_targets

from ganids import gan, nn


def test_every_traced_name_resolves():
    targets = tracer_targets()
    assert targets
    for module, attr, _ in targets:
        assert callable(getattr(importlib.import_module(f"ganids.{module}"),
                                attr)), (module, attr)
    # wrapped outside the table: predict on the class, Var's constructor
    from ganids import autodiff, gbdt
    assert callable(gbdt.Ensemble.predict)
    assert callable(autodiff.Var.__init__)


def test_training_steps_run_through_the_traced_names(monkeypatch):
    # the tracer times a step by wrapping these module attributes, and its
    # check fails a run unless the traced critic steps equal the budget: a
    # loop that reached the step functions another way would go uncounted
    calls = {"critic_step": 0, "generator_step": 0, "adam_step": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(gan, "critic_step")
    counting(gan, "generator_step")
    counting(nn, "adam_step")
    rng = np.random.default_rng(0)
    data = encoded_dataset(rng.random((64, 4)), np.zeros(64),
                           ["normal", "attack"])
    cfg = gan.GanConfig(batch_size=16, max_steps=12)
    _, trace = gan.pretrain(gan.build_gan(4, 0), data, 0, cfg)
    assert trace.steps_to_stop == 12
    assert calls == {"critic_step": 12, "generator_step": 2, "adam_step": 14}
