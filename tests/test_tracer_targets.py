"""The benchmark's tracer wraps ganids functions by name; each name it wraps
must exist, or a traced benchmark run fails when it installs the tracer."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer._TARGETS


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    for module, attr, _ in targets:
        assert callable(getattr(importlib.import_module(f"ganids.{module}"),
                                attr)), (module, attr)
    # wrapped outside the table: predict on the class, Var's constructor
    from ganids import autodiff, gbdt
    assert callable(gbdt.Ensemble.predict)
    assert callable(autodiff.Var.__init__)
