"""Reading the pipeline config and the dataset schema from JSON."""

import json
import math
from dataclasses import asdict, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganids import cli, pipeline
from ganids.data import DatasetSchema, FieldTypeError, SchemaInvalid, decode
from ganids.demo import demo_schema_dict, write_demo_dataset
from ganids.gan import GanConfig
from ganids.gbdt import BoostParams


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    return write_demo_dataset(tmp_path_factory.mktemp("cfgdemo"), rows=200)


@pytest.fixture(scope="module")
def demo_config(demo):
    cfg = pipeline.PipelineConfig(
        dataset_paths=[str(demo["csv"])], schema=str(demo["schema"]),
        out_dir=str(demo["csv"].parent / "out"))
    return asdict(cfg)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)


def _replaced(doc, path, value):
    """A copy of doc with the value at path (a tuple of keys) replaced."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


def test_decode_names_the_key_of_a_nested_value():
    with pytest.raises(pipeline.ConfigInvalid) as e:
        pipeline.PipelineConfig.from_dict({
            "dataset_paths": [], "schema": "s", "out_dir": "o",
            "gan": {"lam": "x"}})
    assert (e.value.path, e.value.reason) \
        == ("gan", "lam: must be of type float, got 'x'")
    schema = demo_schema_dict()
    schema["columns"][1] = {"name": "f1"}
    with pytest.raises(FieldTypeError, match=r"^columns: \[1\]: kind: missing"):
        decode(DatasetSchema, schema)
    with pytest.raises(FieldTypeError, match="^caps: a: .* got True"):
        decode(dict[str, int], {"a": True}, "caps")
    assert decode(list[float], [1, 2.5], "xs") == [1, 2.5]


_CONFIG_PATHS = [(f.name,) for f in fields(pipeline.PipelineConfig)] \
    + [("gan", f.name) for f in fields(GanConfig)] \
    + [("boost", f.name) for f in fields(BoostParams)]
_SCHEMA = demo_schema_dict()
_SCHEMA_PATHS = [(k,) for k in _SCHEMA] \
    + [("columns", 0, k) for k in _SCHEMA["columns"][0]]


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(_CONFIG_PATHS), value=json_values)
def test_any_config_value_is_read_or_rejected(demo_config, path, value):
    try:
        pipeline.PipelineConfig.from_dict(
            _replaced(demo_config, path, value)).validate()
    except pipeline.ConfigInvalid:
        pass


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(_SCHEMA_PATHS), value=json_values)
def test_any_schema_value_is_read_or_rejected(demo, path, value):
    schema_path = demo["csv"].parent / "drawn_schema.json"
    schema_path.write_text(json.dumps(_replaced(_SCHEMA, path, value)))
    try:
        DatasetSchema.from_json(schema_path)
    except SchemaInvalid:
        pass


@pytest.mark.parametrize("section, key, value", [
    (section, key, value)
    for section, key in [("gan", "stop_delta"), ("gan", "finetune_stop_delta")]
    for value in (math.nan, -1.0, -1e-9, math.inf)
] + [
    ("boost", "goss_a", math.nan), ("boost", "goss_b", math.nan),
    ("boost", "goss_a", math.inf), ("boost", "goss_b", -0.1),
])
def test_a_value_that_no_phase_could_use_is_rejected(demo_config, section,
                                                     key, value):
    # a NaN, negative or infinite stop delta never lets the stop rule fire,
    # and a NaN GOSS fraction fails only when training starts
    with pytest.raises(pipeline.ConfigInvalid) as e:
        pipeline.PipelineConfig.from_dict(
            _replaced(demo_config, (section, key), value))
    assert e.value.path == section and key in e.value.reason


def test_run_with_a_nan_goss_fraction_fails_before_loading(demo, tmp_path,
                                                            capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "dataset_paths": [str(demo["csv"])], "schema": str(demo["schema"]),
        "out_dir": str(tmp_path / "o"), "skip_augment": True,
        "boost": {"goss_a": math.nan}}))
    assert cli.main(["run", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: boost: "), err
    assert "goss_a" in err[0]
    assert not (tmp_path / "o").exists()
