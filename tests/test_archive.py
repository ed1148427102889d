"""Model archive round-trip and integrity tests."""

import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (encoded_dataset, json_values, key_paths, raw_dataset,
                      replaced)

from ganids import archive, cli, gan, gbdt, nn
from ganids.data import load_dataset, load_schema, preprocess
from ganids.demo import write_demo_dataset


def _fit_with_plan(raw, **boost):
    """An ensemble fitted on raw's encoding, carrying that plan, as a run
    archives it."""
    enc, plan = preprocess(raw)
    return replace(gbdt.fit(enc, gbdt.BoostParams(**boost)), plan=plan)


def test_gan_roundtrip_bit_exact(tmp_path):
    model = gan.build_gan(6, 4)
    path = tmp_path / "gan.bin"
    archive.save_gan(path, model)
    loaded = archive.load_gan(path)
    for ours, theirs in ((loaded.g_params, model.g_params),
                         (loaded.d_params, model.d_params)):
        assert ours.flat.dtype == theirs.flat.dtype
        assert np.array_equal(ours.flat, theirs.flat)
    assert loaded.feature_dim == 6
    assert (loaded.g_spec, loaded.d_spec) == (model.g_spec, model.d_spec)


def test_ensemble_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    raw = raw_dataset([(v, p) for v, p in zip(rng.random(60),
                                              rng.choice(["tcp", "udp"], 60))],
                      rng.integers(0, 2, 60), ["numeric", "categorical"],
                      ["a", "b"])
    ens = _fit_with_plan(raw, rounds=3, min_leaf=5)
    path = tmp_path / "ens.bin"
    archive.save_ensemble(path, ens)
    loaded = archive.load_ensemble(path)
    x = rng.random((5, 3))
    assert np.array_equal(loaded.raw_scores(x), ens.raw_scores(x))
    assert np.array_equal(loaded.predict_proba(x), ens.predict_proba(x))
    assert loaded.plan == ens.plan
    assert loaded.feature_names == ["f0", "f1=tcp", "f1=udp"]


def test_save_ensemble_without_plan_raises_value_error(tmp_path):
    rng = np.random.default_rng(0)
    ds = encoded_dataset(rng.random((40, 2)), rng.integers(0, 2, 40),
                         ["a", "b"])
    ens = gbdt.fit(ds, gbdt.BoostParams(rounds=2, min_leaf=5))
    with pytest.raises(ValueError, match="plan"):
        archive.save_ensemble(tmp_path / "ens.bin", ens)
    assert not (tmp_path / "ens.bin").exists()


def test_corrupted_archive_detected(tmp_path):
    model = gan.build_gan(3, 1)
    path = tmp_path / "gan.bin"
    archive.save_gan(path, model)
    raw = bytearray(path.read_bytes())
    raw[-5] ^= 0xFF  # flip a parameter byte
    path.write_bytes(bytes(raw))
    with pytest.raises(archive.ArchiveError):
        archive.load_gan(path)


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not an archive at all")
    with pytest.raises(archive.ArchiveError):
        archive.load_gan(path)


def test_kind_mismatch_rejected(tmp_path):
    model = gan.build_gan(3, 1)
    path = tmp_path / "gan.bin"
    archive.save_gan(path, model)
    with pytest.raises(archive.ArchiveError, match="gan.bin: header: kind: "
                       "'gan', where an ensemble archive was expected"):
        archive.load_ensemble(path)


def test_ensemble_archive_loaded_as_a_gan_names_its_kind(archive_bytes,
                                                        tmp_path):
    path = tmp_path / "ens.bin"
    path.write_bytes(archive_bytes["ensemble"][0])
    with pytest.raises(archive.ArchiveError, match="ens.bin: header: kind: "
                       "'ensemble', where a gan archive was expected"):
        archive.load_gan(path)


def test_archive_cut_inside_its_version_field_is_truncated(tmp_path):
    path = tmp_path / "gan.bin"
    archive.save_gan(path, gan.build_gan(3, 1))
    path.write_bytes(path.read_bytes()[:len(archive.MAGIC) + 1])
    with pytest.raises(archive.ArchiveError,
                       match="gan.bin: truncated in its format version"):
        archive.load_gan(path)


def test_file_hash_stable(tmp_path):
    model = gan.build_gan(3, 2)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    archive.save_gan(p1, model)
    archive.save_gan(p2, model)
    assert archive.file_hash(p1) == archive.file_hash(p2)


@pytest.fixture(scope="module")
def archive_bytes(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    model = gan.build_gan(3, 5)
    archive.save_gan(out / "gan.bin", model)
    rng = np.random.default_rng(1)
    raw = raw_dataset(rng.random((40, 2)), rng.integers(0, 2, 40),
                      ["numeric", "numeric"], ["a", "b"])
    archive.save_ensemble(out / "ens.bin",
                          _fit_with_plan(raw, rounds=2, min_leaf=5))
    return {"gan": ((out / "gan.bin").read_bytes(), archive.load_gan),
            "ensemble": ((out / "ens.bin").read_bytes(),
                         archive.load_ensemble)}


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["gan", "ensemble"]), cut=st.floats(0.0, 1.0),
       flip=st.booleans(), bit=st.integers(0, 7))
def test_damaged_archive_raises_archive_error(archive_bytes, tmp_path_factory,
                                              kind, cut, flip, bit):
    raw, load = archive_bytes[kind]
    at = min(int(cut * len(raw)), len(raw) - 1)
    if flip:
        damaged = bytearray(raw)
        damaged[at] ^= 1 << bit
    else:
        damaged = raw[:at]
    path = tmp_path_factory.getbasetemp() / "damaged.bin"
    path.write_bytes(bytes(damaged))
    with pytest.raises(archive.ArchiveError):
        load(path)


def _gan_header(model):
    """The header save_gan writes for model."""
    return {"kind": "gan", "feature_dim": model.feature_dim}


def _param_blobs(model):
    return [p.flat.astype(np.float64).tobytes()
            for p in (model.g_params, model.d_params)]


@pytest.mark.parametrize("width", [1, 11, 122])
def test_gan_blob_is_float64_runs_in_sorted_name_order(tmp_path, width):
    # the blob of each network, built from nn.param_shapes alone:
    # each array's float64 upcast, C order, the names in sorted order
    rng = np.random.default_rng(width)
    model = gan.build_gan(width, 1)
    arrays = [{name: rng.standard_normal(shape).astype(gan.DTYPE)
               for name, shape in nn.param_shapes(spec).items()}
              for spec in (model.g_spec, model.d_spec)]
    model.g_params, model.d_params = map(nn.ParamSet, arrays)
    path = tmp_path / "gan.bin"
    archive.save_gan(path, model)
    _, blobs = archive._read(path, archive.GanHeader)
    assert blobs == [b"".join(a[name].astype(np.float64).tobytes()
                              for name in sorted(a)) for a in arrays]
    loaded = archive.load_gan(path)
    for params, a in zip((loaded.g_params, loaded.d_params), arrays):
        for name, arr in a.items():
            assert params.tensors[name].tobytes() == arr.tobytes()


def test_truncated_parameter_blob_raises_archive_error(tmp_path):
    model = gan.build_gan(3, 1)
    g_blob, d_blob = _param_blobs(model)
    path = tmp_path / "gan.bin"
    n = len(g_blob)
    for damaged in [g_blob[:at] for at in (0, 1, 7, 8, n // 2 + 3, n - 8,
                                           n - 1)] + [g_blob + bytes(8)]:
        archive._write(path, _gan_header(model), [damaged, d_blob])
        with pytest.raises(archive.ArchiveError, match="gan.bin"):
            archive.load_gan(path)


def test_tensors_that_do_not_fit_feature_dim_raise_archive_error(tmp_path):
    model = gan.build_gan(5, 1)
    header = _gan_header(model)
    header["feature_dim"] = 6
    path = tmp_path / "gan.bin"
    archive._write(path, header, _param_blobs(model))
    with pytest.raises(archive.ArchiveError, match="gan.bin"):
        archive.load_gan(path)


def test_other_format_version_raises_archive_error(tmp_path):
    path = tmp_path / "gan.bin"
    archive.save_gan(path, gan.build_gan(3, 1))
    raw = bytearray(path.read_bytes())
    raw[len(archive.MAGIC):len(archive.MAGIC) + 2] = (2).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(archive.ArchiveError,
                       match="unsupported format version 2"):
        archive.load_gan(path)


def test_version_3_ensemble_raises_archive_error(archive_bytes, tmp_path):
    raw = bytearray(archive_bytes["ensemble"][0])
    raw[len(archive.MAGIC):len(archive.MAGIC) + 2] = (3).to_bytes(2, "little")
    path = tmp_path / "ens.bin"
    path.write_bytes(bytes(raw))
    with pytest.raises(archive.ArchiveError,
                       match="ens.bin: unsupported format version 3"):
        archive.load_ensemble(path)


# What each earlier format held that the current one reads differently:
# 5 gan.noise_dim and the plan's fingerprint; 6 a content hash per network
# and per ensemble body; 7 a GAN's training phase in its header; 8 a GAN
# seed in its header's config; 9 a GAN's config in its header and an
# ensemble's learning rate in its body; 10 conv kernels as (out, in, k) and
# the critic's fc rows in (channel, length) order.
@pytest.mark.parametrize("kind", ["gan", "ensemble"])
@pytest.mark.parametrize("version", range(5, archive.FORMAT_VERSION),
                         ids=lambda v: f"format {v}")
def test_earlier_format_archive_raises_archive_error(archive_bytes, tmp_path,
                                                     version, kind):
    raw, load = archive_bytes[kind]
    raw = bytearray(raw)
    raw[len(archive.MAGIC):len(archive.MAGIC) + 2] = version.to_bytes(2,
                                                                      "little")
    path = tmp_path / "m.bin"
    path.write_bytes(bytes(raw))
    with pytest.raises(archive.ArchiveError,
                       match=f"m.bin: unsupported format version {version}"):
        load(path)


def test_dumps_writes_the_json_of_asdict():
    rng = np.random.default_rng(3)
    raw = raw_dataset(rng.random((60, 2)), rng.integers(0, 3, 60),
                      ["numeric", "numeric"], ["a", "b", "c"])
    model = gan.build_gan(3, 1)
    header = archive.GanHeader("gan", 3)
    spec = model.g_spec
    assert spec.walk  # a cached_property, kept in the instance's __dict__
    for value in (_fit_with_plan(raw, rounds=3, min_leaf=5), header, spec):
        assert archive._dumps(value) == json.dumps(
            asdict(value), sort_keys=True,
            default=np.ndarray.tolist).encode()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), value=json_values)
def test_any_gan_header_value_loads_or_raises_archive_error(
        tmp_path_factory, data, value):
    # no command reads a GAN archive, so the header fuzz calls load_gan: a
    # model or an ArchiveError, never another exception
    model = gan.build_gan(3, 1)
    header = _gan_header(model)
    header = replaced(header, data.draw(st.sampled_from(
        list(key_paths(header)))), value)
    path = tmp_path_factory.getbasetemp() / "gan_header.bin"
    archive._write(path, header, _param_blobs(model))
    try:
        archive.load_gan(path)
    except archive.ArchiveError:
        pass


def test_save_gan_rejects_networks_other_than_the_built_pair(tmp_path):
    model = gan.build_gan(3, 1)
    model.d_spec = nn.NetworkSpec(3, (nn.FullyConnected(1),))
    model.d_params = nn.init_params(model.d_spec, 0)
    with pytest.raises(ValueError):
        archive.save_gan(tmp_path / "gan.bin", model)


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("feature_dim"),
    lambda h: h.update(feature_dim=0),
    lambda h: h.update(phase="pretrained"),
    lambda h: h.update(cfg={**asdict(gan.GanConfig()), "seed": 0}),
    lambda h: h.update(cfg=asdict(gan.GanConfig())),
], ids=["no feature_dim", "feature_dim 0", "format 7 phase key",
        "format 8 seed key", "format 9 cfg key"])
def test_gan_header_that_does_not_build_raises_archive_error(tmp_path, edit):
    model = gan.build_gan(3, 1)
    header = _gan_header(model)
    edit(header)
    path = tmp_path / "gan.bin"
    archive._write(path, header, _param_blobs(model))
    with pytest.raises(archive.ArchiveError, match="gan.bin"):
        archive.load_gan(path)


# the body fit writes for a one-feature, two-class ensemble with no plan
NO_PLAN = (b'{"base_scores": [0.0, 0.0], "classes": ["a", "b"], '
           b'"feature_names": ["f0"], '
           b'"mapper": {"boundaries": [[0.5]]}, "plan": null, "trees": []}')


@pytest.mark.parametrize("body", [
    b"{}",
    b"{not json",
    b'{"base_scores": [0.0, 0.0]}',
    b"[1, 2]",
    NO_PLAN,
    NO_PLAN.replace(b'"plan": null', b'"plan": {}'),
], ids=["empty body", "body not JSON", "body lacks trees",
        "body not an object", "body without plan", "body with empty plan"])
def test_ensemble_archive_that_does_not_load_raises_archive_error(tmp_path,
                                                                  body):
    path = tmp_path / "ens.bin"
    archive._write(path, {"kind": "ensemble"}, [body])
    with pytest.raises(archive.ArchiveError, match="ens.bin"):
        archive.load_ensemble(path)


@pytest.fixture(scope="module")
def demo_plan(tmp_path_factory):
    paths = write_demo_dataset(tmp_path_factory.mktemp("demo"), rows=200)
    _, plan = preprocess(load_dataset([paths["csv"]],
                                      load_schema(str(paths["schema"]))))
    return plan


@pytest.mark.parametrize("n_fitted, rename", [(1, None), (11, "f9")],
                         ids=["one fitted column", "name not in the plan"])
def test_ensemble_whose_columns_disagree_with_its_plan_is_refused(
        demo_plan, tmp_path, n_fitted, rename):
    names = demo_plan.encoded_names()
    assert len(names) == 11
    if rename:
        names = names[:-1] + [rename]
    fields = {"trees": [], "base_scores": np.zeros(5),
              "mapper": gbdt.BinMapper([np.array([0.5])] * n_fitted),
              "classes": list("abcde"), "feature_names": names,
              "plan": demo_plan}
    with pytest.raises(ValueError, match="^feature_names: "):
        gbdt.Ensemble(**fields)
    # the same body written into a file does not load either
    path = tmp_path / "ens.bin"
    archive._write(path, {"kind": "ensemble"}, [archive._dumps(fields)])
    with pytest.raises(archive.ArchiveError, match=f"^{re.escape(str(path))}"
                       ": body: feature_names: "):
        archive.load_ensemble(path)


@pytest.fixture(scope="module")
def scored_model(tmp_path_factory):
    """A demo model's body as JSON, every key path in it, and the schema
    and CSV to score with it."""
    demo = write_demo_dataset(tmp_path_factory.mktemp("bodyfuzz"), rows=200,
                              seed=2)
    ens = _fit_with_plan(load_dataset([demo["csv"]],
                                      load_schema(str(demo["schema"]))),
                         rounds=2, max_depth=3, min_leaf=5)
    body = json.loads(archive._dumps(asdict(ens)))
    return body, list(key_paths(body)), demo


def _evaluate_body(tmp_path, demo, body: bytes):
    """Exit code and stderr of `ganids evaluate` on a model file holding
    body, with its digest recomputed."""
    model = tmp_path / "ens.bin"
    archive._write(model, {"kind": "ensemble"}, [body])
    err = io.StringIO()
    with redirect_stderr(err), redirect_stdout(io.StringIO()):
        code = cli.main(["evaluate", "--model", str(model), "--schema",
                         str(demo["schema"]), str(demo["csv"])])
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), value=json_values)
def test_any_body_value_is_scored_or_one_error_line(
        scored_model, tmp_path_factory, data, value):
    body, paths, demo = scored_model
    path = data.draw(st.sampled_from(paths))
    code, err = _evaluate_body(
        tmp_path_factory.getbasetemp(), demo,
        json.dumps(replaced(body, path, value), sort_keys=True).encode())
    assert (code, err) == (0, "") or code == 1 \
        and err.startswith("error: ") and err.count("\n") == 1, (code, err)


def _deep_split(depth):
    """A tree whose left branch is depth splits long, as JSON text."""
    leaf = ('{"bin_threshold": -1, "feature": -1, "gain": 0.0, "left": null, '
            '"right": null, "value": 0.0}')
    return ('{"bin_threshold": 0, "feature": 0, "gain": 1.0, "left": ' * depth
            + leaf + (f', "right": {leaf}, "value": 0.0}}') * depth)


def _swap_lo_hi(transform):
    """A numeric transform with its lo and hi swapped: a column that
    preprocess would encode as all zeros."""
    name, kind, lo, hi = transform
    assert kind == "numeric" and lo < hi
    transform[2:] = [hi, lo]


@pytest.mark.parametrize("edit, where", [
    (lambda b: b["trees"][0][0].update(feature=-1),
     r"body: trees: \[0\]: \[0\]: "),
    # format 9's key: the leaf values hold the learning rate
    (lambda b: b.update(learning_rate="0.1"), "body: learning_rate: "),
    (lambda b: b["trees"][0][0]["left"].update(bin_threshold=10**6),
     r"body: trees: \[0\]: \[0\]: "),
    (lambda b: b.update(classes=b["classes"][:-1]), "body: base_scores: "),
    (lambda b: b["mapper"]["boundaries"][0].reverse(),
     r"body: mapper: boundaries: \[0\]: "),
    # decodes, but encodes no schema's columns: the line comes from scoring
    (lambda b: b["plan"]["transforms"].reverse(),
     "column 0: the plan encodes "),
    (lambda b: b.update(base_scores=[10**400] * 5), "body: base_scores: "),
    (lambda b: _swap_lo_hi(b["plan"]["transforms"][0]),
     r"body: plan: transforms: \[0\]: "),
    # the second fitted column would read the first one's values
    (lambda b: b["feature_names"].__setitem__(1, b["feature_names"][0]),
     "body: feature_names: "),
], ids=["split with feature -1", "learning_rate a string",
        "threshold past the boundaries", "a tree per class too many",
        "boundaries descending", "plan transforms reordered",
        "int past float range", "plan range lo above hi",
        "feature name repeated"])
def test_body_value_that_would_score_wrongly_is_an_error_line(
        scored_model, tmp_path, edit, where):
    body, _, demo = scored_model
    body = json.loads(json.dumps(body))
    assert body["trees"][0][0]["feature"] >= 0  # a split at the root
    edit(body)
    code, err = _evaluate_body(tmp_path, demo,
                               json.dumps(body, sort_keys=True).encode())
    assert code == 1 and err.count("\n") == 1
    assert re.match(rf"error: {re.escape(str(tmp_path))}/ens.bin: {where}",
                    err), err


@pytest.mark.parametrize("depth", [400, 4 * sys.getrecursionlimit()],
                         ids=["past decode's recursion", "past JSON's"])
def test_body_nested_past_the_recursion_limit_is_an_archive_error(
        scored_model, tmp_path, depth):
    body, _, demo = scored_model
    text = json.dumps(body, sort_keys=True)
    first = json.dumps(body["trees"][0][0], sort_keys=True)
    text = text.replace(first, _deep_split(depth), 1)
    # a RecursionError would leave cli.main as an exception
    code, err = _evaluate_body(tmp_path, demo, text.encode())
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(f"error: {tmp_path}/ens.bin: body nests too deeply")
