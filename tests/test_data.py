"""CSV loading, encoding and splitting tests."""

import csv
import json
import math
import re
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import column, raw_dataset

from ganids import data as dio


def write_csv(tmp_path, name, lines):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return p


def simple_schema(label_map=None, caps=None):
    return dio.DatasetSchema(
        columns=[dio.Column("a", "numeric"), dio.Column("proto", "categorical"),
                 dio.Column("label", "label")],
        classes=["normal", "attack"], normal_class="normal",
        label_map=label_map or {}, class_caps=caps or {})


def test_load_basic(tmp_path):
    p = write_csv(tmp_path, "d.csv", ["1.5,tcp,normal", "2.0,udp,attack"])
    ds = dio.load_dataset(p, simple_schema())
    assert len(ds) == 2
    assert ds.labels.tolist() == [0, 1]
    assert [column(ds, j)[0] for j in range(2)] == [1.5, "tcp"]
    assert not ds.encoded


def test_load_row_arity_names_line(tmp_path):
    p = write_csv(tmp_path, "d.csv", ["1,tcp,normal", "2,udp"])
    with pytest.raises(dio.RowArity) as e:
        dio.load_dataset(p, simple_schema())
    assert e.value.line == 2


def test_load_unknown_label_names_line_and_value(tmp_path):
    p = write_csv(tmp_path, "d.csv", ["1,tcp,normal", "2,udp,mystery"])
    with pytest.raises(dio.UnknownLabel) as e:
        dio.load_dataset(p, simple_schema())
    assert e.value.line == 2
    assert e.value.value == "mystery"


def test_load_bad_number_names_file_line_and_column(tmp_path):
    p = write_csv(tmp_path, "d.csv", ["1,tcp,normal", "2,udp,attack",
                                      "x7,tcp,normal"])
    with pytest.raises(dio.BadNumber) as e:
        dio.load_dataset(p, simple_schema())
    assert (e.value.path, e.value.line, e.value.column) == (p, 3, 1)
    assert e.value.value == "x7"
    assert str(p) in str(e.value) and "line 3, column 1 (a)" in str(e.value)


def test_load_bad_number_column_counts_every_file_column(tmp_path):
    schema = dio.DatasetSchema(
        columns=[dio.Column("id", "ignore"), dio.Column("a", "numeric"),
                 dio.Column("proto", "categorical"), dio.Column("b", "numeric"),
                 dio.Column("label", "label")],
        classes=["normal", "attack"], normal_class="normal")
    p = write_csv(tmp_path, "d.csv", ["r1,1,tcp,2,normal", "r2,1,tcp,-,attack"])
    with pytest.raises(dio.BadNumber) as e:
        dio.load_dataset(p, schema)
    assert (e.value.line, e.value.column) == (2, 4)
    assert "line 2, column 4 (b)" in str(e.value)


def test_schema_rejects_duplicate_column_names():
    with pytest.raises(ValueError, match="'a'"):
        dio.DatasetSchema(
            columns=[dio.Column("a", "numeric"), dio.Column("a", "numeric"),
                     dio.Column("label", "label")],
            classes=["normal"], normal_class="normal")


def test_load_line_numbers_restart_in_each_file(tmp_path):
    a = write_csv(tmp_path, "a.csv", ["1,tcp,normal", "2,udp,attack",
                                      "3,tcp,normal"])
    b = write_csv(tmp_path, "b.csv", ["1,tcp,normal", "2,udp"])
    with pytest.raises(dio.RowArity) as e:
        dio.load_dataset([a, b], simple_schema())
    assert (e.value.path, e.value.line) == (b, 2)
    c = write_csv(tmp_path, "c.csv", ["oops,tcp,normal"])
    with pytest.raises(dio.BadNumber) as e:
        dio.load_dataset([a, c], simple_schema())
    assert (e.value.path, e.value.line) == (c, 1)


def test_load_label_map(tmp_path):
    p = write_csv(tmp_path, "d.csv", ["1,tcp,neptune", "2,udp,normal"])
    ds = dio.load_dataset(p, simple_schema(label_map={"neptune": "attack"}))
    assert ds.labels.tolist() == [1, 0]


def test_load_missing_file():
    with pytest.raises(dio.IoFailure):
        dio.load_dataset("/nonexistent/file.csv", simple_schema())


def test_load_class_caps_keep_head_of_stream(tmp_path):
    lines = [f"{i},tcp,attack" for i in range(5)] + ["9,udp,normal"]
    p = write_csv(tmp_path, "d.csv", lines)
    ds = dio.load_dataset(p, simple_schema(caps={"attack": 2}))
    attacks = ds.features[ds.labels == 1][:, 0].tolist()
    assert attacks == [0.0, 1.0]  # first two attack rows in file order


def _assert_same_rows(a, b):
    """a and b hold the same features, labels and level tables."""
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert [None if t is None else list(t) for t in a.levels] \
        == [None if t is None else list(t) for t in b.levels]


def test_load_multiple_files_order_stable(tmp_path):
    p1 = write_csv(tmp_path, "a.csv", ["1,tcp,normal"])
    p2 = write_csv(tmp_path, "b.csv", ["2,udp,attack"])
    ds = dio.load_dataset([p1, p2], simple_schema())
    assert ds.features[:, 0].tolist() == [1.0, 2.0]
    _assert_same_rows(dio.load_dataset([p1, p2], simple_schema()), ds)


def test_load_header_skipped(tmp_path):
    schema = simple_schema()
    schema.has_header = True
    p = write_csv(tmp_path, "d.csv", ["a,proto,label", "1,tcp,normal"])
    assert len(dio.load_dataset(p, schema)) == 1


def test_load_row_with_one_extra_column_raises_row_arity(tmp_path):
    p = write_csv(tmp_path, "d.csv", ["1,tcp,normal", "2,udp,attack,extra"])
    with pytest.raises(dio.RowArity) as e:
        dio.load_dataset(p, simple_schema())
    assert (e.value.path, e.value.line) == (p, 2)
    assert "expected 3 columns, got 4" in str(e.value)


def test_load_keeps_long_categorical_levels(tmp_path):
    level = "abcdefghij" * 4
    p = write_csv(tmp_path, "d.csv", ["1,ab,normal", f"2,{level},attack"])
    ds = dio.load_dataset(p, simple_schema())
    assert column(ds, 1).tolist() == ["ab", level]


def test_load_keeps_hash_in_values(tmp_path):
    p = write_csv(tmp_path, "d.csv", ["1,t#cp,normal", "2,#,attack"])
    ds = dio.load_dataset(p, simple_schema())
    assert column(ds, 1).tolist() == ["t#cp", "#"]


def test_load_rejects_digit_group_underscore(tmp_path):
    p = write_csv(tmp_path, "d.csv", ["1,tcp,normal", "1_0,udp,attack"])
    with pytest.raises(dio.BadNumber) as e:
        dio.load_dataset(p, simple_schema())
    assert (e.value.line, e.value.column, e.value.value) == (2, 1, "1_0")


def test_load_empty_file_is_an_empty_dataset_without_warning(tmp_path):
    schema = simple_schema()
    schema.has_header = True
    for text in ("", "\n\n", "a,proto,label\n\n"):
        p = tmp_path / "d.csv"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = dio.load_dataset(p, schema)
        assert ds.features.shape == (0, 2) and len(ds.labels) == 0


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from(list("0123456789.eE+-_ \tnaifINFxy\x1c\xa0")
                               + ["١", "１", "　", "\x00"]),
               max_size=8))
def test_number_test_agrees_with_loadtxt(text):
    row = np.dtype([("a", "f8"), ("b", "O")])
    try:
        np.loadtxt([text + ",x"], dtype=row, delimiter=",", comments=None,
                   quotechar='"', ndmin=1)
        parsed = True
    except ValueError:
        parsed = False
    assert dio._is_number(text) == parsed


def _reference_load_dataset(paths, schema):
    """The row-at-a-time loader the columnar one replaced, kept as its
    reference: (feature rows, labels), raising the same typed errors."""
    if isinstance(paths, (str, bytes)) or hasattr(paths, "__fspath__"):
        paths = [paths]
    rows, labels = [], []
    counts = {}
    caps = {schema.class_id(k): v for k, v in schema.class_caps.items()}
    for path in paths:
        with open(path, newline="") as f:
            first = True
            lineno = 0
            for rec in csv.reader(f):
                lineno += 1
                if not rec:
                    continue
                if first and schema.has_header:
                    first = False
                    continue
                first = False
                if len(rec) != len(schema.columns):
                    raise dio.RowArity(path, lineno, len(schema.columns),
                                       len(rec))
                cid = None
                feats = []
                for j, (col, val) in enumerate(zip(schema.columns, rec), 1):
                    if col.kind == "label":
                        cid = schema.resolve_label(val.strip())
                        if cid is None:
                            raise dio.UnknownLabel(path, lineno, val.strip())
                    elif col.kind == "numeric":
                        try:
                            x = float(val)
                        except ValueError:
                            x = math.nan
                        if not math.isfinite(x):
                            raise dio.BadNumber(path, lineno, j, col.name,
                                                val) from None
                        feats.append(x)
                    elif col.kind == "categorical":
                        feats.append(val.strip())
                cap = caps.get(cid)
                if cap is not None and counts.get(cid, 0) >= cap:
                    continue
                counts[cid] = counts.get(cid, 0) + 1
                rows.append(feats)
                labels.append(cid)
    return rows, labels


_LEVEL_CHARS = st.sampled_from(list("abcxyz09-_.:#,\" \t"))
_LABELS = ["normal", "attack", "neptune", "probe"]  # neptune maps to attack


def _csv_field(draw, value):
    if any(c in value for c in ',"') or draw(st.booleans()):
        return '"' + value.replace('"', '""') + '"'
    return value


def _numeric_text(draw):
    x = draw(st.floats(-1e12, 1e12, allow_nan=False) | st.integers(-10**6, 10**6))
    return draw(st.sampled_from(["{!r}", " {} ", "{:e}", "{:.3f}"])).format(x)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_columnar_loader_matches_reference_loop(data):
    draw = data.draw
    kinds = draw(st.permutations(["numeric", "label"] + draw(st.lists(
        st.sampled_from(["numeric", "categorical", "ignore"]), max_size=4))))
    caps = draw(st.dictionaries(st.sampled_from(["normal", "attack", "probe"]),
                                st.integers(0, 3)))
    schema = dio.DatasetSchema(
        columns=[dio.Column(f"k{j}", k) for j, k in enumerate(kinds)],
        classes=["normal", "attack", "probe"], normal_class="normal",
        label_map={"neptune": "attack"}, has_header=draw(st.booleans()),
        class_caps=caps)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    fault = draw(st.sampled_from([None, "extra", "missing", "number", "label",
                                  "nonfinite"]))
    files = []
    for _ in range(2):
        lines = [",".join(c.name for c in schema.columns)] \
            if schema.has_header else []
        for _ in range(draw(st.integers(0, 12))):
            cells = []
            for kind in kinds:
                if kind == "numeric":
                    cells.append(_numeric_text(draw))
                elif kind == "label":
                    pad = draw(st.sampled_from(["", " ", "\t"]))
                    cells.append(pad + draw(st.sampled_from(_LABELS)) + pad)
                else:
                    level = draw(st.text(_LEVEL_CHARS, min_size=1, max_size=40))
                    cells.append(_csv_field(draw, level))
            lines.append(",".join(cells))
            if draw(st.integers(0, 5)) == 0:
                lines.append("")
        files.append(lines)
    if fault:
        lines = draw(st.sampled_from(files))
        body = [i for i, ln in enumerate(lines)
                if ln and not (schema.has_header and i == 0)]
        if body:
            i = draw(st.sampled_from(body))
            cells = next(csv.reader([lines[i]]))
            numeric = [j for j, k in enumerate(kinds) if k == "numeric"]
            if fault == "extra":
                cells.append("x")
            elif fault == "missing":
                cells.pop()
            elif fault == "label":
                cells[kinds.index("label")] = "mystery"
            else:
                cells[draw(st.sampled_from(numeric))] = draw(st.sampled_from(
                    ["x7", "", "1e", "--1", "0x10"] if fault == "number"
                    else ["nan", "inf", "-1e999"]))
            lines[i] = ",".join(_csv_field(draw, c) for c in cells)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, lines in enumerate(files):
            p = Path(tmp) / f"part{k}.csv"
            p.write_bytes("".join(ln + newline for ln in lines).encode())
            paths.append(p)
        try:
            want = _reference_load_dataset(paths, schema)
        except (dio.RowArity, dio.UnknownLabel, dio.BadNumber) as e:
            with pytest.raises(type(e)) as got:
                dio.load_dataset(paths, schema)
            for attr in ("path", "line", "column", "value"):
                assert getattr(got.value, attr, None) == getattr(e, attr, None)
            assert str(got.value) == str(e)
            return
        ds = dio.load_dataset(paths, schema)
    rows, labels = want
    assert ds.labels.tolist() == labels
    for j, col in enumerate(schema.feature_columns):
        ref = [r[j] for r in rows]
        if col.kind == "numeric":
            assert np.array_equal(np.array(ref, dtype=np.float64).view(np.int64),
                                  column(ds, j).view(np.int64))
        else:
            assert column(ds, j).tolist() == ref


def test_concat_recodes_categorical_levels():
    a = raw_dataset([["tcp", 1.0], ["udp", 2.0]], [0, 1],
                    ["categorical", "numeric"], ["normal", "attack"])
    b = raw_dataset([["icmp", 3.0], ["tcp", 4.0]], [1, 0],
                    ["categorical", "numeric"], ["normal", "attack"])
    both = dio.concat([a, b])
    assert column(both, 0).tolist() == ["tcp", "udp", "icmp", "tcp"]
    assert column(both, 1).tolist() == [1.0, 2.0, 3.0, 4.0]
    assert both.levels[0].tolist() == ["icmp", "tcp", "udp"]


def test_schema_requires_single_label_column():
    with pytest.raises(ValueError):
        dio.DatasetSchema(columns=[dio.Column("a", "numeric")],
                          classes=["normal"], normal_class="normal")


def test_preprocess_minmax():
    ds = raw_dataset([[2.0], [4.0], [6.0]], [0, 0, 1], ["numeric"],
                     ["normal", "attack"])
    enc, plan = dio.preprocess(ds)
    assert enc.features[:, 0].tolist() == [0.0, 0.5, 1.0]
    assert enc.encoded


def test_preprocess_constant_column_maps_to_zero():
    ds = raw_dataset([[5.0], [5.0], [5.0]], [0, 0, 1], ["numeric"],
                     ["normal", "attack"])
    enc, _ = dio.preprocess(ds)
    assert enc.features[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_preprocess_zero_range_column_maps_other_values_to_zero():
    train = raw_dataset([[5.0], [5.0]], [0, 1], ["numeric"],
                        ["normal", "attack"])
    _, plan = dio.preprocess(train)
    apply = raw_dataset([[7.0], [-3.0]], [0, 1], ["numeric"],
                        ["normal", "attack"])
    enc, _ = dio.preprocess(apply, plan)
    assert enc.features[:, 0].tolist() == [0.0, 0.0]


def test_fit_plan_keeps_only_levels_present_in_the_rows():
    ds = raw_dataset([["tcp"], ["udp"], ["icmp"]], [0, 0, 1],
                     ["categorical"], ["normal", "attack"])
    plan = dio.fit_plan(ds.select(np.array([0, 1])))
    assert plan.transforms[0][2] == ("tcp", "udp")


def test_preprocess_onehot_roundtrip():
    ds = raw_dataset([["tcp"], ["udp"], ["icmp"]], [0, 0, 1], ["categorical"],
                     ["normal", "attack"])
    enc, plan = dio.preprocess(ds)
    # levels are sorted: icmp, tcp, udp
    assert enc.features[1].tolist() == [0.0, 0.0, 1.0]
    back = dio.inverse_transform(enc.features, plan)
    table = plan.level_tables()[0]
    assert table[back[:, 0].astype(int)].tolist() == ["tcp", "udp", "icmp"]


def test_preprocess_unseen_level_is_all_zeros():
    train = raw_dataset([["tcp"], ["udp"]], [0, 1], ["categorical"],
                        ["normal", "attack"])
    _, plan = dio.preprocess(train)
    apply = raw_dataset([["icmp"]], [0], ["categorical"], ["normal", "attack"])
    enc, _ = dio.preprocess(apply, plan)
    assert enc.features[0].tolist() == [0.0, 0.0]


def test_preprocess_rejects_encoded_input():
    ds = raw_dataset([[1.0]], [0], ["numeric"], ["normal", "attack"])
    enc, _ = dio.preprocess(ds)
    with pytest.raises(dio.PlanMismatch):
        dio.preprocess(enc)


def test_preprocess_rejects_foreign_plan():
    a = raw_dataset([[1.0]], [0], ["numeric"], ["normal", "attack"])
    b = raw_dataset([["x", 1.0]], [0], ["categorical", "numeric"],
                    ["normal", "attack"])
    _, plan = dio.preprocess(a)
    with pytest.raises(dio.PlanMismatch):
        dio.preprocess(b, plan)


@pytest.mark.parametrize("kinds, order, named", [
    (["numeric", "categorical"], [1, 0],
     "column 0: the plan encodes 'f1' (categorical) where the schema has "
     "'f0' (numeric)"),
    (["numeric", "numeric"], [0],
     "the plan encodes 1 columns, the schema has 2"),
])
def test_preprocess_names_the_plan_column_that_differs(kinds, order, named):
    ds = raw_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1], kinds,
                     ["normal", "attack"])
    _, plan = dio.preprocess(ds)
    plan.transforms = [plan.transforms[i] for i in order]
    with pytest.raises(dio.PlanMismatch, match=re.escape(named)):
        dio.preprocess(ds, plan)


def test_plan_serialization_roundtrip():
    ds = raw_dataset([[2.0, "tcp"], [4.0, "udp"]], [0, 1],
                     ["numeric", "categorical"], ["normal", "attack"])
    _, plan = dio.preprocess(ds)
    clone = dio.PreprocessPlan.from_dict(json.loads(json.dumps(asdict(plan))))
    assert clone == plan


def test_inverse_transform_clamps_numeric():
    _, plan = dio.preprocess(raw_dataset([[10.0], [20.0]], [0, 1],
                                         ["numeric"], ["normal", "attack"]))
    back = dio.inverse_transform(np.array([[-0.5], [1.7]]), plan)
    assert back[:, 0].tolist() == [10.0, 20.0]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_encode_inverse_transform_round_trip(data):
    kinds = data.draw(st.lists(st.sampled_from(["numeric", "categorical"]),
                               min_size=1, max_size=5))
    n = data.draw(st.integers(1, 12))
    number = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    level = st.text("abcxyz-_.:", min_size=1, max_size=4)
    cols = [data.draw(st.lists(number if k == "numeric" else level,
                               min_size=n, max_size=n)) for k in kinds]
    rows = [list(r) for r in zip(*cols)]
    ds = raw_dataset(rows, [0] * n, kinds, ["normal", "attack"])
    enc, plan = dio.preprocess(ds)
    back = dio.inverse_transform(enc.features, plan)
    tables = plan.level_tables()
    for j, (kind, col) in enumerate(zip(kinds, cols)):
        if kind == "categorical":
            assert tables[j][back[:, j].astype(int)].tolist() == col
        else:
            want = np.array(col)
            scale = max(1.0, float(np.abs(want).max()))
            np.testing.assert_allclose(back[:, j].astype(np.float64), want,
                                       rtol=0, atol=1e-12 * scale)


def test_split_counts_90_10():
    rows = [[float(i)] for i in range(100)]
    labels = [0] * 90 + [1] * 10
    ds = raw_dataset(rows, labels, ["numeric"], ["normal", "attack"])
    train, test = dio.split_stratified(ds, 0.8, seed=3)
    assert np.sum(train.labels == 0) == 72
    assert np.sum(train.labels == 1) == 8
    assert np.sum(test.labels == 0) == 18
    assert np.sum(test.labels == 1) == 2


def test_split_is_partition_and_deterministic():
    rows = [[float(i)] for i in range(50)]
    labels = [i % 3 for i in range(50)]
    ds = raw_dataset(rows, labels, ["numeric"], ["a", "b", "c"], normal="a")
    t1, s1 = dio.split_stratified(ds, 0.7, seed=9)
    t2, s2 = dio.split_stratified(ds, 0.7, seed=9)
    _assert_same_rows(t1, t2)
    _assert_same_rows(s1, s2)
    seen = sorted(t1.features[:, 0].tolist() + s1.features[:, 0].tolist())
    assert seen == [float(i) for i in range(50)]


def test_split_singleton_class_goes_to_train():
    ds = raw_dataset([[0.0], [1.0], [2.0], [3.0]], [0, 0, 0, 1],
                     ["numeric"], ["normal", "attack"])
    train, test = dio.split_stratified(ds, 0.5, seed=0)
    assert np.sum(train.labels == 1) == 1
    assert np.sum(test.labels == 1) == 0


def test_split_rejects_bad_fraction():
    ds = raw_dataset([[0.0]], [0], ["numeric"], ["normal"])
    with pytest.raises(ValueError):
        dio.split_stratified(ds, 1.5, seed=0)


def test_concat_keeps_synthetic_flags():
    a = raw_dataset([[0.0]], [0], ["numeric"], ["normal", "attack"])
    b = raw_dataset([[1.0]], [1], ["numeric"], ["normal", "attack"])
    b.synthetic[:] = True
    both = dio.concat([a, b])
    assert both.synthetic.tolist() == [False, True]


def test_builtin_schema_loads():
    schema = dio.builtin_schema("nslkdd")
    assert len(schema.feature_columns) == 41
    assert len(schema.classes) == 5
    assert schema.normal_class == "Normal"
    kinds = {c.name: c.kind for c in schema.columns}
    assert kinds["protocol_type"] == "categorical"
    assert kinds["service"] == "categorical"
    assert kinds["flag"] == "categorical"
    # common raw attack names resolve to their families
    assert schema.classes[schema.resolve_label("neptune")] == "DoS"
    assert schema.classes[schema.resolve_label("nmap")] == "Probe"
    assert schema.classes[schema.resolve_label("guess_passwd")] == "R2L"
    assert schema.classes[schema.resolve_label("rootkit")] == "U2R"
    assert schema.resolve_label("no_such_attack") is None


def test_schema_json_roundtrip(tmp_path):
    schema = simple_schema(label_map={"x": "attack"}, caps={"attack": 3})
    p = tmp_path / "s.json"
    import json
    p.write_text(json.dumps(asdict(schema)))
    clone = dio.DatasetSchema.from_json(p)
    assert clone == schema


def test_load_schema_reads_paths_and_builtins(tmp_path):
    import json
    schema = simple_schema()
    p = tmp_path / "s.json"
    p.write_text(json.dumps(asdict(schema)))
    assert dio.load_schema(str(p)) == schema
    assert dio.load_schema("builtin:nslkdd") == dio.builtin_schema("nslkdd")
