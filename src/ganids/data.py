"""CSV ingestion, encoding and stratified splitting for flow-feature datasets.

A schema (JSON) names every column, marks it numeric/categorical/label/ignore,
maps raw label strings onto class names, and declares which class is normal
traffic. Everything downstream works on class ids (indexes into the schema's
class list).

Each CSV file is parsed by one `np.loadtxt` call into typed columns. When
that parse fails, or a label is unknown, the file is read again with
`csv.reader` only to raise a typed error naming its path, line and column.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
import sys
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from importlib import resources
from itertools import chain

import numpy as np

from .errors import InputError, NonFiniteValue


class IoFailure(OSError):
    pass


class RowArity(InputError, ValueError):
    def __init__(self, path, line, expected, got):
        super().__init__(
            f"{path}: line {line}: expected {expected} columns, got {got}")
        self.path = path
        self.line = line


class UnknownLabel(InputError, ValueError):
    def __init__(self, path, line, value):
        super().__init__(f"{path}: line {line}: unknown label {value!r}")
        self.path = path
        self.line = line
        self.value = value


class BadNumber(InputError, ValueError):
    def __init__(self, path, line, column, name, value):
        super().__init__(f"{path}: line {line}, column {column} ({name}): "
                         f"{value!r} is not a finite number")
        self.path = path
        self.line = line
        self.column = column  # 1-based, as in the file
        self.value = value


class PlanMismatch(InputError, ValueError):
    pass


class EmptyDataset(InputError, ValueError):
    pass


class SchemaInvalid(InputError, ValueError):
    pass


COLUMN_KINDS = ("numeric", "categorical", "label", "ignore")


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # one of COLUMN_KINDS


@dataclass
class DatasetSchema:
    columns: list[Column]
    classes: list[str]
    normal_class: str
    label_map: dict[str, str] = field(default_factory=dict)  # raw -> class
    has_header: bool = False
    class_caps: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for c in self.columns:
            if c.name in seen:
                raise ValueError(f"schema names column {c.name!r} twice")
            if c.kind not in COLUMN_KINDS:
                raise ValueError(f"column {c.name!r} has kind {c.kind!r}, "
                                 f"not one of {', '.join(COLUMN_KINDS)}")
            seen.add(c.name)
        labels = [c for c in self.columns if c.kind == "label"]
        if len(labels) != 1:
            raise ValueError("schema must declare exactly one label column")
        # with none, a run would fit a model that predicts the prior
        if not self.feature_columns:
            raise ValueError("schema must declare at least one numeric or "
                             "categorical column")
        if self.normal_class not in self.classes:
            raise ValueError("normal class missing from class list")
        for name, cap in self.class_caps.items():
            if name not in self.classes:
                raise ValueError(f"class_caps names {name!r}, which is not "
                                 "in the class list")
            if cap < 0:
                raise ValueError(f"class_caps: {name}: {cap} is below 0")

    @property
    def feature_columns(self):
        return [c for c in self.columns if c.kind in ("numeric", "categorical")]

    def class_id(self, name):
        return self.classes.index(name)

    @property
    def normal_id(self):
        return self.classes.index(self.normal_class)

    def resolve_label(self, raw):
        name = self.label_map.get(raw, raw)
        if name not in self.classes:
            return None
        return self.classes.index(name)

    @staticmethod
    def from_json(path, spec=None):
        """The schema in the JSON file at path; SchemaInvalid, naming spec
        (by default the path), for a file that holds none."""
        try:
            with open(path) as f:
                return decode(DatasetSchema, json.load(f))
        except OSError as e:
            raise IoFailure(str(e)) from e
        except (ValueError, TypeError) as e:
            raise SchemaInvalid(f"{spec or path}: not a dataset schema "
                                f"({type(e).__name__}: {e})") from e


def builtin_schema(name):
    """Schema shipped with the package (e.g. 'nslkdd'); SchemaInvalid for a
    name that names none, a path or a NUL character included."""
    path = resources.files("ganids.data_files").joinpath(f"{name}_schema.json")
    if not (name.isidentifier() and path.is_file()):
        raise SchemaInvalid(f"builtin:{name}: no such builtin schema")
    return DatasetSchema.from_json(path, f"builtin:{name}")


def load_schema(spec) -> DatasetSchema:
    """Schema from a JSON file path, or builtin:<name> for a shipped one."""
    if spec.startswith("builtin:"):
        return builtin_schema(spec.split(":", 1)[1])
    return DatasetSchema.from_json(spec)


class FieldTypeError(TypeError):
    """A JSON value that does not fit the field it is read into."""

    def __init__(self, key, reason):
        # a key read from a file may hold a line break
        super().__init__(f"{key if key.isprintable() else repr(key)}: "
                         f"{reason}")
        self.key = key
        self.reason = reason


# what a value must be an instance of to fit a field of the key's type; the
# builtin types first, which isinstance tests without the abstract classes
_FITS = {int: (int, numbers.Integral), float: (float, int, numbers.Real)}


def is_finite_real(x):
    """Whether x is a number that fits a float field (a bool does not) and
    that a float holds finitely (an int too large for a float does not)."""
    return isinstance(x, _FITS[float]) and not isinstance(x, bool) \
        and abs(x) <= sys.float_info.max


@functools.cache
def _form(kind):
    """How decode reads a value of type kind, resolved once per type (a
    model file holds a record per tree node): ("optional", T) for T | None,
    ("array", None) for np.ndarray, ("record", (field types, names of the
    fields without a default)) for a dataclass, and ("plain", (the type a
    value must be an instance of, the item types)) otherwise."""
    origin = typing.get_origin(kind)
    if origin is types.UnionType or origin is typing.Union:
        return "optional", next(a for a in typing.get_args(kind)
                                if a is not type(None))
    if kind is np.ndarray:
        return "array", None
    if is_dataclass(kind):
        return "record", (typing.get_type_hints(kind), tuple(
            f.name for f in fields(kind)
            if f.default is MISSING and f.default_factory is MISSING))
    return "plain", (origin or kind, typing.get_args(kind))


def plain(value):
    """json's `default` hook, the one encoder of what `decode` reads: a
    dataclass as a dict of its fields, read one by one (a cached_property
    lives in __dict__ too), and an array as a list. `json.dumps(x,
    default=plain)` writes what `json.dumps(dataclasses.asdict(x))` does,
    without copying any part of x."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return {f.name: getattr(value, f.name) for f in fields(value)}


def decode(kind, value, key=None):
    """The value of type `kind` that the JSON value `value` holds.

    A dataclass reads from an object that names only its fields and every
    field without a default; each value is decoded by its field's
    annotation, then the dataclass's own checks run. `list[T]` and
    `dict[str, T]` read item by item, `T | None` reads null as None and
    anything else as a T, and `np.ndarray` reads a list of JSON numbers as
    a 1-D float64 array. Any other type takes an instance of itself, where
    an int fits a float and a bool fits only a bool.

    Raises FieldTypeError(key, reason) for a value that does not fit or that
    a dataclass rejects, with a nested value's key leading the reason
    ("gan: lam: must be of type float, got 'x'"). A whole document (`key`
    None) raises its errors as they are: a top-level key's FieldTypeError,
    the dataclass's ValueError, or TypeError when it is not an object.
    """
    try:
        form, detail = _form(kind)
        if form == "optional":
            return None if value is None else decode(detail, value)
        if form == "array":
            # the types json reads numbers as, so not a bool
            if not (isinstance(value, list)
                    and set(map(type, value)) <= {int, float}):
                raise TypeError(f"must be a list of numbers, got {value!r}")
            return np.array(value, dtype=np.float64)
        shape, args = (dict, None) if form == "record" else detail
        if not isinstance(value, _FITS.get(shape, shape)) or (
                shape is not bool and isinstance(value, bool)):
            raise TypeError(f"must be of type {shape.__name__}, got {value!r}")
        if form == "record":
            hints, required = detail
            for name in value:
                if name not in hints:
                    raise FieldTypeError(name, "unknown key")
            for name in required:
                if name not in value:
                    raise FieldTypeError(name, "missing")
            return kind(**{k: decode(hints[k], v, k)
                           for k, v in value.items()})
        if shape is list and args:
            return [decode(args[0], v, f"[{i}]") for i, v in enumerate(value)]
        if shape is dict and args:
            return {decode(args[0], k, k): decode(args[1], v, k)
                    for k, v in value.items()}
        return value
    # OverflowError: an integer too large for a float
    except (TypeError, ValueError, OverflowError) as e:
        if key is None:
            raise
        raise FieldTypeError(key, str(e)) from e


@dataclass
class Dataset:
    """Feature matrix plus per-row class ids.

    Both forms hold a float64 matrix. Encoded datasets hold values in [0, 1].
    Raw datasets hold numeric values as read and, in a categorical column,
    integer codes into that column's level table in `levels` (an object
    array of strings; None for a numeric column).
    """

    features: np.ndarray
    labels: np.ndarray
    schema: DatasetSchema
    encoded: bool
    feature_names: list
    synthetic: np.ndarray = None  # per-row bool, True for generated rows
    levels: list = None  # raw only: per feature column, level table or None

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("feature/label row counts differ")
        if self.synthetic is None:
            self.synthetic = np.zeros(len(self.labels), dtype=bool)
        if not self.encoded and self.levels is None:
            self.levels = [None] * self.features.shape[1]

    def __len__(self):
        return self.features.shape[0]

    def select(self, idx):
        return Dataset(self.features[idx], self.labels[idx], self.schema,
                       self.encoded, self.feature_names, self.synthetic[idx],
                       self.levels)


def select_columns(dataset: Dataset, names) -> Dataset:
    """The encoded dataset with only the named feature columns, in that
    order; the dataset itself, not a copy, when names are all of its
    columns in order. A name the dataset lacks raises PlanMismatch, and a
    raw dataset ValueError."""
    if not dataset.encoded:
        raise ValueError("select_columns takes an encoded dataset only")
    names = list(names)
    if names == dataset.feature_names:
        return dataset
    index = {n: j for j, n in enumerate(dataset.feature_names)}
    missing = [n for n in names if n not in index]
    if missing:
        raise PlanMismatch(f"{len(missing)} column(s) missing from the "
                           f"dataset's encoding, first {missing[0]!r}")
    return Dataset(dataset.features[:, [index[n] for n in names]],
                   dataset.labels, dataset.schema, True, names,
                   dataset.synthetic)


def concat(datasets):
    """The rows of encoded datasets of one plan, in order. A raw part
    raises ValueError: its categorical codes index its own level table."""
    if not all(d.encoded for d in datasets):
        raise ValueError("concat takes encoded datasets only")
    first = datasets[0]
    return Dataset(
        np.concatenate([d.features for d in datasets]),
        np.concatenate([d.labels for d in datasets]),
        first.schema, True, first.feature_names,
        np.concatenate([d.synthetic for d in datasets]))


def load_dataset(paths, schema: DatasetSchema) -> Dataset:
    """Load one or more CSV files under a schema into a raw dataset.

    Per-class caps (schema.class_caps) keep the first N rows of each class in
    stream order, which is deterministic for fixed files.
    """
    if isinstance(paths, (str, bytes)) or hasattr(paths, "__fspath__"):
        paths = [paths]
    if not paths:
        raise EmptyDataset("no dataset files given")
    # every file column is parsed (so loadtxt checks each row's arity), into
    # a float64 field or a string object, which no fixed width can truncate
    row = np.dtype([(f"c{j}", "f8" if c.kind == "numeric" else "O")
                    for j, c in enumerate(schema.columns)])
    tables, ids = zip(*[_parse_file(p, schema, row) for p in paths])
    table, labels = (tables[0], ids[0]) if len(paths) == 1 else \
        (np.concatenate(tables), np.concatenate(ids))
    if schema.class_caps:
        keep = np.ones(len(labels), dtype=bool)
        for name, cap in schema.class_caps.items():
            cid = schema.class_id(name)
            keep[np.flatnonzero(labels == cid)[cap:]] = False
        table, labels = table[keep], labels[keep]
    cols = [(j, c) for j, c in enumerate(schema.columns)
            if c.kind in ("numeric", "categorical")]
    features = np.empty((len(table), len(cols)))
    levels = [None] * len(cols)
    for k, (j, col) in enumerate(cols):
        if col.kind == "numeric":
            features[:, k] = table[f"c{j}"]
        else:
            levels[k], features[:, k] = _factorize(table[f"c{j}"])
    return Dataset(features, labels, schema, encoded=False,
                   feature_names=[c.name for _, c in cols], levels=levels)


def _parse_file(path, schema, row):
    """One CSV file parsed by one loadtxt call into a structured array of the
    row dtype, with each row's class id."""
    try:
        f = open(path, encoding="utf-8", newline="")
    except OSError as e:
        raise IoFailure(str(e)) from e
    # a UnicodeDecodeError is a ValueError: bytes that are not UTF-8 are
    # found, with their line, like any other fault; and so is a header
    # cell past csv's field size limit (csv.Error)
    with f:
        try:
            if schema.has_header:
                next((rec for rec in csv.reader(f) if rec), None)
            # blank lines hold no row; with none left, loadtxt would warn
            first = next((line for line in f if line.strip("\r\n")), None)
            table = np.empty(0, row) if first is None else np.loadtxt(
                chain([first], f), dtype=row, delimiter=",", comments=None,
                quotechar='"', ndmin=1)
        except (ValueError, csv.Error) as e:
            _raise_first_fault(path, schema, e)
    # loadtxt reads "inf", "nan" and "1e400" as numbers
    if not all(np.isfinite(table[f"c{j}"]).all()
               for j, c in enumerate(schema.columns) if c.kind == "numeric"):
        _raise_first_fault(path, schema,
                           NonFiniteValue(f"{path}: a non-finite number"))
    label = [c.kind for c in schema.columns].index("label")
    raw, codes = _factorize(table[f"c{label}"])
    ids = [schema.resolve_label(v) for v in raw]
    if None in ids:
        _raise_first_fault(path, schema,
                           UnknownLabel(path, 0, raw[ids.index(None)]))
    return table, np.array(ids, dtype=np.int64)[codes]


def _factorize(values):
    """The sorted level table (object array) of a column of strings, with
    surrounding whitespace stripped, and each row's code in it. A dict finds
    the distinct values in one pass; only those few are stripped and sorted
    (stripping can merge two of them)."""
    seen = {}
    codes = np.fromiter((seen.setdefault(v, len(seen)) for v in values),
                        dtype=np.intp, count=len(values))
    table, merged = np.unique(np.array([v.strip() for v in seen], dtype=object),
                              return_inverse=True)
    return table, merged[codes]


def _is_number(text):
    """Whether loadtxt's float64 parser accepts text: once surrounding
    whitespace is stripped, Python's float syntax in ASCII without digit-group
    underscores."""
    text = text.strip()
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _raise_first_fault(path, schema, cause):
    """Re-read one file with csv.reader and raise the typed error of its first
    bad row: RowArity, UnknownLabel or BadNumber (a numeric cell that is
    not a finite number), with the line (record) and the 1-based file
    column, or an InputError naming the first line that is not UTF-8 or
    that csv cannot read (a field past its size limit) when the reader
    comes to it first. Raises cause when no row is bad."""
    width = len(schema.columns)
    with open(path, encoding="utf-8", newline="") as f:
        header = schema.has_header
        reader = csv.reader(f)
        try:
            for line, rec in enumerate(reader, 1):
                if not rec:
                    continue
                if header:
                    header = False
                    continue
                if len(rec) != width:
                    raise RowArity(path, line, width, len(rec)) from None
                for j, (col, val) in enumerate(zip(schema.columns, rec), 1):
                    if col.kind == "label" \
                            and schema.resolve_label(val.strip()) is None:
                        raise UnknownLabel(path, line, val.strip()) from None
                    if col.kind == "numeric" and not (
                            _is_number(val) and math.isfinite(float(val))):
                        raise BadNumber(path, line, j, col.name, val) from None
        except UnicodeDecodeError as e:
            raise InputError(f"{path}: line {_first_non_utf8_line(path)}: "
                             f"not UTF-8 text ({e.reason})") from None
        except csv.Error as e:
            raise InputError(f"{path}: line {reader.line_num}: {e}") from None
    raise cause


def _first_non_utf8_line(path):
    """The number of the first line of a file that is not UTF-8. A line
    break is one byte that no multi-byte character holds, so each line
    decodes on its own."""
    with open(path, "rb") as f:
        for line, data in enumerate(f, 1):
            try:
                data.decode("utf-8")
            except UnicodeDecodeError:
                return line


# ---------------------------------------------------------------------------
# encoding


@dataclass
class PreprocessPlan:
    """Fitted per-column transforms: min/max for numerics, level tables for
    categoricals. Applying the plan never invents columns beyond this layout.

    Each transform is a tuple, however it was read: (name, "numeric", lo,
    hi) with finite lo and hi, or (name, "categorical", levels) with a tuple
    of level strings. `preprocess` applies a plan only to a schema whose
    feature columns are the transforms' names and kinds, in order."""

    transforms: list  # (name, 'numeric', lo, hi) | (name, 'categorical', levels)

    def __post_init__(self):
        self.transforms = [_checked_transform(i, t)
                           for i, t in enumerate(self.transforms)]

    def encoded_names(self):
        names = []
        for t in self.transforms:
            if t[1] == "numeric":
                names.append(t[0])
            else:
                names.extend(f"{t[0]}={lvl}" for lvl in t[2])
        return names

    def level_tables(self):
        """Per transform, its levels as an object array (None for a numeric
        one): the level tables of rows from inverse_transform."""
        return [None if t[1] == "numeric" else np.array(t[2], dtype=object)
                for t in self.transforms]

    @staticmethod
    def from_dict(d):
        return decode(PreprocessPlan, d)


def _checked_transform(i, t):
    """Transform i as a tuple; ValueError naming it when it is neither form
    as fit_plan builds it: lo <= hi, levels sorted and distinct."""
    if isinstance(t, (list, tuple)) and len(t) >= 2 and isinstance(t[0], str):
        name, kind, *rest = t
        if kind == "numeric" and len(rest) == 2 \
                and all(map(is_finite_real, rest)) \
                and float(rest[0]) <= float(rest[1]):
            return (name, kind, float(rest[0]), float(rest[1]))
        if kind == "categorical" and len(rest) == 1 \
                and isinstance(rest[0], (list, tuple)) \
                and all(isinstance(v, str) for v in rest[0]) \
                and all(a < b for a, b in zip(rest[0], rest[0][1:])):
            return (name, kind, tuple(rest[0]))
    raise ValueError(f"transforms: [{i}]: not a (name, \"numeric\", lo, hi) "
                     "transform with finite lo <= hi, nor a (name, "
                     "\"categorical\", levels) one with string levels in "
                     "ascending order without repeats")


def fit_plan(dataset: Dataset) -> PreprocessPlan:
    if dataset.encoded:
        raise PlanMismatch("dataset is already encoded")
    if len(dataset) == 0:
        raise EmptyDataset("cannot fit a preprocessing plan on an empty dataset")
    transforms = []
    lo, hi = dataset.features.min(axis=0), dataset.features.max(axis=0)
    for j, col in enumerate(dataset.schema.feature_columns):
        if col.kind == "numeric":
            transforms.append((col.name, "numeric", float(lo[j]), float(hi[j])))
        else:
            table = dataset.levels[j]
            seen = np.bincount(dataset.features[:, j].astype(np.intp),
                               minlength=len(table)) > 0
            transforms.append((col.name, "categorical", tuple(sorted(table[seen]))))
    return PreprocessPlan(transforms)


def preprocess(dataset: Dataset, plan: PreprocessPlan = None):
    """Min-max scale numerics to [0,1] and one-hot categoricals.

    Returns (encoded dataset, plan). Unseen categorical levels map to an
    all-zero block; zero-range numerics map to 0. A plan whose (name, kind)
    pairs are not the schema's feature columns raises PlanMismatch.
    """
    if dataset.encoded:
        raise PlanMismatch("dataset is already encoded")
    if plan is None:
        plan = fit_plan(dataset)
    cols = [(c.name, c.kind) for c in dataset.schema.feature_columns]
    if len(plan.transforms) != len(cols):
        raise PlanMismatch(f"the plan encodes {len(plan.transforms)} "
                           f"columns, the schema has {len(cols)}")
    for i, (t, col) in enumerate(zip(plan.transforms, cols)):
        if t[:2] != col:
            raise PlanMismatch(f"column {i}: the plan encodes {t[0]!r} "
                               f"({t[1]}) where the schema has {col[0]!r} "
                               f"({col[1]})")
    names = plan.encoded_names()
    t = plan.transforms
    starts = np.cumsum([0] + [1 if x[1] == "numeric" else len(x[2]) for x in t])
    num = [j for j, x in enumerate(t) if x[1] == "numeric"]
    lo, hi = np.array([t[j][2] for j in num]), np.array([t[j][3] for j in num])
    matrix = np.zeros((len(dataset), len(names)))
    # all numeric columns in one block (a copy: num is a list), then a
    # zero-range column maps to 0
    block = dataset.features[:, num]
    block -= lo
    block /= np.where(hi > lo, hi - lo, 1.0)
    block[:, hi <= lo] = 0.0
    if not np.all(np.isfinite(block)):
        raise NonFiniteValue("encoding produced non-finite values")
    matrix[:, starts[num]] = block
    for j, x in enumerate(t):
        if x[1] == "categorical":
            # the plan's position of each level of the dataset's table, -1
            # for a level the plan has not seen
            index = {lvl: i for i, lvl in enumerate(x[2])}
            pos = np.array([index.get(lvl, -1) for lvl in dataset.levels[j]],
                           dtype=np.intp)[dataset.features[:, j].astype(np.intp)]
            rows = np.flatnonzero(pos >= 0)
            matrix[rows, starts[j] + pos[rows]] = 1.0
    enc = Dataset(matrix, dataset.labels.copy(), dataset.schema, encoded=True,
                  feature_names=names, synthetic=dataset.synthetic.copy())
    return enc, plan


def inverse_transform(matrix, plan: PreprocessPlan):
    """Decode encoded rows back to the raw float64 form.

    Numeric values are clamped to [0,1] before unscaling; one-hot blocks are
    decoded by argmax (generator outputs are continuous) into codes of
    `plan.level_tables()`.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    rows = np.empty((matrix.shape[0], len(plan.transforms)))
    off = 0
    for j, t in enumerate(plan.transforms):
        if t[1] == "numeric":
            lo, hi = t[2], t[3]
            v = np.clip(matrix[:, off], 0.0, 1.0)
            rows[:, j] = v * (hi - lo) + lo
            off += 1
        else:
            width = len(t[2])
            rows[:, j] = np.argmax(matrix[:, off:off + width], axis=1)
            off += width
    return rows


# ---------------------------------------------------------------------------
# splitting


def split_stratified(dataset: Dataset, train_fraction, seed):
    """Per-class split; train gets round(fraction * n) rows, at least 1."""
    if len(dataset) == 0:
        raise EmptyDataset("cannot split an empty dataset")
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for cid in np.unique(dataset.labels):
        rows = np.flatnonzero(dataset.labels == cid)
        perm = rng.permutation(rows)
        k = max(1, int(round(train_fraction * len(rows))))
        train_idx.append(perm[:k])
        test_idx.append(perm[k:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    return dataset.select(train_idx), dataset.select(test_idx)
