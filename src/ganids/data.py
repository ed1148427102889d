"""CSV ingestion, encoding and stratified splitting for flow-feature datasets.

A schema (JSON) names every column, marks it numeric/categorical/label/ignore,
maps raw label strings onto class names, and declares which class is normal
traffic. Everything downstream works on class ids (indexes into the schema's
class list).
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .autodiff import NonFiniteValue


class IoFailure(OSError):
    pass


class RowArity(ValueError):
    def __init__(self, path, line, expected, got):
        super().__init__(
            f"{path}: line {line}: expected {expected} columns, got {got}")
        self.path = path
        self.line = line


class UnknownLabel(ValueError):
    def __init__(self, path, line, value):
        super().__init__(f"{path}: line {line}: unknown label {value!r}")
        self.path = path
        self.line = line
        self.value = value


class BadNumber(ValueError):
    def __init__(self, path, line, column, name, value):
        super().__init__(f"{path}: line {line}, column {column} ({name}): "
                         f"{value!r} is not a number")
        self.path = path
        self.line = line
        self.column = column  # 1-based, as in the file
        self.value = value


class PlanMismatch(ValueError):
    pass


class EmptyDataset(ValueError):
    pass


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # numeric | categorical | label | ignore


@dataclass
class DatasetSchema:
    columns: list
    classes: list
    normal_class: str
    label_map: dict = field(default_factory=dict)  # raw label -> class name
    has_header: bool = False
    class_caps: dict = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for c in self.columns:
            if c.name in seen:
                raise ValueError(f"schema names column {c.name!r} twice")
            seen.add(c.name)
        labels = [c for c in self.columns if c.kind == "label"]
        if len(labels) != 1:
            raise ValueError("schema must declare exactly one label column")
        if self.normal_class not in self.classes:
            raise ValueError("normal class missing from class list")

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

    def to_dict(self):
        return {
            "columns": [{"name": c.name, "kind": c.kind} for c in self.columns],
            "classes": self.classes,
            "normal_class": self.normal_class,
            "label_map": self.label_map,
            "has_header": self.has_header,
            "class_caps": self.class_caps,
        }

    @staticmethod
    def from_dict(d):
        return DatasetSchema(
            columns=[Column(c["name"], c["kind"]) for c in d["columns"]],
            classes=list(d["classes"]),
            normal_class=d["normal_class"],
            label_map=dict(d.get("label_map", {})),
            has_header=bool(d.get("has_header", False)),
            class_caps={k: int(v) for k, v in d.get("class_caps", {}).items()},
        )

    @staticmethod
    def from_json(path):
        try:
            with open(path) as f:
                return DatasetSchema.from_dict(json.load(f))
        except OSError as e:
            raise IoFailure(str(e)) from e


def builtin_schema(name):
    """Schema shipped with the package (e.g. 'nslkdd')."""
    text = resources.files("ganids.data_files").joinpath(f"{name}_schema.json").read_text()
    return DatasetSchema.from_dict(json.loads(text))


def load_schema(spec) -> DatasetSchema:
    """Schema from a JSON file path, or builtin:<name> for a shipped one."""
    if spec.startswith("builtin:"):
        return builtin_schema(spec.split(":", 1)[1])
    return DatasetSchema.from_json(spec)


@dataclass
class Dataset:
    """Feature matrix plus per-row class ids.

    Raw datasets keep an object matrix (strings for categorical cells);
    encoded datasets hold a float64 matrix in [0, 1].
    """

    features: np.ndarray
    labels: np.ndarray
    schema: DatasetSchema
    encoded: bool
    feature_names: list
    provenance: str = ""
    synthetic: np.ndarray = None  # per-row bool, True for generated rows

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("feature/label row counts differ")
        if self.synthetic is None:
            self.synthetic = np.zeros(len(self.labels), dtype=bool)

    def __len__(self):
        return self.features.shape[0]

    def select(self, idx, provenance=None):
        return Dataset(self.features[idx], self.labels[idx], self.schema,
                       self.encoded, self.feature_names,
                       provenance or self.provenance, self.synthetic[idx])

    def content_hash(self):
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.labels).tobytes())
        if self.encoded:
            h.update(np.ascontiguousarray(self.features, dtype=np.float64).tobytes())
        else:
            for row in self.features:
                h.update(",".join(str(v) for v in row).encode())
        return h.hexdigest()


def concat(datasets, provenance=""):
    first = datasets[0]
    return Dataset(
        np.concatenate([d.features for d in datasets]),
        np.concatenate([d.labels for d in datasets]),
        first.schema, first.encoded, first.feature_names, provenance,
        np.concatenate([d.synthetic for d in datasets]))


def load_dataset(paths, schema: DatasetSchema, seed=0) -> Dataset:
    """Load one or more CSV files under a schema into a raw dataset.

    Per-class caps (schema.class_caps) keep the first N rows of each class in
    stream order, which is deterministic for fixed files.
    """
    if isinstance(paths, (str, bytes)) or hasattr(paths, "__fspath__"):
        paths = [paths]
    feat_cols = schema.feature_columns
    # 1-based file columns; a zip over a range costs less per cell than
    # enumerate's nested unpacking
    positions = range(1, len(schema.columns) + 1)
    rows, labels = [], []
    counts = {}
    caps = {schema.class_id(k): v for k, v in schema.class_caps.items()}
    for path in paths:
        try:
            f = open(path, newline="")
        except OSError as e:
            raise IoFailure(str(e)) from e
        with f:
            reader = csv.reader(f)
            first = True
            lineno = 0
            for rec in reader:
                lineno += 1
                if not rec:
                    continue
                if first and schema.has_header:
                    first = False
                    continue
                first = False
                if len(rec) != len(schema.columns):
                    raise RowArity(path, lineno, len(schema.columns), len(rec))
                cid = None
                feats = []
                for j, col, val in zip(positions, schema.columns, rec):
                    if col.kind == "label":
                        cid = schema.resolve_label(val.strip())
                        if cid is None:
                            raise UnknownLabel(path, lineno, val.strip())
                    elif col.kind == "numeric":
                        try:
                            feats.append(float(val))
                        except ValueError:
                            raise BadNumber(path, lineno, j, col.name,
                                            val) from None
                    elif col.kind == "categorical":
                        feats.append(val.strip())
                cap = caps.get(cid)
                if cap is not None and counts.get(cid, 0) >= cap:
                    continue
                counts[cid] = counts.get(cid, 0) + 1
                rows.append(feats)
                labels.append(cid)
    features = np.empty((len(rows), len(feat_cols)), dtype=object)
    for i, r in enumerate(rows):
        features[i] = r
    for j, col in enumerate(feat_cols):
        if col.kind == "numeric" and len(rows):
            vals = features[:, j].astype(np.float64)
            if not np.all(np.isfinite(vals)):
                raise NonFiniteValue(f"non-finite values in column {col.name}")
    return Dataset(features, np.asarray(labels, dtype=np.int64), schema,
                   encoded=False, feature_names=[c.name for c in feat_cols],
                   provenance=";".join(str(p) for p in paths))


# ---------------------------------------------------------------------------
# encoding


@dataclass
class PreprocessPlan:
    """Fitted per-column transforms: min/max for numerics, level tables for
    categoricals. Applying the plan never invents columns beyond this layout."""

    transforms: list  # (name, 'numeric', lo, hi) | (name, 'categorical', levels)
    fingerprint: str

    def encoded_names(self):
        names = []
        for t in self.transforms:
            if t[1] == "numeric":
                names.append(t[0])
            else:
                names.extend(f"{t[0]}={lvl}" for lvl in t[2])
        return names

    def to_dict(self):
        return {"transforms": [list(t) for t in self.transforms],
                "fingerprint": self.fingerprint}

    @staticmethod
    def from_dict(d):
        return PreprocessPlan([tuple(t) for t in d["transforms"]], d["fingerprint"])


def _schema_fingerprint(schema):
    blob = json.dumps([(c.name, c.kind) for c in schema.feature_columns])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def fit_plan(dataset: Dataset) -> PreprocessPlan:
    if dataset.encoded:
        raise PlanMismatch("dataset is already encoded")
    if len(dataset) == 0:
        raise EmptyDataset("cannot fit a preprocessing plan on an empty dataset")
    transforms = []
    for j, col in enumerate(dataset.schema.feature_columns):
        if col.kind == "numeric":
            vals = dataset.features[:, j].astype(np.float64)
            transforms.append((col.name, "numeric", float(vals.min()), float(vals.max())))
        else:
            levels = sorted({str(v) for v in dataset.features[:, j]})
            transforms.append((col.name, "categorical", tuple(levels)))
    return PreprocessPlan(transforms, _schema_fingerprint(dataset.schema))


def preprocess(dataset: Dataset, plan: PreprocessPlan = None):
    """Min-max scale numerics to [0,1] and one-hot categoricals.

    Returns (encoded dataset, plan). Unseen categorical levels map to an
    all-zero block; zero-range numerics map to 0.
    """
    if dataset.encoded:
        raise PlanMismatch("dataset is already encoded")
    if plan is None:
        plan = fit_plan(dataset)
    elif plan.fingerprint != _schema_fingerprint(dataset.schema):
        raise PlanMismatch("plan was fitted on an incompatible schema")
    blocks = []
    for j, t in enumerate(plan.transforms):
        if t[1] == "numeric":
            lo, hi = t[2], t[3]
            vals = dataset.features[:, j].astype(np.float64)
            if hi > lo:
                blocks.append(((vals - lo) / (hi - lo))[:, None])
            else:
                blocks.append(np.zeros((len(dataset), 1)))
        else:
            levels = {lvl: i for i, lvl in enumerate(t[2])}
            block = np.zeros((len(dataset), len(t[2])))
            for i, v in enumerate(dataset.features[:, j]):
                k = levels.get(str(v))
                if k is not None:
                    block[i, k] = 1.0
            blocks.append(block)
    matrix = np.hstack(blocks) if blocks else np.zeros((len(dataset), 0))
    if not np.all(np.isfinite(matrix)):
        raise NonFiniteValue("encoding produced non-finite values")
    enc = Dataset(matrix, dataset.labels.copy(), dataset.schema, encoded=True,
                  feature_names=plan.encoded_names(),
                  provenance=dataset.provenance, synthetic=dataset.synthetic.copy())
    return enc, plan


def inverse_transform(matrix, plan: PreprocessPlan):
    """Decode encoded rows back to raw space.

    Numeric values are clamped to [0,1] before unscaling; one-hot blocks are
    decoded by argmax (generator outputs are continuous).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    rows = np.empty((matrix.shape[0], len(plan.transforms)), dtype=object)
    off = 0
    for j, t in enumerate(plan.transforms):
        if t[1] == "numeric":
            lo, hi = t[2], t[3]
            v = np.clip(matrix[:, off], 0.0, 1.0)
            rows[:, j] = v * (hi - lo) + lo
            off += 1
        else:
            width = len(t[2])
            idx = np.argmax(matrix[:, off:off + width], axis=1)
            rows[:, j] = np.array(t[2], dtype=object)[idx]
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
    return dataset.select(train_idx, "train"), dataset.select(test_idx, "test")
