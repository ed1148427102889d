"""Seeded generator of NSL-KDD-shaped traffic files.

The layout follows NSL-KDD: 41 raw feature columns, 38 numeric and 3
categorical (protocol_type with 3 levels, service with 70, flag with 11),
then the label. One-hot encoding makes that 122 columns.

The class profiles come from a fixed seed, so every workload seed draws
from the same distribution; the workload seed only picks the rows. The two
minority classes sit close to normal traffic and a share of their rows is
drawn from the normal profile outright, so their recall stays well below 1.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

CLASSES = ["normal", "dos", "probe", "r2l", "u2r"]
# NSL-KDD training plus test census (the C3 reference counts)
TRAIN_MIX = {"normal": 77054, "dos": 53385, "probe": 14077, "r2l": 3749,
             "u2r": 252}
# KDDTest+ alone: richer in the minority classes than the training files
HELD_OUT_MIX = {"normal": 9711, "dos": 7458, "probe": 2421, "r2l": 2754,
                "u2r": 200}

PROTOCOLS = ["tcp", "udp", "icmp"]
SERVICES = [f"svc{i:02d}" for i in range(70)]
FLAGS = ["SF", "S0", "REJ", "RSTR", "RSTO", "SH", "S1", "S2", "S3", "OTH",
         "RSTOS0"]

# (name, kind): numeric columns in NSL-KDD order, categoricals after
# "duration" as in the real files
_NUMERIC = [
    ("duration", "count"), ("src_bytes", "bytes"), ("dst_bytes", "bytes"),
    ("land", "binary"), ("wrong_fragment", "count"), ("urgent", "count"),
    ("hot", "count"), ("num_failed_logins", "count"), ("logged_in", "binary"),
    ("num_compromised", "count"), ("root_shell", "binary"),
    ("su_attempted", "binary"), ("num_root", "count"),
    ("num_file_creations", "count"), ("num_shells", "count"),
    ("num_access_files", "count"), ("num_outbound_cmds", "count"),
    ("is_host_login", "binary"), ("is_guest_login", "binary"),
    ("count", "count"), ("srv_count", "count"), ("serror_rate", "rate"),
    ("srv_serror_rate", "rate"), ("rerror_rate", "rate"),
    ("srv_rerror_rate", "rate"), ("same_srv_rate", "rate"),
    ("diff_srv_rate", "rate"), ("srv_diff_host_rate", "rate"),
    ("dst_host_count", "count"), ("dst_host_srv_count", "count"),
    ("dst_host_same_srv_rate", "rate"), ("dst_host_diff_srv_rate", "rate"),
    ("dst_host_same_src_port_rate", "rate"),
    ("dst_host_srv_diff_host_rate", "rate"), ("dst_host_serror_rate", "rate"),
    ("dst_host_srv_serror_rate", "rate"), ("dst_host_rerror_rate", "rate"),
    ("dst_host_srv_rerror_rate", "rate"),
]
_CATEGORICAL = [("protocol_type", PROTOCOLS), ("service", SERVICES),
                ("flag", FLAGS)]

# per attack class: (numeric features shifted, shift in latent sd,
# categorical sharpness, share of rows drawn from the normal profile)
# r2l is easy to tell apart except for its camouflaged rows, so its recall
# sits just under 0.65 at every seed; u2r, with a handful of training rows
# near normal traffic, is almost never caught
_SHIFTS = {"dos": (14, 1.6, 3.0, 0.0), "probe": (10, 1.3, 2.0, 0.0),
           "r2l": (8, 4.0, 1.0, 0.35), "u2r": (4, 1.0, 0.6, 0.4)}
_PROFILE_SEED = 20211007


def _profiles():
    rng = np.random.default_rng(_PROFILE_SEED)
    m = len(_NUMERIC)
    base = {"count": rng.normal(0.0, 1.0, m), "bytes": rng.normal(6.0, 1.5, m),
            "binary": rng.normal(-1.0, 0.8, m), "rate": rng.normal(-1.0, 1.2, m)}
    normal_mu = np.array([base[k][j] for j, (_, k) in enumerate(_NUMERIC)])
    # a uniform floor keeps every level present in a few thousand rows, so
    # the encoded width is 122 at every seed
    normal_cat = [0.7 * rng.dirichlet(np.full(len(levels), 0.7))
                  + 0.3 / len(levels) for _, levels in _CATEGORICAL]
    prof = {"normal": (normal_mu, normal_cat, 0.0)}
    for cls, (n_shift, size, sharp, camo) in _SHIFTS.items():
        mu = normal_mu.copy()
        idx = rng.choice(m, size=n_shift, replace=False)
        mu[idx] += size * rng.choice([-1.0, 1.0], size=n_shift) \
            * rng.uniform(0.7, 1.3, n_shift)
        cats = []
        for p_norm in normal_cat:
            tilt = np.exp(sharp * rng.normal(0.0, 1.0, len(p_norm)))
            p = p_norm * tilt
            cats.append(p / p.sum())
        prof[cls] = (mu, cats, camo)
    return prof


def _numeric_cells(latent):
    cols = []
    for j, (_, kind) in enumerate(_NUMERIC):
        u = latent[:, j]
        if kind == "count":
            cols.append(np.maximum(np.rint(np.expm1(u)), 0.0).astype(int).astype(str))
        elif kind == "bytes":
            cols.append(np.rint(np.exp(u)).astype(int).astype(str))
        elif kind == "binary":
            cols.append((u > 0).astype(int).astype(str))
        else:
            cols.append(np.char.mod("%.2f", 1.0 / (1.0 + np.exp(-u))))
    return cols


def class_counts(rows, mix):
    """Rows per class, proportional to `mix`, at least 2 per class."""
    total = sum(mix.values())
    return {c: max(2, int(round(rows * mix[c] / total))) for c in CLASSES}


def write_csv(path, rows, seed, mix=TRAIN_MIX):
    """Write `rows` shuffled traffic rows drawn with `seed`; returns the
    per-class counts written."""
    rng = np.random.default_rng(seed)
    prof = _profiles()
    counts = class_counts(rows, mix)
    labels = np.concatenate([np.full(n, c, dtype=object)
                             for c, n in counts.items()])
    rng.shuffle(labels)
    n = len(labels)
    latent = np.empty((n, len(_NUMERIC)))
    cats = np.empty((n, len(_CATEGORICAL)), dtype=object)
    for cls in CLASSES:
        rows_c = np.flatnonzero(labels == cls)
        mu, cat_p, camo = prof[cls]
        hide = rng.random(len(rows_c)) < camo
        mus = np.where(hide[:, None], prof["normal"][0], mu)
        latent[rows_c] = mus + rng.normal(0.0, 1.0, (len(rows_c), len(mu)))
        for j, (_, levels) in enumerate(_CATEGORICAL):
            k = rng.random(len(rows_c))
            own = np.searchsorted(np.cumsum(cat_p[j]), k).clip(0, len(levels) - 1)
            nrm = np.searchsorted(np.cumsum(prof["normal"][1][j]), k) \
                .clip(0, len(levels) - 1)
            cats[rows_c, j] = np.asarray(levels, dtype=object)[
                np.where(hide, nrm, own)]
    num = _numeric_cells(latent)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        for i in range(n):
            w.writerow([num[0][i], cats[i, 0], cats[i, 1], cats[i, 2]]
                       + [c[i] for c in num[1:]] + [labels[i]])
    return counts


def schema_dict():
    cols = [{"name": _NUMERIC[0][0], "kind": "numeric"}]
    cols += [{"name": name, "kind": "categorical"} for name, _ in _CATEGORICAL]
    cols += [{"name": name, "kind": "numeric"} for name, _ in _NUMERIC[1:]]
    cols.append({"name": "label", "kind": "label"})
    return {"columns": cols, "classes": CLASSES, "normal_class": "normal",
            "label_map": {}, "has_header": False, "class_caps": {}}


def write_schema(path):
    Path(path).write_text(json.dumps(schema_dict(), indent=1))
