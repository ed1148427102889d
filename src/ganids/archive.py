"""Versioned on-disk containers for trained models (format 6).

Layout: magic, format version, the SHA-256 of everything after it, then a
length-prefixed JSON header and length-prefixed blobs. Any truncation or
flipped bit fails the digest, and every length prefix is bounds-checked, so
a damaged file raises ArchiveError. Writing and reading round-trip
bit-exactly.

Every JSON part is a dataclass written as an object of its fields, with
arrays as lists, and read back by `data.decode`: a key the dataclass does not
declare, a missing key, a value of the wrong type and a value the
dataclass's own checks reject each raise ArchiveError naming the file and
the key path ("ens.bin: body: trees: [0]: [1]: left: feature: ...").

An archive stores values, not structure. A GAN header (GanHeader) holds the
phase, `feature_dim`, the config and a content hash per network; the
networks' layers come from `gan.network_specs(feature_dim)`, and each
network's blob is its parameters as one run of raw float64, in sorted-name
order, with the shapes `nn.param_shapes` gives. A GAN trains in
`gan.DTYPE` (float32): its blob holds the exact float64 upcasts, whose hash
is checked before `load_gan` casts them back, so a model round-trips bit
for bit. A blob whose length does not fit those shapes, or whose values
fail the stored hash, raises ArchiveError. An ensemble's blob is its
`gbdt.Ensemble`, checked against the hash in its header (EnsembleHeader);
it holds the encoding plan, so the file alone is enough to score a CSV. Its
fitted columns must be its feature names, one each, and each a column of
that plan, or saving raises ValueError and loading ArchiveError.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from . import gan as gan_mod
from . import gbdt, nn
from .data import FieldTypeError, decode
from .errors import InputError

MAGIC = b"GANIDS\x00"
FORMAT_VERSION = 6
_PREFIX = len(MAGIC) + 2 + 32  # magic, version, body digest


class ArchiveError(InputError, ValueError):
    """A model archive is truncated or malformed."""


def _check_kind(kind, expected):
    if kind != expected:
        raise ValueError(f"kind: {kind!r}, where a {expected} archive was "
                         "expected")


@dataclass
class GanHeader:
    """A GAN archive's header: its networks are those gan.network_specs
    builds for feature_dim, in a phase a model goes through."""

    kind: str  # "gan"
    phase: str
    feature_dim: int
    cfg: gan_mod.GanConfig
    g_hash: str
    d_hash: str

    def __post_init__(self):
        _check_kind(self.kind, "gan")
        gan_mod.network_specs(self.feature_dim)
        try:
            gan_mod.tuned_class(self.phase)
        except gan_mod.WrongPhase as e:
            raise ValueError(f"phase: {e}") from e


@dataclass
class EnsembleHeader:
    """An ensemble archive's header: the SHA-256 of its body."""

    kind: str  # "ensemble"
    hash: str

    def __post_init__(self):
        _check_kind(self.kind, "ensemble")


def _plain(value):
    """What json cannot write by itself: a dataclass as a dict of its
    fields, read one by one (a cached_property lives in __dict__ too), and
    an array as a list."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return {f.name: getattr(value, f.name) for f in fields(value)}


def _dumps(value) -> bytes:
    """The JSON of a value, as `asdict` would give it, with its arrays as
    lists; no part of the value is copied."""
    return json.dumps(value, sort_keys=True, default=_plain).encode()


def _decode(path, kind, blob, key):
    """The `kind` that the JSON blob holds; ArchiveError naming the file
    and the key path when it holds none."""
    try:
        return decode(kind, json.loads(blob.decode()), key)
    except FieldTypeError as e:
        raise ArchiveError(f"{path}: {e}") from e
    except RecursionError as e:
        raise ArchiveError(f"{path}: {key} nests too deeply to read") from e
    except ValueError as e:  # not UTF-8, or not JSON
        raise ArchiveError(f"{path}: unreadable {key}: {e}") from e


def _write(path, header, blobs: list):
    body = bytearray()
    for chunk in [_dumps(header)] + blobs:
        body += len(chunk).to_bytes(8, "little")
        body += chunk
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(FORMAT_VERSION.to_bytes(2, "little"))
        f.write(hashlib.sha256(body).digest())
        f.write(body)


def read_length(buf, off, what):
    """The 8-byte little-endian length prefix at off, checked to fit in buf
    after the prefix."""
    if len(buf) - off < 8:
        raise ArchiveError(f"{what}: truncated length prefix at byte {off}")
    n = int.from_bytes(buf[off:off + 8], "little")
    if n > len(buf) - off - 8:
        raise ArchiveError(f"{what}: length {n} at byte {off} runs past the "
                           f"end ({len(buf) - off - 8} bytes left)")
    return n


def _read(path, kind):
    """The header, as a `kind`, and the blobs of the archive at path."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:len(MAGIC)] != MAGIC:
        raise ArchiveError(f"{path}: not a model archive")
    version = int.from_bytes(raw[len(MAGIC):len(MAGIC) + 2], "little")
    if len(raw) < len(MAGIC) + 2 or version != FORMAT_VERSION:
        raise ArchiveError(f"{path}: unsupported format version {version}")
    body = raw[_PREFIX:]
    if len(raw) < _PREFIX \
            or hashlib.sha256(body).digest() != raw[len(MAGIC) + 2:_PREFIX]:
        raise ArchiveError(f"{path}: truncated or corrupted (digest mismatch)")
    chunks = []
    off = 0
    while off < len(body):
        n = read_length(body, off, path)
        chunks.append(body[off + 8:off + 8 + n])
        off += 8 + n
    if not chunks:
        raise ArchiveError(f"{path}: missing header")
    return _decode(path, kind, chunks[0], "header"), chunks[1:]


def file_hash(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def _param_blob(params: nn.ParamSet):
    return b"".join(np.ascontiguousarray(params.tensors[n], dtype=np.float64)
                    .tobytes() for n in sorted(params.tensors))


def _param_set(path, spec, blob):
    shapes = nn.param_shapes(spec)
    names = sorted(shapes)
    sizes = [math.prod(shapes[n]) for n in names]
    if len(blob) != 8 * sum(sizes):
        raise ArchiveError(f"{path}: a parameter blob of {len(blob)} bytes "
                           f"where the header's network needs {8 * sum(sizes)}")
    flat = np.frombuffer(blob, dtype=np.float64).copy()
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return nn.ParamSet({n: a.reshape(shapes[n]) for n, a in zip(names, parts)})


def save_gan(path, model: gan_mod.GanModel):
    """Raises ValueError for a model whose networks are not the pair
    `gan.network_specs` builds for its feature_dim."""
    specs = gan_mod.network_specs(model.feature_dim)
    if (model.g_spec, model.d_spec) != specs:
        raise ValueError(f"{path}: only the networks gan.network_specs "
                         "builds can be archived")
    header = GanHeader("gan", model.phase, model.feature_dim, model.cfg,
                       model.g_params.content_hash(),
                       model.d_params.content_hash())
    _write(path, header, [_param_blob(model.g_params),
                                  _param_blob(model.d_params)])


def load_gan(path) -> gan_mod.GanModel:
    header, blobs = _read(path, GanHeader)
    if len(blobs) != 2:
        raise ArchiveError(f"{path}: expected a gan archive")
    g_spec, d_spec = gan_mod.network_specs(header.feature_dim)
    g_params = _param_set(path, g_spec, blobs[0])
    d_params = _param_set(path, d_spec, blobs[1])
    if g_params.content_hash() != header.g_hash \
            or d_params.content_hash() != header.d_hash:
        raise ArchiveError(f"{path}: content hash mismatch")
    return gan_mod.GanModel(g_spec, g_params.astype(gan_mod.DTYPE), d_spec,
                            d_params.astype(gan_mod.DTYPE), header.feature_dim,
                            header.cfg, phase=header.phase)


def _layout_mismatch(ensemble: gbdt.Ensemble):
    """Why an ensemble's fitted columns disagree with its feature names or
    its plan's encoded columns; None when they agree."""
    names = ensemble.feature_names
    n_fitted = len(ensemble.mapper.boundaries)
    if n_fitted != len(names):
        return f"{n_fitted} fitted columns but {len(names)} feature names"
    encoded = set(ensemble.plan.encoded_names())
    unknown = [n for n in names if n not in encoded]
    if unknown:
        return (f"feature names {unknown} are not columns of the "
                "encoding plan")
    return None


def save_ensemble(path, ensemble: gbdt.Ensemble):
    """Raises ValueError for an ensemble that carries no encoding plan, or
    whose fitted columns are not its feature names, each a column of that
    plan."""
    if ensemble.plan is None:
        raise ValueError(f"{path}: only an ensemble that carries its "
                         "encoding plan can be archived")
    mismatch = _layout_mismatch(ensemble)
    if mismatch:
        raise ValueError(f"{path}: {mismatch}")
    blob = _dumps(ensemble)
    header = EnsembleHeader("ensemble", hashlib.sha256(blob).hexdigest())
    _write(path, header, [blob])


def load_ensemble(path) -> gbdt.Ensemble:
    header, blobs = _read(path, EnsembleHeader)
    if len(blobs) != 1:
        raise ArchiveError(f"{path}: expected an ensemble archive")
    if hashlib.sha256(blobs[0]).hexdigest() != header.hash:
        raise ArchiveError(f"{path}: content hash mismatch")
    ensemble = _decode(path, gbdt.Ensemble, blobs[0], "body")
    if ensemble.plan is None:
        raise ArchiveError(f"{path}: the ensemble carries no encoding plan")
    mismatch = _layout_mismatch(ensemble)
    if mismatch:
        raise ArchiveError(f"{path}: {mismatch}")
    return ensemble
