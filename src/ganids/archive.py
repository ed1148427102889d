"""Versioned on-disk containers for trained models (format 11).

Layout: magic, format version, the SHA-256 of everything after it, then a
length-prefixed JSON header and length-prefixed blobs. That digest is the
file's one hash: any truncation or flipped bit fails it, and every length
prefix is bounds-checked, so a damaged file raises ArchiveError. Writing
and reading round-trip bit-exactly.

Every JSON part is a dataclass written as an object of its fields, with
arrays as lists, and read back by `data.decode`: a key the dataclass does not
declare, a missing key, a value of the wrong type and a value the
dataclass's own checks reject each raise ArchiveError naming the file and
the key path ("ens.bin: body: trees: [0]: [1]: left: feature: ..."); a
header's `kind` first, so that a file of the other kind says so.

An archive stores values, not structure, and no training setting: those
are the run's config, in its manifest. A GAN header (GanHeader) holds
`feature_dim` (a run names a fine-tuned GAN's class in its file name,
`gan_<class>.bin`); the networks' layers come from
`gan.network_specs(feature_dim)`, and each network's blob is its
`nn.ParamSet.flat` vector as raw float64: its arrays in sorted-name order,
with the shapes `nn.param_shapes` gives, read back with one `frombuffer`.
Since format 11 a conv kernel is stored as (out, k, in) and an fc layer
after a conv reads its rows in (length, channel) order, the `nn` layout. A
GAN trains in `gan.DTYPE` (float32): its blob holds the exact float64
upcasts, which `load_gan` casts back, so a model round-trips bit for bit. A
blob whose length does not fit those shapes raises ArchiveError. An
ensemble's header (EnsembleHeader) holds only its kind, and its blob is its
`gbdt.Ensemble`, with the encoding plan, so the file alone scores a CSV.
The ensemble checks its column layout against that plan itself, so a body
that breaks it loads as an ArchiveError naming `body:`.
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
FORMAT_VERSION = 11
_PREFIX = len(MAGIC) + 2 + 32  # magic, version, body digest


class ArchiveError(InputError, ValueError):
    """A model archive is truncated or malformed."""


@dataclass
class GanHeader:
    """A GAN archive's header: its networks are those gan.network_specs
    builds for feature_dim."""

    KIND = "gan"  # what `kind` holds; not a field
    kind: str
    feature_dim: int

    def __post_init__(self):
        gan_mod.network_specs(self.feature_dim)


@dataclass
class EnsembleHeader:
    """An ensemble archive's header."""

    KIND = "ensemble"
    kind: str


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
    and the key path when it holds none. A header's `kind` key is checked
    first, against its type's KIND."""
    try:
        value = json.loads(blob.decode())
        want = getattr(kind, "KIND", None)
        if want and isinstance(value, dict) \
                and value.get("kind", want) != want:
            a = "an" if want[0] in "aeiou" else "a"
            raise FieldTypeError(key, f"kind: {value['kind']!r}, where {a} "
                                      f"{want} archive was expected")
        return decode(kind, value, key)
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
    if len(raw) < len(MAGIC) + 2:
        raise ArchiveError(f"{path}: truncated in its format version")
    version = int.from_bytes(raw[len(MAGIC):len(MAGIC) + 2], "little")
    if version != FORMAT_VERSION:
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


def _param_set(path, spec, blob):
    """The read-only float64 parameters of `spec` that `blob` holds."""
    shapes = nn.param_shapes(spec)
    size = sum(map(math.prod, shapes.values()))
    if len(blob) != 8 * size:
        raise ArchiveError(f"{path}: a parameter blob of {len(blob)} bytes "
                           f"where the header's network needs {8 * size}")
    return nn.ParamSet.of(shapes, np.frombuffer(blob, dtype=np.float64))


def save_gan(path, model: gan_mod.GanModel):
    """Raises ValueError for a model whose networks are not the pair
    `gan.network_specs` builds for its feature_dim."""
    specs = gan_mod.network_specs(model.feature_dim)
    if (model.g_spec, model.d_spec) != specs:
        raise ValueError(f"{path}: only the networks gan.network_specs "
                         "builds can be archived")
    header = GanHeader("gan", model.feature_dim)
    _write(path, header, [p.flat.astype(np.float64).tobytes()
                          for p in (model.g_params, model.d_params)])


def load_gan(path) -> gan_mod.GanModel:
    header, blobs = _read(path, GanHeader)
    if len(blobs) != 2:
        raise ArchiveError(f"{path}: expected a gan archive")
    g_spec, d_spec = gan_mod.network_specs(header.feature_dim)
    g_params = _param_set(path, g_spec, blobs[0]).astype(gan_mod.DTYPE)
    d_params = _param_set(path, d_spec, blobs[1]).astype(gan_mod.DTYPE)
    return gan_mod.GanModel(g_spec, g_params, d_spec, d_params)


def save_ensemble(path, ensemble: gbdt.Ensemble):
    """Raises ValueError for an ensemble that carries no encoding plan."""
    if ensemble.plan is None:
        raise ValueError(f"{path}: only an ensemble that carries its "
                         "encoding plan can be archived")
    _write(path, EnsembleHeader("ensemble"), [_dumps(ensemble)])


def load_ensemble(path) -> gbdt.Ensemble:
    _, blobs = _read(path, EnsembleHeader)
    if len(blobs) != 1:
        raise ArchiveError(f"{path}: expected an ensemble archive")
    ensemble = _decode(path, gbdt.Ensemble, blobs[0], "body")
    if ensemble.plan is None:
        raise ArchiveError(f"{path}: the ensemble carries no encoding plan")
    return ensemble
