"""Versioned on-disk containers for trained models.

Layout: magic, format version, the SHA-256 of everything after it, then a
length-prefixed JSON header and length-prefixed raw float64 parameter blobs.
Writing and reading round-trip bit-exactly. Any truncation or flipped bit
fails the digest, and every length prefix is bounds-checked, so a damaged
file raises ArchiveError. The parameter content hash is also stored in the
header and re-verified on load.
"""

from __future__ import annotations

import hashlib
import json

from . import gan as gan_mod
from . import gbdt, nn
from .nn import ArchiveError  # defined with the parameter-blob format

MAGIC = b"GANIDS\x00"
FORMAT_VERSION = 2
_PREFIX = len(MAGIC) + 2 + 32  # magic, version, body digest


def _write(path, header: dict, blobs: list):
    body = bytearray()
    for chunk in [json.dumps(header, sort_keys=True).encode()] + blobs:
        body += len(chunk).to_bytes(8, "little")
        body += chunk
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(FORMAT_VERSION.to_bytes(2, "little"))
        f.write(hashlib.sha256(body).digest())
        f.write(body)


def _read(path):
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
        n = nn.read_length(body, off, path)
        chunks.append(body[off + 8:off + 8 + n])
        off += 8 + n
    if not chunks:
        raise ArchiveError(f"{path}: missing header")
    try:
        header = json.loads(chunks[0].decode())
    except ValueError as e:
        raise ArchiveError(f"{path}: unreadable header: {e}") from e
    if not isinstance(header, dict):
        raise ArchiveError(f"{path}: header is not an object")
    return header, chunks[1:]


def file_hash(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def save_gan(path, model: gan_mod.GanModel):
    header = {
        "kind": "gan",
        "phase": model.phase,
        "feature_dim": model.feature_dim,
        "g_spec": model.g_spec.to_dict(),
        "d_spec": model.d_spec.to_dict(),
        "cfg": model.cfg.to_dict(),
        "g_hash": model.g_params.content_hash(),
        "d_hash": model.d_params.content_hash(),
    }
    _write(path, header, [model.g_params.to_bytes(), model.d_params.to_bytes()])


def load_gan(path) -> gan_mod.GanModel:
    header, blobs = _read(path)
    if header.get("kind") != "gan" or len(blobs) != 2:
        raise ArchiveError(f"{path}: expected a gan archive")
    g_params = nn.ParamSet.from_bytes(blobs[0])
    d_params = nn.ParamSet.from_bytes(blobs[1])
    if g_params.content_hash() != header.get("g_hash") \
            or d_params.content_hash() != header.get("d_hash"):
        raise ArchiveError(f"{path}: content hash mismatch")
    try:
        return gan_mod.GanModel(
            nn.NetworkSpec.from_dict(header["g_spec"]), g_params,
            nn.NetworkSpec.from_dict(header["d_spec"]), d_params,
            header["feature_dim"], gan_mod.GanConfig.from_dict(header["cfg"]),
            phase=header["phase"])
    except (KeyError, TypeError, ValueError) as e:
        raise ArchiveError(f"{path}: header does not describe a GAN "
                           f"({type(e).__name__}: {e})") from e


def save_ensemble(path, ensemble: gbdt.Ensemble):
    blob = json.dumps(ensemble.to_dict(), sort_keys=True).encode()
    header = {"kind": "ensemble",
              "hash": hashlib.sha256(blob).hexdigest()}
    _write(path, header, [blob])


def load_ensemble(path) -> gbdt.Ensemble:
    header, blobs = _read(path)
    if header.get("kind") != "ensemble" or len(blobs) != 1:
        raise ArchiveError(f"{path}: expected an ensemble archive")
    if hashlib.sha256(blobs[0]).hexdigest() != header.get("hash"):
        raise ArchiveError(f"{path}: content hash mismatch")
    try:
        body = json.loads(blobs[0].decode())
    except ValueError as e:
        raise ArchiveError(f"{path}: unreadable ensemble body: {e}") from e
    try:
        return gbdt.Ensemble.from_dict(body)
    except (KeyError, TypeError, ValueError) as e:
        raise ArchiveError(f"{path}: body does not describe an ensemble "
                           f"({type(e).__name__}: {e})") from e
