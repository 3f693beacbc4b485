"""File plumbing: the one checkpoint container and atomic writes.

Demo buffers, action codecs, discriminators and policies are all saved in
one container, laid out after safetensors
(https://github.com/huggingface/safetensors):

    magic      8 bytes, b"LAPALCK\\x00"
    version    u32 little-endian
    n          u64 little-endian, length of the header
    header     n bytes of UTF-8 JSON written with sorted keys: `kind`,
               `env_id`, `env_digest`, the kind's own fields, and `arrays`,
               which maps each array name to its dtype ("f8" or "u8") and
               shape, in the order the array data follows
    data       each array's little-endian bytes, back to back
    checksum   sha256 of every byte before it, 32 bytes

`read_checkpoint` reads the whole file and checks the checksum first, so a
truncated, bit-flipped or extended file fails before any field is parsed.
It then parses with exact lengths, rejects leftover bytes, and checks the
env digest against the env registry. Every failure, up to and including the
caller's construction of the object from the header and arrays, raises
`CheckpointError`.

All output files are written atomically (temp file + rename) so reruns and
crashes never leave partial artifacts, and every writer here is
byte-deterministic given identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import CheckpointError

MAGIC = b"LAPALCK\x00"
VERSION = 1
_PREAMBLE = struct.Struct("<IQ")
_DTYPES = {"f8": np.dtype("<f8"), "u8": np.dtype("<u8")}


def atomic_write_bytes(path, chunks) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_checkpoint(path, header: dict, arrays: dict) -> None:
    """Save `arrays` (unsigned integer arrays as u8, all others as f8) under
    `header`, which holds `kind`, `env_id`, `env_digest` and JSON fields."""
    index, data = {}, []
    for name in sorted(arrays):
        code = "u8" if np.asarray(arrays[name]).dtype.kind == "u" else "f8"
        arr = np.ascontiguousarray(arrays[name], dtype=_DTYPES[code])
        index[name] = {"dtype": code, "shape": list(arr.shape)}
        data.append(arr.tobytes())
    text = json.dumps({**header, "arrays": index}, sort_keys=True,
                      separators=(",", ":")).encode()
    chunks = [MAGIC, _PREAMBLE.pack(VERSION, len(text)), text] + data
    checksum = hashlib.sha256()
    for chunk in chunks:
        checksum.update(chunk)
    atomic_write_bytes(path, chunks + [checksum.digest()])


def read_checkpoint(path, kind: str, build):
    """`build(header, arrays)` on the checkpoint at `path`, which must be of
    `kind` and match the registered definition of its env. The arrays are
    read-only views of the file's bytes; `build` copies what it keeps."""
    with open(path, "rb") as fh:
        raw = fh.read()
    body, checksum = memoryview(raw)[:-32], raw[-32:]
    if len(raw) < 32 or hashlib.sha256(body).digest() != checksum:
        raise CheckpointError(f"{path}: checksum mismatch; truncated or corrupt file")
    try:
        if body[: len(MAGIC)] != MAGIC:
            raise CheckpointError(f"{path}: not a lapal checkpoint")
        version, n = _PREAMBLE.unpack_from(body, len(MAGIC))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        offset = len(MAGIC) + _PREAMBLE.size + n
        if offset > len(body):
            raise CheckpointError(f"{path}: header runs past the end of the file")
        header = json.loads(bytes(body[offset - n : offset]))
        if header["kind"] != kind:
            raise CheckpointError(f"{path}: a {header['kind']!r} checkpoint, not {kind!r}")
        from . import envsim

        if envsim.env_spec(header["env_id"]).digest() != header["env_digest"]:
            raise CheckpointError(
                f"{path}: written against a different {header['env_id']} definition")
        arrays = {}
        for name, entry in header.pop("arrays").items():
            dtype, shape = _DTYPES[entry["dtype"]], tuple(entry["shape"])
            count = math.prod(shape)
            if min(shape, default=0) < 0 or offset + count * dtype.itemsize > len(body):
                raise CheckpointError(f"{path}: array {name!r} runs past the end of the file")
            arrays[name] = np.frombuffer(body, dtype, count, offset).reshape(shape)
            offset += count * dtype.itemsize
        if offset != len(body):
            raise CheckpointError(f"{path}: {len(body) - offset} bytes after the last array")
        return build(header, arrays)
    except (KeyError, TypeError, ValueError, AttributeError, struct.error) as exc:
        raise CheckpointError(f"{path}: bad {kind} checkpoint: {exc!r}") from exc
