"""Binary parameter checkpoints.

Layout of the format, version 2 (all integers little-endian):

    magic          8 bytes   "MEMALNCK"
    version        uint32    2
    section count  uint32
    section table  per entry: name length uint32, name bytes (UTF-8),
                   offset uint64, length uint64
    sections       per entry: rank uint64, dims uint64 * rank,
                   row-major float32 payload
    checksum       8 bytes   BLAKE2b digest (digest size 8) of all prior bytes

``save_checkpoint`` writes this layout and ``load_checkpoint`` reads it and
refuses any other version.
"""
from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"MEMALNCK"
VERSION = 2


class CheckpointError(ValueError):
    pass


def _checksum(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=8).digest()


def _unpack(fmt: str, buffer, pos: int, what: str) -> tuple:
    """``struct.unpack_from``, raising :class:`CheckpointError` when the
    fields run past the end of ``buffer``."""
    try:
        return struct.unpack_from(fmt, buffer, pos)
    except struct.error as exc:
        raise CheckpointError(f"truncated {what}") from exc


def save_checkpoint(sections: dict[str, np.ndarray], path: str | Path) -> None:
    """Write named tensors, stored as float32, creating the file's
    directory.  A finite value that float32 cannot hold is refused before
    anything is written."""
    names = list(sections)
    if len(set(names)) != len(names):
        raise CheckpointError("duplicate section names")
    blobs: list[bytes] = []
    for name in names:
        # note: asarray keeps 0-d shapes; ascontiguousarray would promote to 1-d
        try:
            with np.errstate(over="raise"):
                arr = np.asarray(sections[name], dtype="<f4", order="C")
        except FloatingPointError:
            raise CheckpointError(f"section {name!r} holds a value beyond float32") from None
        header = struct.pack("<Q", arr.ndim) + struct.pack(
            f"<{arr.ndim}Q", *arr.shape
        )
        blobs.append(header + arr.tobytes())

    encoded_names = [name.encode("utf-8") for name in names]
    table_size = sum(4 + len(n) + 16 for n in encoded_names)
    offset = len(MAGIC) + 4 + 4 + table_size

    table = bytearray()
    for encoded, blob in zip(encoded_names, blobs):
        table += struct.pack("<I", len(encoded)) + encoded
        table += struct.pack("<QQ", offset, len(blob))
        offset += len(blob)

    body = MAGIC + struct.pack("<II", VERSION, len(names)) + bytes(table) + b"".join(blobs)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_bytes(body + _checksum(body))


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read named tensors back; validates magic, version, and checksum."""
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 8 + 8:
        raise CheckpointError("truncated checkpoint file")
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"bad magic {data[:len(MAGIC)]!r}")
    # Slices of the memoryview share the file's buffer: payloads copy once.
    body, stored = memoryview(data)[:-8], data[-8:]
    pos = len(MAGIC)
    version, count = struct.unpack_from("<II", body, pos)
    pos += 8
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if stored != _checksum(body):
        raise CheckpointError("checksum mismatch")

    entries: list[tuple[str, int, int]] = []
    for _ in range(count):
        (name_len,) = _unpack("<I", body, pos, "section table")
        pos += 4
        try:
            name = str(body[pos : pos + name_len], "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError("section name is not UTF-8") from exc
        pos += name_len
        offset, length = _unpack("<QQ", body, pos, "section table")
        pos += 16
        entries.append((name, offset, length))

    sections: dict[str, np.ndarray] = {}
    for name, offset, length in entries:
        if name in sections:
            raise CheckpointError(f"duplicate section {name!r}")
        if offset + length > len(body):
            raise CheckpointError(f"truncated section {name!r}")
        blob = body[offset : offset + length]
        (rank,) = _unpack("<Q", blob, 0, f"section {name!r}")
        dims = _unpack(f"<{rank}Q", blob, 8, f"section {name!r} shape")
        payload = blob[8 + 8 * rank :]
        expected = math.prod(dims) * 4
        if len(payload) != expected:
            raise CheckpointError(
                f"section {name!r} payload length {len(payload)} does not "
                f"match declared shape {dims}"
            )
        sections[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    return sections
