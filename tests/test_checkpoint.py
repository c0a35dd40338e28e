"""Binary checkpoint format: round trips and corruption detection."""
import hashlib
import re
import struct

import numpy as np
import pytest

from memalign.checkpoint import (
    CheckpointError,
    MAGIC,
    VERSION,
    load_checkpoint,
    save_checkpoint,
)


def random_sections(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "module/weight": rng.standard_normal((4, 3)).astype(np.float32),
        "module/bias": rng.standard_normal(4).astype(np.float32),
        "scalar": np.float32(3.25).reshape(()),
        "empty": np.zeros((0, 5), dtype=np.float32),
    }


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "m.ckpt"
    sections = random_sections()
    save_checkpoint(sections, path)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(sections)
    for name, arr in sections.items():
        assert loaded[name].dtype == np.dtype("<f4")
        assert loaded[name].shape == np.asarray(arr).shape
        np.testing.assert_array_equal(loaded[name], arr)


def test_save_is_deterministic(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(random_sections(), a)
    save_checkpoint(random_sections(), b)
    assert a.read_bytes() == b.read_bytes()


def test_float64_inputs_stored_as_float32(tmp_path):
    path = tmp_path / "m.ckpt"
    arr = np.array([1.0, 1.0 + 1e-12])
    save_checkpoint({"x": arr}, path)
    loaded = load_checkpoint(path)["x"]
    np.testing.assert_array_equal(loaded, arr.astype(np.float32))


def test_a_finite_value_beyond_float32_is_refused_before_any_write(tmp_path):
    """Stored as float32, 1e39 would load as inf; non-finite inputs are
    stored as given, and the file's directory is created."""
    sections = {"w": np.array([1.0, 1e39])}
    path = tmp_path / "run" / "m.ckpt"
    with pytest.raises(CheckpointError, match="section 'w' holds a value beyond float32"):
        save_checkpoint(sections, path)
    assert not path.parent.exists()
    save_checkpoint({"w": np.array([np.nan, -np.inf, 3e38])}, path)
    np.testing.assert_array_equal(
        load_checkpoint(path)["w"], np.array([np.nan, -np.inf, 3e38], dtype=np.float32)
    )


def test_every_single_byte_corruption_detected(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint({"w": np.arange(4, dtype=np.float32)}, path)
    data = bytearray(path.read_bytes())
    # flip one bit in a sample of byte positions spanning the whole file
    for pos in range(0, len(data), max(1, len(data) // 40)):
        corrupted = bytearray(data)
        corrupted[pos] ^= 0x01
        path.write_bytes(bytes(corrupted))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
    path.write_bytes(bytes(data))
    load_checkpoint(path)  # pristine file still loads


def test_bad_magic(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint({"w": np.zeros(2, dtype=np.float32)}, path)
    data = bytearray(path.read_bytes())
    data[:8] = b"MEMALNCX"
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="magic|checksum"):
        load_checkpoint(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint({"w": np.zeros(8, dtype=np.float32)}, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_bytes(data[:4])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def sealed(body: bytes) -> bytes:
    """A file of ``body`` with a valid version-2 checksum."""
    return body + hashlib.blake2b(body, digest_size=8).digest()


def malformed_checkpoints() -> dict[str, tuple[bytes, str]]:
    """Files with valid checksums whose section table or section blobs run
    short, declare an impossible shape or name one section twice, each with
    the error it is refused with."""
    header = MAGIC + struct.pack("<II", VERSION, 1)

    def named_w(*blobs: bytes) -> bytes:
        """A file of one section named ``w`` per blob."""
        head = MAGIC + struct.pack("<II", VERSION, len(blobs))
        offset = len(head) + len(blobs) * (4 + 1 + 16)
        table = b""
        for blob in blobs:
            table += struct.pack("<I", 1) + b"w" + struct.pack("<QQ", offset, len(blob))
            offset += len(blob)
        return head + table + b"".join(blobs)

    def scalar(value: float) -> bytes:
        return struct.pack("<Q", 0) + struct.pack("<f", value)

    return {
        "name past the end": (
            header + struct.pack("<I", 100) + b"w",
            "truncated section table",
        ),
        "short offset and length": (
            header + struct.pack("<I", 1) + b"w" + struct.pack("<Q", 0),
            "truncated section table",
        ),
        "blob under 8 bytes": (named_w(b"\0" * 4), "truncated section 'w'"),
        "rank past the blob": (
            named_w(struct.pack("<QQ", 3, 2)),
            "truncated section 'w' shape",
        ),
        "huge rank": (named_w(struct.pack("<Q", 2**62)), "truncated section 'w' shape"),
        "name not UTF-8": (
            header + struct.pack("<I", 1) + b"\xff" + struct.pack("<QQ", 0, 0),
            "section name is not UTF-8",
        ),
        "section named twice": (named_w(scalar(1.0), scalar(2.0)), "duplicate section 'w'"),
        # 2^32 * 2^32 elements wrap to 0 in int64 arithmetic.
        "shape past int64": (
            named_w(struct.pack("<3Q", 2, 2**32, 2**32)),
            "section 'w' payload length 0 does not match declared shape "
            "(4294967296, 4294967296)",
        ),
    }


@pytest.mark.parametrize("case", sorted(malformed_checkpoints()))
def test_malformed_tables_and_blobs_are_checkpoint_errors(tmp_path, case):
    data, message = malformed_checkpoints()[case]
    path = tmp_path / "m.ckpt"
    path.write_bytes(sealed(data))
    with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)


def test_magic_constant():
    assert MAGIC == b"MEMALNCK"


def layout_bytes(sections: dict[str, np.ndarray]) -> bytes:
    """A file laid out by hand as the module docstring describes it:
    version 2, float32 payloads and a BLAKE2b trailer."""
    blobs = []
    for arr in sections.values():
        arr = np.asarray(arr, dtype="<f4")
        blobs.append(
            struct.pack("<Q", arr.ndim) + struct.pack(f"<{arr.ndim}Q", *arr.shape)
            + arr.tobytes()
        )
    names = [name.encode("utf-8") for name in sections]
    offset = len(MAGIC) + 8 + sum(4 + len(n) + 16 for n in names)
    table = b""
    for name, blob in zip(names, blobs):
        table += struct.pack("<I", len(name)) + name + struct.pack("<QQ", offset, len(blob))
        offset += len(blob)
    return sealed(MAGIC + struct.pack("<II", 2, len(names)) + table + b"".join(blobs))


def test_writes_version_2_with_blake2b_trailer(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(random_sections(), path)
    data = path.read_bytes()
    assert VERSION == 2
    assert struct.unpack_from("<I", data, len(MAGIC))[0] == 2
    assert data[-8:] == hashlib.blake2b(data[:-8], digest_size=8).digest()
    assert data == layout_bytes(random_sections())


@pytest.mark.parametrize("version", [1, 3])
def test_unknown_version_rejected(tmp_path, version):
    path = tmp_path / "m.ckpt"
    save_checkpoint({"w": np.zeros(2, dtype=np.float32)}, path)
    data = bytearray(path.read_bytes())
    data[len(MAGIC) : len(MAGIC) + 4] = struct.pack("<I", version)
    path.write_bytes(sealed(bytes(data[:-8])))
    with pytest.raises(CheckpointError, match=f"unsupported checkpoint version {version}"):
        load_checkpoint(path)


def test_loaded_arrays_own_their_memory(tmp_path):
    """Each payload is copied out of the file's buffer: no returned array is
    a view that keeps the whole file alive."""
    by_hand, saved = tmp_path / "by_hand.ckpt", tmp_path / "saved.ckpt"
    by_hand.write_bytes(layout_bytes(random_sections(1)))
    save_checkpoint(random_sections(), saved)
    for path in (by_hand, saved):
        for name, arr in load_checkpoint(path).items():
            assert arr.flags.owndata and arr.base is None, (path.name, name)
            assert arr.flags.writeable and arr.flags.c_contiguous, (path.name, name)
