"""File registry behavior: bounds, permissions, reset."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from geowsn.alp import (
    FileHeader,
    FileStore,
    NoSuchFileError,
    OutOfBoundsError,
    PermissionDeniedError,
)

CONFIG_FILE = 0x41
DATA_FILE = 0x40


def store_with_config(content: bytes | None = None) -> FileStore:
    store = FileStore()
    store.create(FileHeader(CONFIG_FILE, 12, persistent=True), content)
    return store


def test_fresh_file_reads_zero():
    store = store_with_config()
    assert store.read(CONFIG_FILE, 3, 1) == b"\x00"
    assert store.read(CONFIG_FILE, 0, 12) == bytes(12)


def test_read_past_end_is_out_of_bounds():
    store = store_with_config()
    with pytest.raises(OutOfBoundsError):
        store.read(CONFIG_FILE, 0, 13)


def test_write_straddling_end_is_out_of_bounds():
    store = store_with_config()
    with pytest.raises(OutOfBoundsError):
        store.write(CONFIG_FILE, 11, b"\x01\x02")
    # a failed write leaves the file untouched
    assert store.raw(CONFIG_FILE) == bytes(12)


@pytest.mark.parametrize("offset, length", [(-1, 1), (0, -1), (-12, 12), (3, -2)])
def test_read_of_a_negative_range_is_out_of_bounds(offset, length):
    # Python slicing would count a negative offset from the end
    store = store_with_config(bytes(range(12)))
    with pytest.raises(OutOfBoundsError):
        store.read(CONFIG_FILE, offset, length)


@pytest.mark.parametrize("offset, payload", [(-1, b"\x01"), (-12, bytes(12)),
                                             (-3, b"\x01\x02")])
def test_write_at_a_negative_offset_is_out_of_bounds(offset, payload):
    # a write's length is its payload's, so only the offset can be negative;
    # sliced, it would overwrite (or insert) bytes counted from the end
    base = bytes(range(12))
    store = store_with_config(base)
    with pytest.raises(OutOfBoundsError):
        store.write(CONFIG_FILE, offset, payload)
    assert store.raw(CONFIG_FILE) == base


def test_single_byte_write_leaves_rest_unchanged():
    base = bytes(range(12))
    store = store_with_config(base)
    store.write(CONFIG_FILE, 3, b"\xAA")
    after = store.raw(CONFIG_FILE)
    assert after[3] == 0xAA
    assert after[:3] == base[:3]
    assert after[4:] == base[4:]


def test_full_file_write_replaces_everything():
    store = store_with_config(bytes(range(12)))
    image = bytes(reversed(range(12)))
    store.write(CONFIG_FILE, 0, image)
    assert store.raw(CONFIG_FILE) == image


def test_unknown_file_raises():
    store = FileStore()
    with pytest.raises(NoSuchFileError):
        store.read(0x7E, 0, 1)
    with pytest.raises(NoSuchFileError):
        store.write(0x7E, 0, b"\x00")


def test_duplicate_create_rejected():
    store = store_with_config()
    with pytest.raises(ValueError):
        store.create(FileHeader(CONFIG_FILE, 12))


def test_permission_bits_enforced():
    store = FileStore()
    store.create(FileHeader(0x10, 4, readable=False))
    store.create(FileHeader(0x11, 4, writable=False))
    with pytest.raises(PermissionDeniedError):
        store.read(0x10, 0, 1)
    with pytest.raises(PermissionDeniedError):
        store.write(0x11, 0, b"\x00")
    # the opposite operation still works
    store.write(0x10, 0, b"\x01")
    assert store.read(0x11, 0, 4) == bytes(4)


def test_reset_zeroes_volatile_keeps_persistent():
    store = FileStore()
    store.create(FileHeader(DATA_FILE, 8, persistent=False))
    store.create(FileHeader(CONFIG_FILE, 12, persistent=True))
    store.write(DATA_FILE, 0, b"\x11" * 8)
    store.write(CONFIG_FILE, 0, b"\x22" * 12)
    store.reset()
    assert store.raw(DATA_FILE) == bytes(8)
    assert store.raw(CONFIG_FILE) == b"\x22" * 12


def test_file_header_validation():
    with pytest.raises(ValueError):
        FileHeader(0x100, 4)
    with pytest.raises(ValueError):
        FileHeader(0x10, 0)


@given(
    base=st.binary(min_size=12, max_size=12),
    offset=st.integers(0, 11),
    payload=st.binary(min_size=1, max_size=12),
)
def test_write_locality(base, offset, payload):
    """A write changes exactly the addressed range, nothing else."""
    store = store_with_config(base)
    if offset + len(payload) > 12:
        with pytest.raises(OutOfBoundsError):
            store.write(CONFIG_FILE, offset, payload)
        assert store.raw(CONFIG_FILE) == base
        return
    store.write(CONFIG_FILE, offset, payload)
    after = store.raw(CONFIG_FILE)
    assert after[offset:offset + len(payload)] == payload
    assert after[:offset] == base[:offset]
    assert after[offset + len(payload):] == base[offset + len(payload):]
