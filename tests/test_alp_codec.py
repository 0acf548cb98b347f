"""Wire-format tests: frozen byte vectors plus roundtrip properties."""

import re

import pytest
from hypothesis import given
import hypothesis.strategies as st

from geowsn.alp import (
    AlpAction,
    DecodeError,
    Opcode,
    TruncatedInputError,
    UnknownOpcodeError,
    decode_command,
    encode_command,
)

# hand-assembled vectors: u8 opcode, u8 file, u32 LE offset, u32 LE length
READ_CONFIG_WIRE = bytes.fromhex("0141000000000C000000")
WRITE_ACTION_WIRE = bytes.fromhex("044103000000" + "01000000" + "AA")
EMPTY_RETURN_WIRE = bytes.fromhex("2040000000000000" + "0000")


def test_read_action_encodes_to_known_bytes():
    action = AlpAction.read(0x41, 0, 12)
    assert encode_command((action,)) == READ_CONFIG_WIRE
    assert len(READ_CONFIG_WIRE) == 10


def test_write_action_encodes_to_known_bytes():
    action = AlpAction.write(0x41, 3, b"\xAA")
    assert encode_command((action,)) == WRITE_ACTION_WIRE


def test_zero_length_return_is_header_only():
    action = AlpAction.return_data(0x40, 0, b"")
    assert encode_command((action,)) == EMPTY_RETURN_WIRE
    assert len(EMPTY_RETURN_WIRE) == 10


def test_status_carries_exactly_one_payload_byte():
    action = AlpAction.status(0x00, 0x41, 3, 1)
    wire = encode_command((action,))
    assert wire == bytes.fromhex("7F410300000001000000" + "00")


def test_decode_read_example():
    command = decode_command(READ_CONFIG_WIRE)
    assert len(command) == 1
    action = command[0]
    assert action.opcode is Opcode.READ_FILE_DATA
    assert action.file_id == 0x41
    assert action.offset == 0
    assert action.length == 12
    assert action.payload == b""


def test_decode_write_example():
    action = decode_command(WRITE_ACTION_WIRE)[0]
    assert action.opcode is Opcode.WRITE_FILE_DATA
    assert (action.file_id, action.offset, action.length) == (0x41, 3, 1)
    assert action.payload == b"\xAA"


def test_decode_multi_action_command():
    wire = WRITE_ACTION_WIRE + READ_CONFIG_WIRE
    command = decode_command(wire)
    assert [a.opcode for a in command] == [
        Opcode.WRITE_FILE_DATA,
        Opcode.READ_FILE_DATA,
    ]
    assert encode_command(command) == wire


def test_truncated_header_reports_offset():
    with pytest.raises(TruncatedInputError) as info:
        decode_command(bytes.fromhex("044103"))
    assert info.value.offset == 0


def test_truncated_payload_reports_offset():
    # header promises one payload byte that never arrives
    with pytest.raises(TruncatedInputError) as info:
        decode_command(bytes.fromhex("04410300000001000000"))
    assert info.value.offset == 10


def test_unknown_opcode_reports_offset():
    with pytest.raises(UnknownOpcodeError) as info:
        decode_command(bytes.fromhex("99") + bytes(9))
    assert info.value.offset == 0


def test_trailing_garbage_is_an_error():
    with pytest.raises(DecodeError) as info:
        decode_command(READ_CONFIG_WIRE + b"\x00")
    assert info.value.offset == 10


def test_empty_input_is_an_error():
    with pytest.raises(TruncatedInputError):
        decode_command(b"")


def test_second_action_error_reports_absolute_offset():
    with pytest.raises(UnknownOpcodeError) as info:
        decode_command(READ_CONFIG_WIRE + bytes.fromhex("99") + bytes(9))
    assert info.value.offset == 10


def test_read_action_rejects_payload():
    with pytest.raises(ValueError):
        AlpAction(Opcode.READ_FILE_DATA, 0x41, 0, 12, b"\x00")


def test_write_action_rejects_length_mismatch():
    with pytest.raises(ValueError):
        AlpAction(Opcode.WRITE_FILE_DATA, 0x41, 0, 2, b"\x00")


def test_status_action_rejects_wide_payload():
    with pytest.raises(ValueError):
        AlpAction(Opcode.STATUS, 0x41, 0, 0, b"\x00\x01")


@pytest.mark.parametrize("field,value", [
    ("file_id", 0x100),
    ("file_id", -1),
    ("offset", 1 << 32),
    ("length", 1 << 32),
])
def test_field_range_validation(field, value):
    kwargs = {"file_id": 0x41, "offset": 0, "length": 0}
    kwargs[field] = value
    with pytest.raises(ValueError):
        AlpAction(Opcode.READ_FILE_DATA, kwargs["file_id"],
                  kwargs["offset"], kwargs["length"], b"")


@pytest.mark.parametrize("opcode", [2, "x", []], ids=["2", "x", "list"])
def test_action_rejects_an_opcode_that_is_not_a_member(opcode):
    with pytest.raises(ValueError, match="not a valid Opcode"):
        AlpAction(opcode, 0x41)
    with pytest.raises(ValueError, match="not a valid Opcode"):
        AlpAction.read(0x41, 0, 1)._replace(opcode=opcode)


def test_action_takes_an_opcode_value_as_its_member():
    action = AlpAction(0x01, 0x41, 0, 12)
    assert action.opcode is Opcode.READ_FILE_DATA
    assert repr(action) == ("AlpAction(opcode=<Opcode.READ_FILE_DATA: 1>,"
                            " file_id=65, offset=0, length=12, payload=b'')")


@pytest.mark.parametrize("payload", [bytearray(b"\x07"), [7], (7,),
                                     memoryview(b"\x07")],
                         ids=["bytearray", "list", "tuple", "memoryview"])
def test_action_holds_a_byte_sequence_payload_as_bytes(payload):
    want = AlpAction.status(7, 0x41, 0, 0)
    for action in (AlpAction(Opcode.STATUS, 0x41, 0, 0, payload),
                   want._replace(payload=payload)):
        assert type(action.payload) is bytes
        assert action == want and hash(action) == hash(want)
        assert encode_command((action,)) == encode_command((want,))
    # write and return_data keep the bytes they are given
    data = b"\x01\x02"
    assert AlpAction.write(0x41, 0, data).payload is data
    assert AlpAction.return_data(0x40, 0, data).payload is data


@pytest.mark.parametrize("payload", ["x", 1, [300], ["x"], None],
                         ids=["str", "int", "list-300", "list-str", "None"])
def test_action_refuses_a_payload_that_is_not_bytes(payload):
    # an int would make bytes() a run of zeros of that length
    with pytest.raises(ValueError, match=re.escape(f"payload {payload!r}")):
        AlpAction(Opcode.STATUS, 0x41, 0, 0, payload)
    with pytest.raises(ValueError, match=re.escape(f"payload {payload!r}")):
        AlpAction.status(0, 0x41, 0, 0)._replace(payload=payload)


def test_command_must_have_actions():
    with pytest.raises(ValueError, match="at least one action"):
        encode_command(())


@pytest.mark.parametrize("actions, message", [
    (AlpAction.read(0x41, 0, 1), "not one action"),
    ((AlpAction.read(0x41, 0, 1), 3), "not int"),
    ((tuple(AlpAction.read(0x41, 0, 1)),), "not tuple"),
], ids=["bare-action", "int", "plain-tuple"])
def test_command_holds_only_actions(actions, message):
    """A bare action is a tuple of its fields; it must not encode as a
    command of five "actions"."""
    with pytest.raises(TypeError, match=message):
        encode_command(actions)


u8 = st.integers(0, 0xFF)
u32 = st.integers(0, 0xFFFFFFFF)

read_actions = st.builds(AlpAction.read, u8, u32, u32)
write_actions = st.builds(
    AlpAction.write, u8, u32, st.binary(max_size=64))
return_actions = st.builds(
    AlpAction.return_data, u8, u32, st.binary(max_size=64))
status_actions = st.builds(AlpAction.status, u8, u8, u32, u32)

commands = st.lists(
    st.one_of(read_actions, write_actions, return_actions, status_actions),
    min_size=1, max_size=4,
).map(tuple)


@given(commands)
def test_command_roundtrip_is_bit_exact(command):
    wire = encode_command(command)
    decoded = decode_command(wire)
    assert decoded == command
    assert encode_command(decoded) == encode_command(iter(command)) == wire


@given(st.binary(max_size=128))
def test_decode_rejects_junk_with_decode_error_only(data):
    """Arbitrary bytes either decode or raise DecodeError; nothing else."""
    try:
        command = decode_command(data)
    except DecodeError:
        return
    assert encode_command(command) == data
