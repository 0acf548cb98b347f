"""File registry and wire codec for the file-operation protocol.

Everything a node exposes is a small fixed-length file.  Remote peers
interact with a node exclusively through offset-addressed reads and
writes on those files, and the node answers with returned file data or
a status byte.  The same byte format travels in both directions, so a
single codec serves node firmware, gateway forwarding and the backend.
The registry only stores bytes and enforces bounds and permissions;
what an access makes the device do is the firmware's business.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

SENSOR_DATA_FILE = 0x40
NODE_CONFIG_FILE = 0x41

#: opcode (u8), file id (u8), offset (u32 LE), length (u32 LE)
_ACTION_HEADER = struct.Struct("<BBII")
#: bytes an encoded action takes ahead of its payload
ACTION_HEADER_SIZE = _ACTION_HEADER.size

_U32_MAX = 0xFFFFFFFF


class Opcode(IntEnum):
    """Action opcodes that may appear in a command."""

    READ_FILE_DATA = 0x01
    WRITE_FILE_DATA = 0x04
    RETURN_FILE_DATA = 0x20
    STATUS = 0x7F


#: opcode value -> member, without ``Enum.__call__`` on every frame
_OPCODES = {int(op): op for op in Opcode}
#: each member bound once: on Python 3.11 ``Opcode.STATUS`` goes through
#: the ``EnumType.__getattr__`` hook, several times a module global read
OP_READ = Opcode.READ_FILE_DATA
OP_WRITE = Opcode.WRITE_FILE_DATA
OP_RETURN = Opcode.RETURN_FILE_DATA
OP_STATUS = Opcode.STATUS

# Status payload bytes emitted by nodes.  0x00 acknowledges a write;
# the rest report why a request or a local operation failed.
STATUS_OK = 0x00
STATUS_UNKNOWN_SENSOR_TYPE = 0x01
STATUS_RESERVED_ACTION_CODE = 0x02
STATUS_DRIVER_FAULT = 0x03
STATUS_FILE_ACCESS_ERROR = 0x04
STATUS_MALFORMED_COMMAND = 0x05


class AlpError(Exception):
    """Base class for protocol and file-registry errors."""


class DecodeError(AlpError):
    """Raised when a byte string cannot be decoded into a command.

    ``offset`` is the position in the input at which decoding failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class TruncatedInputError(DecodeError):
    pass


class UnknownOpcodeError(DecodeError):
    def __init__(self, opcode: int, offset: int):
        super().__init__(f"unknown opcode 0x{opcode:02X}", offset)
        self.opcode = opcode


class FileAccessError(AlpError):
    """Base class for file-registry access failures."""


class NoSuchFileError(FileAccessError):
    def __init__(self, file_id: int):
        super().__init__(f"no file 0x{file_id:02X}")
        self.file_id = file_id


class PermissionDeniedError(FileAccessError):
    def __init__(self, file_id: int, operation: str):
        super().__init__(f"file 0x{file_id:02X} is not {operation}")
        self.file_id = file_id


class OutOfBoundsError(FileAccessError):
    def __init__(self, file_id: int, offset: int, length: int, size: int):
        super().__init__(
            f"range [{offset}, {offset + length}) exceeds file 0x{file_id:02X}"
            f" of {size} bytes"
        )
        self.file_id = file_id


class _ActionFields(NamedTuple):
    opcode: Opcode
    file_id: int
    offset: int = 0
    length: int = 0
    payload: bytes = b""


class AlpAction(_ActionFields):
    """One operation of a command.

    ``offset`` and ``length`` address a byte range inside the target
    file.  Whether ``payload`` is present depends on the opcode:
    reads carry none, writes and returned data carry exactly
    ``length`` bytes, and a status carries a single status byte while
    ``file_id``/``offset``/``length`` echo the request it refers to.
    The one constructor checks every field, and copies a payload that is
    not ``bytes`` into ``bytes`` so that every action is hashable: for the
    decoder, and for namedtuple's ``_make`` and ``_replace`` too.
    """

    __slots__ = ()

    def __new__(cls, opcode, file_id, offset=0, length=0, payload=b""):
        # bytes passes without a call; iter() refuses an int, which bytes() reads as a size
        if payload.__class__ is not bytes:
            try:
                payload = bytes(iter(payload))
            except (TypeError, ValueError):
                raise ValueError(f"payload {payload!r} is not a sequence"
                                 " of bytes") from None
        if not 0 <= file_id <= 0xFF:
            raise ValueError(f"file_id {file_id} out of u8 range")
        if not 0 <= offset <= _U32_MAX:
            raise ValueError(f"offset {offset} out of u32 range")
        if not 0 <= length <= _U32_MAX:
            raise ValueError(f"length {length} out of u32 range")
        try:
            opcode = _OPCODES[opcode]
        except (KeyError, TypeError):  # not a member, or not even hashable
            raise ValueError(f"{opcode!r} is not a valid Opcode") from None
        if opcode is OP_READ:
            if payload:
                raise ValueError("read actions carry no payload")
        elif opcode is OP_STATUS:
            if len(payload) != 1:
                raise ValueError("status actions carry exactly one byte")
        elif len(payload) != length:
            raise ValueError(f"payload of {len(payload)} bytes does not"
                             f" match length {length}")
        return tuple.__new__(cls, (opcode, file_id, offset, length, payload))

    @classmethod
    def read(cls, file_id: int, offset: int, length: int) -> "AlpAction":
        return cls(OP_READ, file_id, offset, length)

    @classmethod
    def write(cls, file_id: int, offset: int, payload: bytes) -> "AlpAction":
        return cls(OP_WRITE, file_id, offset, len(payload), payload)

    @classmethod
    def return_data(cls, file_id: int, offset: int, payload: bytes) -> "AlpAction":
        return cls(OP_RETURN, file_id, offset, len(payload), payload)

    @classmethod
    def status(cls, code: int, file_id: int, offset: int, length: int) -> "AlpAction":
        """Build a status action echoing the request it answers."""
        return cls(OP_STATUS, file_id, offset, length, bytes([code]))


AlpAction._make = classmethod(lambda cls, fields: cls(*fields))


def encode_command(actions: tuple[AlpAction, ...]) -> bytes:
    """Encode a command: a non-empty run of actions, executed in order."""
    command = tuple(actions)
    if not command:
        raise ValueError("a command holds at least one action")
    frame = b""
    for action in command:
        # the exact-class test costs no call on every frame;
        # isinstance runs only for what is not exactly an AlpAction
        if action.__class__ is not AlpAction and not isinstance(action, AlpAction):
            if isinstance(actions, AlpAction):
                raise TypeError("a command takes a sequence of actions,"
                                " not one action")
            raise TypeError("a command holds AlpActions, not"
                            f" {type(action).__name__}")
        # a frame holds a few actions at most: concatenating beats joining
        frame += _ACTION_HEADER.pack(*action[:4]) + action.payload
    return frame


def decode_command(data: bytes) -> tuple[AlpAction, ...]:
    """Decode a byte string into its actions, consuming all input.

    Raises :class:`TruncatedInputError` or :class:`UnknownOpcodeError`
    with the byte offset of the failure.
    """
    if not data:
        raise TruncatedInputError("empty input", 0)
    actions = []
    pos = 0
    end = len(data)
    while pos < end:
        if end - pos < ACTION_HEADER_SIZE:
            raise TruncatedInputError("action header incomplete", pos)
        opcode_byte, file_id, offset, length = _ACTION_HEADER.unpack_from(data, pos)
        opcode = _OPCODES.get(opcode_byte)
        if opcode is None:
            raise UnknownOpcodeError(opcode_byte, pos)
        pos += ACTION_HEADER_SIZE
        if opcode is OP_READ:
            want = 0
        elif opcode is OP_STATUS:
            want = 1
        else:
            want = length
        if end - pos < want:
            raise TruncatedInputError(f"payload of {want} bytes incomplete", pos)
        # AlpAction copies a slice of anything but bytes
        actions.append(AlpAction(opcode, file_id, offset, length, data[pos:pos + want]))
        pos += want
    return tuple(actions)


@dataclass(frozen=True)
class FileHeader:
    """Fixed metadata of one file in the registry.

    ``persistent`` files keep content across a device reset; volatile
    files are zeroed by it.
    """

    file_id: int
    length: int
    readable: bool = True
    writable: bool = True
    persistent: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.file_id <= 0xFF:
            raise ValueError(f"file_id {self.file_id} out of u8 range")
        if self.length <= 0:
            raise ValueError("file length must be positive")


class FileStore:
    """A node's file registry: fixed-size files with bounds and
    permission checks."""

    def __init__(self) -> None:
        self._headers: dict[int, FileHeader] = {}
        self._content: dict[int, bytearray] = {}

    def create(self, header: FileHeader, content: bytes | None = None) -> None:
        if header.file_id in self._headers:
            raise ValueError(f"file 0x{header.file_id:02X} already exists")
        if content is None:
            content = bytes(header.length)
        if len(content) != header.length:
            raise ValueError("initial content must fill the file exactly")
        self._headers[header.file_id] = header
        self._content[header.file_id] = bytearray(content)

    def file_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._headers))

    def raw(self, file_id: int) -> bytes:
        """Owner's view of a file: full content, no permission checks."""
        if file_id not in self._content:
            raise NoSuchFileError(file_id)
        return bytes(self._content[file_id])

    def read(self, file_id: int, offset: int, length: int) -> bytes:
        header = self._headers.get(file_id)
        if header is None:
            raise NoSuchFileError(file_id)
        if not header.readable:
            raise PermissionDeniedError(file_id, "readable")
        # a negative bound would slice from the end of the content
        if offset < 0 or length < 0 or offset + length > header.length:
            raise OutOfBoundsError(file_id, offset, length, header.length)
        return bytes(self._content[file_id][offset:offset + length])

    def write(self, file_id: int, offset: int, payload: bytes) -> None:
        header = self._headers.get(file_id)
        if header is None:
            raise NoSuchFileError(file_id)
        if not header.writable:
            raise PermissionDeniedError(file_id, "writable")
        length = len(payload)
        if offset < 0 or offset + length > header.length:
            raise OutOfBoundsError(file_id, offset, length, header.length)
        self._content[file_id][offset:offset + length] = payload

    def reset(self) -> None:
        """Zero every volatile file, as a device reset would."""
        for file_id, header in self._headers.items():
            if not header.persistent:
                self._content[file_id] = bytearray(header.length)
