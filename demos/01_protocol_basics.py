"""
Encoding and decoding file-access commands
==========================================

A node speaks a tiny binary protocol: every frame is a list of actions,
every action touches a byte range of a numbered file.  This walks
through building frames by hand and watching them come back out.
"""

from geowsn.alp import (
    AlpAction,
    DecodeError,
    FileHeader,
    FileStore,
    NODE_CONFIG_FILE,
    SENSOR_DATA_FILE,
    decode_command,
    encode_command,
)

# Ask for the whole 12-byte configuration file.
read_all = (AlpAction.read(NODE_CONFIG_FILE, 0, 12),)
wire = encode_command(read_all)
print("read request on the wire:", wire.hex())

# Flip the action byte (offset 3) to 0xAA, the "measure now" trigger.
poke = (AlpAction.write(NODE_CONFIG_FILE, 3, b"\xAA"),)
print("write request on the wire:", encode_command(poke).hex())

# Frames decode back to the exact same value they were built from.
again = decode_command(wire)
print("roundtrips cleanly:", again == read_all)

# A command can carry several actions; they execute in order.
batch = (
    AlpAction.write(NODE_CONFIG_FILE, 4, (30).to_bytes(4, "little")),
    AlpAction.read(SENSOR_DATA_FILE, 0, 10),
)
print("two actions, one frame:", encode_command(batch).hex())

# Truncated or garbled input names the byte where parsing stopped.
try:
    decode_command(wire[:5])
except DecodeError as exc:
    print("truncated frame:", exc)

# The file store underneath holds each file's bytes and enforces
# bounds and permissions; a write changes only the range it names.
store = FileStore()
store.create(FileHeader(NODE_CONFIG_FILE, 12, persistent=True))
store.write(NODE_CONFIG_FILE, 3, b"\xAA")
print("file image now:", store.raw(NODE_CONFIG_FILE).hex())
