"""
One node, driven by hand
========================

The firmware object is plain Python: you feed it time, in whole ms, and
downlink bytes, it hands back uplink frames.  No radio, no scheduler, so every
behavior is easy to poke at.
"""

import sys

from geowsn.alp import (
    AlpAction,
    NODE_CONFIG_FILE,
    SENSOR_DATA_FILE,
    decode_command,
    encode_command,
)
from geowsn.node import (
    CHANNELS,
    ConstantSignal,
    NodeConfig,
    SensorKind,
    SensorNode,
    SensorReading,
    SignalDriver,
    SineSignal,
)

# the degree sign of a unit is escaped on an ASCII terminal, as the CLI
# escapes what it prints, instead of ending the demo
sys.stdout.reconfigure(errors="backslashreplace")

# A soil probe that swings around 4 degrees over a day.
driver = SignalDriver(
    SensorKind.SOIL_TEMPERATURE,
    (SineSignal(mean=4.0, amplitude=2.0, period_s=86400.0),),
)
node = SensorNode(
    uid=7,
    config=NodeConfig(sensor_type=int(SensorKind.SOIL_TEMPERATURE),
                      sampling_rate=60),
    drivers={int(SensorKind.SOIL_TEMPERATURE): driver},
)
node.boot(0)
print("booted, first sample due at", node.next_sample_ms / 1000, "s")

# The sample timer fires: the node measures, stores the record in its
# data file and queues it for uplink.
node.on_sample_timer(60_000)
uplink = node.drain_outbox()[0]
action = decode_command(uplink.payload)[0]
reading = SensorReading.from_bytes(action.payload)
print("first reading:", reading.values_milli, "milli-units of",
      [spec.unit for spec in CHANNELS[reading.kind]])

# Configuration is just a remote file write.  Byte 3 set to 0xAA means
# measure and transmit right now; the node also acknowledges the write.
poke = encode_command((
    AlpAction.write(NODE_CONFIG_FILE, 3, b"\xAA"),
))
node.on_downlink(poke, 65_000)
frames = node.drain_outbox()
print("frames after the poke:", [f.kind.value for f in frames])

# When the radio drops a frame the records spool to flash instead of
# vanishing; the next delivered uplink flushes them oldest first.
node.on_sample_timer(120_000)
lost = node.drain_outbox()[0]
node.on_uplink_result(lost, delivered=False)
print("spooled after a drop:", len(node.buffer), "record")

node.on_sample_timer(180_000)
fresh = node.drain_outbox()[0]
node.on_uplink_result(fresh, delivered=True)
flush = node.drain_outbox()[0]
print("flush frame carries", len(flush.records), "spooled record(s)")
node.on_uplink_result(flush, delivered=True)
print("flash after flush:", len(node.buffer), "records,"
      " delivered so far:", node.counters.records_delivered)

# A reset zeroes the volatile data file but configuration persists.
node.reset(200_000)
print("config survives reset:",
      node.files.raw(NODE_CONFIG_FILE) == node.config.to_bytes())
print("data file wiped:",
      node.files.raw(SENSOR_DATA_FILE) == bytes(32))
