"""Packed config image, reading records and the flash ring."""

import struct

import pytest
from hypothesis import given
import hypothesis.strategies as st

from geowsn.node import (
    CHANNELS,
    FLASH_CAPACITY_RECORDS,
    ConfigError,
    ConstantSignal,
    NODE_CONFIG_SIZE,
    NodeConfig,
    SensorKind,
    SensorNode,
    SensorReading,
    SignalDriver,
    Uplink,
    UplinkKind,
)

# type=1, address=0, action=0, rate=60 s, rtc=0, packed little-endian
SIXTY_SECOND_IMAGE = bytes.fromhex("010000" + "00" + "3C000000" + "00000000")


def test_config_packs_to_known_image():
    config = NodeConfig(sensor_type=1, sensor_address=0, sensor_action=0,
                        sampling_rate=60, rtc_time=0)
    assert config.to_bytes() == SIXTY_SECOND_IMAGE
    assert len(SIXTY_SECOND_IMAGE) == NODE_CONFIG_SIZE


def test_config_unpacks_known_image():
    config = NodeConfig.from_bytes(SIXTY_SECOND_IMAGE)
    assert config.sensor_type == 1
    assert config.sensor_address == 0
    assert config.sensor_action == 0
    assert config.sampling_rate == 60
    assert config.rtc_time == 0


def test_action_byte_sits_at_offset_three():
    image = bytearray(SIXTY_SECOND_IMAGE)
    image[3] = 0xAA
    config = NodeConfig.from_bytes(bytes(image))
    assert config.sensor_action == 0xAA
    # the surrounding fields are untouched by that byte
    assert config.sensor_type == 1
    assert config.sampling_rate == 60


def test_wrong_size_image_rejected():
    with pytest.raises(ConfigError):
        NodeConfig.from_bytes(bytes(11))
    with pytest.raises(ConfigError):
        NodeConfig.from_bytes(bytes(13))


def test_out_of_range_field_rejected_on_pack():
    with pytest.raises(ConfigError):
        NodeConfig(sensor_type=0x100).to_bytes()
    with pytest.raises(ConfigError):
        NodeConfig(sampling_rate=1 << 32).to_bytes()


@given(
    sensor_type=st.integers(0, 0xFF),
    sensor_address=st.integers(0, 0xFFFF),
    sensor_action=st.integers(0, 0xFF),
    sampling_rate=st.integers(0, 0xFFFFFFFF),
    rtc_time=st.integers(0, 0xFFFFFFFF),
)
def test_config_roundtrip(sensor_type, sensor_address, sensor_action,
                          sampling_rate, rtc_time):
    config = NodeConfig(sensor_type, sensor_address, sensor_action,
                        sampling_rate, rtc_time)
    image = config.to_bytes()
    assert len(image) == NODE_CONFIG_SIZE
    assert NodeConfig.from_bytes(image) == config


@given(image=st.binary(min_size=12, max_size=12))
def test_any_twelve_bytes_parse(image):
    config = NodeConfig.from_bytes(image)
    assert config.to_bytes() == image


def test_reading_roundtrip_soil():
    reading = SensorReading(1234, SensorKind.SOIL_TEMPERATURE, (3456,))
    record = reading.to_bytes()
    assert SensorReading.from_bytes(record) == reading


def test_reading_roundtrip_weather():
    reading = SensorReading(99, SensorKind.WEATHER_STATION,
                            (-1500, 82000, 3200))
    assert SensorReading.from_bytes(reading.to_bytes()) == reading


def test_reading_value_count_must_match_kind():
    # a record holds exactly its kind's channels; bytes from the air that
    # declare another count are refused where they are decoded
    with pytest.raises(struct.error):
        SensorReading(0, SensorKind.WEATHER_STATION, (1, 2)).to_bytes()
    record = bytearray(SensorReading(0, SensorKind.WEATHER_STATION,
                                     (1, 2, 3)).to_bytes())
    record[5] = 2
    with pytest.raises(ValueError, match="declares 2 channels, expected 3"):
        SensorReading.from_bytes(bytes(record))


def test_reading_record_rejects_unknown_kind():
    record = bytearray(SensorReading(0, SensorKind.SOIL_TEMPERATURE,
                                     (0,)).to_bytes())
    record[4] = 0x7F
    with pytest.raises(ValueError):
        SensorReading.from_bytes(bytes(record))


def test_reading_record_rejects_wrong_length():
    record = SensorReading(0, SensorKind.SOIL_TEMPERATURE, (0,)).to_bytes()
    with pytest.raises(ValueError):
        SensorReading.from_bytes(record + b"\x00")
    with pytest.raises(ValueError):
        SensorReading.from_bytes(record[:-1])


@given(
    timestamp=st.integers(0, 0xFFFFFFFF),
    kind=st.sampled_from(sorted(SensorKind)),
    data=st.data(),
)
def test_reading_roundtrip_property(timestamp, kind, data):
    count = len(CHANNELS[kind])
    values = data.draw(st.tuples(*(
        st.integers(-(2 ** 31), 2 ** 31 - 1) for _ in range(count))))
    reading = SensorReading(timestamp, kind, values)
    assert SensorReading.from_bytes(reading.to_bytes()) == reading


def soil_record(timestamp: int) -> bytes:
    return SensorReading(timestamp, SensorKind.SOIL_TEMPERATURE,
                         (timestamp,)).to_bytes()


def booted_node() -> SensorNode:
    node = SensorNode(1, NodeConfig(sensor_type=1, sampling_rate=60),
                      {1: SignalDriver(SensorKind.SOIL_TEMPERATURE,
                                       (ConstantSignal(4.0),))})
    node.boot(0)
    return node


def spool(node: SensorNode, records) -> None:
    """Report each record's reading lost, so it goes to flash."""
    for record in records:
        node.on_uplink_result(Uplink(b"", (record,), UplinkKind.READING),
                              False)


def flush_frame(node: SensorNode) -> Uplink:
    """Deliver a fresh reading; return the flush frame it sets off."""
    node.on_sample_timer(60_000)
    node.on_uplink_result(node.drain_outbox()[0], True)
    (flush,) = node.drain_outbox()
    assert flush.kind is UplinkKind.FLUSH
    return flush


def test_flash_buffer_evicts_oldest():
    node = booted_node()
    records = [soil_record(t) for t in range(FLASH_CAPACITY_RECORDS + 2)]
    spool(node, records)
    assert list(node.buffer) == records[2:]
    assert node.counters.records_overwritten == 2


def test_flash_buffer_peek_is_nondestructive():
    node = booted_node()
    records = [soil_record(t) for t in range(5)]
    spool(node, records)
    flush = flush_frame(node)
    assert flush.records == tuple(records)
    assert list(node.buffer) == records  # until the flush is acknowledged
    node.on_uplink_result(flush, False)
    assert list(node.buffer) == records  # a lost flush spools nothing twice


def test_flash_buffer_pop_head_matches_identity():
    """After an eviction during flight, an acknowledgment for the
    evicted record must not drop its replacement."""
    node = booted_node()
    records = [soil_record(t) for t in range(FLASH_CAPACITY_RECORDS)]
    spool(node, records)
    flush = flush_frame(node)
    # while the flush is in the air, equal readings replace every record
    copies = [bytes(bytearray(record)) for record in records]
    assert copies == records and copies[0] is not records[0]
    spool(node, copies)
    node.on_uplink_result(flush, True)
    assert len(node.buffer) == FLASH_CAPACITY_RECORDS
    assert node.buffer[0] is copies[0]
    assert node.counters.records_delivered == 1  # the fresh reading only
