"""Firmware behavior: sampling, remote config, triggers, reset, spooling."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from geowsn.alp import (
    AlpAction,
    Opcode,
    NODE_CONFIG_FILE,
    SENSOR_DATA_FILE,
    STATUS_DRIVER_FAULT,
    STATUS_FILE_ACCESS_ERROR,
    STATUS_MALFORMED_COMMAND,
    STATUS_OK,
    STATUS_RESERVED_ACTION_CODE,
    STATUS_UNKNOWN_SENSOR_TYPE,
    decode_command,
    encode_command,
)
from geowsn.node import (
    ACTION_MEASURE_AND_TRANSMIT,
    CHANNELS,
    FLASH_CAPACITY_RECORDS,
    FLUSH_BATCH_RECORDS,
    WATCHDOG_PERIOD_S,
    ConfigError,
    ConstantSignal,
    NodeConfig,
    SensorDriver,
    SensorKind,
    SensorNode,
    SensorReading,
    SignalDriver,
    UplinkKind,
)


def soil_driver(value_c: float = 3.5) -> SignalDriver:
    return SignalDriver(SensorKind.SOIL_TEMPERATURE,
                        (ConstantSignal(value_c),))


def make_node(rate_s: int = 60, value_c: float = 3.5) -> SensorNode:
    config = NodeConfig(sensor_type=int(SensorKind.SOIL_TEMPERATURE),
                        sampling_rate=rate_s)
    node = SensorNode(
        uid=1, config=config,
        drivers={int(SensorKind.SOIL_TEMPERATURE): soil_driver(value_c)},
    )
    node.boot(0.0)
    return node


def write_command(file_id: int, offset: int, payload: bytes) -> bytes:
    return encode_command((AlpAction.write(file_id, offset, payload),))


def read_command(file_id: int, offset: int, length: int) -> bytes:
    return encode_command((AlpAction.read(file_id, offset, length),))


def sent_actions(node: SensorNode) -> list[AlpAction]:
    """Drain the outbox and decode every queued frame to actions."""
    actions = []
    for uplink in node.drain_outbox():
        actions.extend(decode_command(uplink.payload))
    return actions


def test_boot_creates_both_files():
    node = make_node()
    assert node.files.file_ids() == (SENSOR_DATA_FILE, NODE_CONFIG_FILE)
    assert node.files.raw(NODE_CONFIG_FILE) == node.config.to_bytes()
    assert node.next_sample_at == 60.0


def test_double_boot_rejected():
    node = make_node()
    with pytest.raises(RuntimeError):
        node.boot(1.0)


def test_sample_timer_emits_fresh_reading():
    node = make_node(value_c=3.456)
    node.on_sample_timer(60.0)
    uplinks = node.drain_outbox()
    assert len(uplinks) == 1
    assert uplinks[0].kind is UplinkKind.READING
    action = decode_command(uplinks[0].payload)[0]
    assert action.opcode is Opcode.RETURN_FILE_DATA
    assert action.file_id == SENSOR_DATA_FILE
    reading = SensorReading.from_bytes(action.payload)
    assert reading.timestamp == 60
    assert reading.values_milli == (3456,)
    assert node.next_sample_at == 120.0
    assert node.counters.samples_produced == 1


def test_action_write_triggers_immediate_measurement():
    node = make_node(rate_s=600)
    node.on_downlink(write_command(NODE_CONFIG_FILE, 3, b"\xAA"), 5.0)
    actions = sent_actions(node)
    # the triggered reading goes out ahead of the write acknowledgment
    assert [a.opcode for a in actions] == [Opcode.RETURN_FILE_DATA,
                                           Opcode.STATUS]
    reading = SensorReading.from_bytes(actions[0].payload)
    assert reading.timestamp == 5
    status = actions[1]
    assert status.payload[0] == STATUS_OK
    assert (status.file_id, status.offset, status.length) == (
        NODE_CONFIG_FILE, 3, 1)
    # the action byte stays readable in the file afterwards
    assert node.files.raw(NODE_CONFIG_FILE)[3] == 0xAA


def test_rewriting_same_action_byte_does_not_retrigger():
    node = make_node(rate_s=600)
    node.on_downlink(write_command(NODE_CONFIG_FILE, 3, b"\xAA"), 5.0)
    node.drain_outbox()
    node.on_downlink(write_command(NODE_CONFIG_FILE, 3, b"\xAA"), 6.0)
    actions = sent_actions(node)
    assert [a.opcode for a in actions] == [Opcode.STATUS]
    assert actions[0].payload[0] == STATUS_OK
    assert node.counters.samples_produced == 1


def test_clearing_then_setting_action_byte_triggers_again():
    node = make_node(rate_s=600)
    node.on_downlink(write_command(NODE_CONFIG_FILE, 3, b"\xAA"), 5.0)
    node.on_downlink(write_command(NODE_CONFIG_FILE, 3, b"\x00"), 6.0)
    node.drain_outbox()
    node.on_downlink(write_command(NODE_CONFIG_FILE, 3, b"\xAA"), 7.0)
    kinds = [u.kind for u in node.outbox]
    assert kinds == [UplinkKind.READING, UplinkKind.STATUS]
    assert node.counters.samples_produced == 2


def test_reserved_action_code_reports_status():
    node = make_node()
    node.on_downlink(write_command(NODE_CONFIG_FILE, 3, b"\x42"), 5.0)
    actions = sent_actions(node)
    codes = [a.payload[0] for a in actions if a.opcode is Opcode.STATUS]
    assert STATUS_RESERVED_ACTION_CODE in codes
    assert codes[-1] == STATUS_OK  # the write itself still lands
    assert node.counters.samples_produced == 0


def test_rate_write_reschedules_next_sample():
    node = make_node(rate_s=600)
    assert node.next_sample_at == 600.0
    node.on_downlink(write_command(NODE_CONFIG_FILE, 4,
                                   (30).to_bytes(4, "little")), 100.0)
    assert node.config.sampling_rate == 30
    assert node.next_sample_at == 130.0


def test_zero_rate_cannot_wedge_the_timer():
    node = make_node(rate_s=600)
    node.on_downlink(write_command(NODE_CONFIG_FILE, 4, bytes(4)), 100.0)
    assert node.config.sampling_rate == 0
    assert node.effective_rate == 1
    assert node.next_sample_at == 101.0


def test_rtc_write_rebases_timestamps():
    node = make_node(rate_s=600)
    epoch = 1_700_000_000
    node.on_downlink(write_command(NODE_CONFIG_FILE, 8,
                                   epoch.to_bytes(4, "little")), 50.0)
    assert node.clock(50.0) == epoch
    assert node.clock(53.0) == epoch + 3
    node.drain_outbox()
    node.on_sample_timer(60.0)
    reading = SensorReading.from_bytes(
        decode_command(node.drain_outbox()[0].payload)[0].payload)
    assert reading.timestamp == epoch + 10


def test_rtc_counts_whole_seconds_after_a_rebase_at_a_fraction_of_a_second():
    # 38,238.664 - 31,663.664 is 6,574.999999999996 in float seconds
    node = make_node(rate_s=600)
    node.on_downlink(write_command(NODE_CONFIG_FILE, 8,
                                   (1000).to_bytes(4, "little")), 31_663.664)
    assert node.clock(38_238.664) == 7575


def test_full_config_write_applies_all_fields():
    node = make_node(rate_s=600)
    image = NodeConfig(sensor_type=1, sensor_address=7, sensor_action=0,
                       sampling_rate=45, rtc_time=1000).to_bytes()
    node.on_downlink(write_command(NODE_CONFIG_FILE, 0, image), 10.0)
    assert node.config == NodeConfig.from_bytes(image)
    assert node.next_sample_at == 55.0
    assert node.clock(12.0) == 1002


def test_unknown_sensor_type_write_reports_status():
    node = make_node(rate_s=600)
    node.on_downlink(write_command(NODE_CONFIG_FILE, 0, b"\x09"), 10.0)
    actions = sent_actions(node)
    codes = [a.payload[0] for a in actions if a.opcode is Opcode.STATUS]
    assert codes == [STATUS_UNKNOWN_SENSOR_TYPE, STATUS_OK]
    # the previous binding keeps sampling
    node.on_sample_timer(600.0)
    assert node.counters.samples_produced == 1


class FaultyDriver(SensorDriver):
    kind = SensorKind.SOIL_TEMPERATURE

    def measure(self, address, at_s):
        return ()


def test_driver_fault_reports_status():
    config = NodeConfig(sensor_type=1, sampling_rate=60)
    node = SensorNode(uid=1, config=config, drivers={1: FaultyDriver()})
    node.boot(0.0)
    node.on_sample_timer(60.0)
    actions = sent_actions(node)
    assert [a.payload[0] for a in actions] == [STATUS_DRIVER_FAULT]
    assert node.counters.samples_produced == 0
    assert node.counters.driver_faults == 1


class ScriptedDriver(SensorDriver):
    """Returns the given measurements, one per call, in order; an
    exception among them is raised instead."""

    def __init__(self, kind: SensorKind, measurements):
        self.kind = kind
        self._measurements = iter(measurements)

    def measure(self, address, at_s):
        measurement = next(self._measurements)
        if isinstance(measurement, Exception):
            raise measurement
        return measurement


def _storable(value: float) -> bool:
    """True if the value has an i32 milli-unit for a reading record."""
    scaled = value * 1000.0
    return math.isfinite(scaled) and -2**31 <= round(scaled) < 2**31


@st.composite
def _sampling_runs(draw):
    kind = draw(st.sampled_from(SensorKind))
    width = len(CHANNELS[kind])
    measurement = st.one_of(
        st.just(()),
        st.tuples(*[st.floats(allow_subnormal=True)] * width),
        st.tuples(*[st.sampled_from([math.nan, math.inf, -math.inf, 1e300,
                                     2147483.6475, -2147483.6485, 5e-324,
                                     3.456])] * width),
        # what math raises for a signal it cannot evaluate
        st.sampled_from([ValueError("math domain error"),
                         OverflowError("math range error")]),
    )
    return kind, draw(st.lists(measurement, min_size=1, max_size=6))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(run=_sampling_runs(), rtc=st.integers(0, 2**32 - 1))
def test_every_sample_queues_one_reading_or_one_driver_fault(run, rtc):
    kind, measurements = run
    config = NodeConfig(sensor_type=int(kind), sampling_rate=60,
                        rtc_time=rtc)
    node = SensorNode(uid=1, config=config,
                      drivers={int(kind): ScriptedDriver(kind, measurements)})
    node.boot(0.0)
    for at_s, values in zip(range(60, 3600, 60), measurements):
        node.on_sample_timer(float(at_s))
        (uplink,) = node.drain_outbox()
        (action,) = decode_command(uplink.payload)
        if (isinstance(values, tuple) and values
                and all(_storable(v) for v in values)):
            assert uplink.kind is UplinkKind.READING
            reading = SensorReading.from_bytes(action.payload)
            assert reading.timestamp == (rtc + at_s) % 2**32
            assert reading.values_milli == tuple(round(v * 1000.0)
                                                 for v in values)
        else:
            assert uplink.kind is UplinkKind.STATUS
            assert action.payload[0] == STATUS_DRIVER_FAULT
    counters = node.counters
    assert counters.samples_produced + counters.driver_faults == sum(
        counters.measurements.values()) == len(measurements)


def test_remote_read_returns_config_bytes():
    node = make_node()
    node.on_downlink(read_command(NODE_CONFIG_FILE, 0, 12), 5.0)
    actions = sent_actions(node)
    assert len(actions) == 1
    assert actions[0].opcode is Opcode.RETURN_FILE_DATA
    assert actions[0].payload == node.config.to_bytes()


def test_remote_read_of_data_file_triggers_fresh_sample():
    node = make_node(rate_s=600)
    node.on_sample_timer(600.0)
    before = node.files.raw(SENSOR_DATA_FILE)[:10]
    node.drain_outbox()
    node.on_downlink(read_command(SENSOR_DATA_FILE, 0, 10), 605.0)
    uplinks = node.drain_outbox()
    kinds = [u.kind for u in uplinks]
    assert kinds == [UplinkKind.READING, UplinkKind.RESPONSE]
    assert node.counters.samples_produced == 2
    fresh = SensorReading.from_bytes(uplinks[0].records[0])
    assert fresh.timestamp == 605
    # the answer holds what was read, from before the fresh sample
    answer = decode_command(uplinks[1].payload)[0]
    assert answer.payload == before
    assert SensorReading.from_bytes(before).timestamp == 600


def test_remote_write_to_data_file_is_echoed_without_measuring():
    node = make_node(rate_s=600)
    node.on_downlink(write_command(SENSOR_DATA_FILE, 2, b"\x01\x02"), 5.0)
    uplinks = node.drain_outbox()
    assert [(u.kind, u.records) for u in uplinks] == [
        (UplinkKind.RESPONSE, ()), (UplinkKind.STATUS, ())]
    echo = decode_command(uplinks[0].payload)[0]
    assert echo == AlpAction.return_data(SENSOR_DATA_FILE, 2, b"\x01\x02")
    status = decode_command(uplinks[1].payload)[0]
    assert status.payload[0] == STATUS_OK
    assert node.counters.samples_produced == 0
    assert sum(node.counters.measurements.values()) == 0


def test_out_of_bounds_read_reports_file_access_error():
    node = make_node()
    node.on_downlink(read_command(NODE_CONFIG_FILE, 0, 13), 5.0)
    actions = sent_actions(node)
    assert [a.payload[0] for a in actions] == [STATUS_FILE_ACCESS_ERROR]


def test_out_of_bounds_config_write_changes_nothing():
    node = make_node(rate_s=600)
    before = node.files.raw(NODE_CONFIG_FILE)
    # the range covers the action byte, so a partial write would measure
    node.on_downlink(write_command(NODE_CONFIG_FILE, 3, b"\xAA" * 10), 5.0)
    actions = sent_actions(node)
    assert [a.payload[0] for a in actions] == [STATUS_FILE_ACCESS_ERROR]
    assert node.files.raw(NODE_CONFIG_FILE) == before
    assert node.config == NodeConfig.from_bytes(before)
    assert sum(node.counters.measurements.values()) == 0


def test_malformed_downlink_reports_status():
    node = make_node()
    node.on_downlink(b"\x99garbage", 5.0)
    actions = sent_actions(node)
    assert [a.payload[0] for a in actions] == [STATUS_MALFORMED_COMMAND]
    assert node.counters.command_errors == 1


def test_sample_timer_without_a_driver_for_the_sensor_type_reports_it():
    config = NodeConfig(sensor_type=int(SensorKind.WEATHER_STATION),
                        sampling_rate=60)
    node = SensorNode(uid=1, config=config,
                      drivers={int(SensorKind.SOIL_TEMPERATURE): soil_driver()})
    node.boot(0.0)
    # the boot's reload finds no driver for the type, and so does each timer
    assert [a.payload[0] for a in sent_actions(node)] == [
        STATUS_UNKNOWN_SENSOR_TYPE]
    for now_s in (60.0, 120.0):
        node.on_sample_timer(now_s)
        assert [a.payload[0] for a in sent_actions(node)] == [
            STATUS_UNKNOWN_SENSOR_TYPE]
    assert node.counters.samples_produced == 0
    assert sum(node.counters.measurements.values()) == 0
    assert len(node.buffer) == 0


def test_dropped_reading_lands_in_flash():
    node = make_node()
    node.on_sample_timer(60.0)
    uplink = node.drain_outbox()[0]
    node.on_uplink_result(uplink, delivered=False, now_s=60.0)
    assert len(node.buffer) == 1
    assert node.buffer[0] is uplink.records[0]
    assert node.counters.records_delivered == 0


def test_delivered_reading_flushes_backlog():
    node = make_node()
    node.on_sample_timer(60.0)
    first = node.drain_outbox()[0]
    node.on_uplink_result(first, delivered=False, now_s=60.0)
    node.on_sample_timer(120.0)
    second = node.drain_outbox()[0]
    node.on_uplink_result(second, delivered=True, now_s=120.0)
    flush = node.drain_outbox()
    assert len(flush) == 1
    assert flush[0].kind is UplinkKind.FLUSH
    assert flush[0].records == (first.records[0],)
    node.on_uplink_result(flush[0], delivered=True, now_s=121.0)
    assert len(node.buffer) == 0
    assert node.counters.records_delivered == 2


def test_flush_failure_keeps_records_spooled():
    node = make_node()
    node.on_sample_timer(60.0)
    reading = node.drain_outbox()[0]
    node.on_uplink_result(reading, delivered=False, now_s=60.0)
    node.on_sample_timer(120.0)
    delivered = node.drain_outbox()[0]
    node.on_uplink_result(delivered, delivered=True, now_s=120.0)
    flush = node.drain_outbox()[0]
    node.on_uplink_result(flush, delivered=False, now_s=121.0)
    # the batch stays at the head of the buffer, not duplicated
    assert len(node.buffer) == 1
    assert node.counters.records_delivered == 1


def spool(node: SensorNode, count: int) -> None:
    """Sample ``count`` times a minute apart, each reading lost to flash."""
    for i in range(count):
        node.on_sample_timer(60.0 * (i + 1))
        uplink = node.drain_outbox()[0]
        node.on_uplink_result(uplink, delivered=False, now_s=60.0 * (i + 1))


def flush_after(node: SensorNode, count: int):
    """Spool ``count`` records, then deliver a fresh reading: the flush
    frame it sets off."""
    spool(node, count)
    now_s = 60.0 * (count + 1)
    node.on_sample_timer(now_s)
    node.on_uplink_result(node.drain_outbox()[0], delivered=True, now_s=now_s)
    return node.drain_outbox()[0]


def test_flash_overflow_counts_overwritten():
    node = make_node()
    spool(node, 257)
    assert len(node.buffer) == FLASH_CAPACITY_RECORDS == 256
    assert node.counters.records_overwritten == 1


def test_flush_takes_one_batch_of_a_longer_backlog():
    flush = flush_after(make_node(), 10)
    assert len(flush.records) == FLUSH_BATCH_RECORDS == 8


def test_flush_batch_respects_uplink_frame_budget():
    # a soil record is 10 bytes + 10 bytes of action header: two fit in
    # 45 bytes and fill 40 exactly
    for limit in (45, 40):
        node = make_node()
        node.max_uplink_bytes = limit  # as a simulator sets its site's limit
        flush = flush_after(node, 6)
        assert len(flush.payload) <= limit
        assert len(flush.records) == 2


def test_reset_clears_outbox_keeps_flash_and_config():
    node = make_node(rate_s=600)
    node.on_sample_timer(600.0)
    spooled = node.drain_outbox()[0]
    node.on_uplink_result(spooled, delivered=False, now_s=600.0)
    node.on_downlink(write_command(NODE_CONFIG_FILE, 4,
                                   (120).to_bytes(4, "little")), 601.0)
    node.inject_hang()
    assert node.hung
    node.reset(700.0)
    assert not node.hung
    assert node.outbox == type(node.outbox)()
    assert len(node.buffer) == 1
    assert node.config.sampling_rate == 120
    assert node.next_sample_at == 820.0
    assert node.counters.resets == 1


def test_watchdog_pet_moves_deadline():
    node = make_node()
    assert node.watchdog_deadline == WATCHDOG_PERIOD_S == 120.0
    node.notify_activity(50.0)
    assert node.watchdog_deadline == 170.0
    node.inject_hang()
    node.notify_activity(60.0)
    assert node.watchdog_deadline == 170.0  # a hung node cannot pet


def test_constructor_rejects_subsecond_rate():
    config = NodeConfig(sensor_type=1, sampling_rate=0)
    with pytest.raises(ConfigError):
        SensorNode(uid=1, config=config, drivers={})
