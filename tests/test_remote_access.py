"""Backend-initiated file access across the simulated network."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from geowsn.alp import (
    NODE_CONFIG_FILE,
    SENSOR_DATA_FILE,
    STATUS_FILE_ACCESS_ERROR,
    DecodeError,
    Opcode,
    decode_command,
)
from geowsn.backend import (
    Backend,
    BackendError,
    DownlinkTooLargeError,
    NodeUnknownError,
    RequestTimeoutError,
)
from geowsn.netsim import LinkModel, Simulator
from geowsn.node import (
    DATA_FILE_SIZE,
    NODE_CONFIG_SIZE,
    ConstantSignal,
    NodeConfig,
    SensorKind,
    SensorNode,
    SensorReading,
    SignalDriver,
)


def wire_up(loss: float = 0.0, duration_s: float = 600.0, rate_s: int = 300,
            max_payload: int = 256, latency_ms: int = 20):
    sim = Simulator(seed=5, duration_s=duration_s)
    sim.add_site("north", LinkModel(loss_probability=loss,
                                    latency_ms=latency_ms,
                                    max_payload=max_payload))
    node = SensorNode(
        uid=42,
        config=NodeConfig(sensor_type=1, sampling_rate=rate_s),
        drivers={1: SignalDriver(SensorKind.SOIL_TEMPERATURE,
                                 (ConstantSignal(4.2),))},
        max_uplink_bytes=max_payload,
    )
    sim.add_node("north", node)
    backend = Backend(directory={
        42: {"site_id": "north", "transect": "E",
             "gateway_id": "gw-north"},
    })
    backend.attach_transport(sim)
    sim.start()
    return sim, backend, node


def test_remote_read_returns_exact_config_bytes():
    sim, backend, node = wire_up()
    data = backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 12,
                                    timeout_s=30.0)
    assert data == node.config.to_bytes()
    assert len(data) == 12


def test_remote_partial_read():
    sim, backend, node = wire_up()
    data = backend.remote_read_file(42, NODE_CONFIG_FILE, 4, 4,
                                    timeout_s=30.0)
    assert data == node.config.to_bytes()[4:8]


def test_remote_write_acknowledged_and_applied():
    sim, backend, node = wire_up()
    status = backend.remote_write_file(42, NODE_CONFIG_FILE, 3, b"\xAA",
                                       timeout_s=30.0)
    assert status == 0
    assert node.files.raw(NODE_CONFIG_FILE)[3] == 0xAA


def test_remote_write_triggers_reading_into_sink():
    sim, backend, node = wire_up()
    before = len(backend.sink.records)
    backend.remote_write_file(42, NODE_CONFIG_FILE, 3, b"\xAA",
                              timeout_s=30.0)
    fresh = backend.sink.records[before:]
    assert len(fresh) == 1
    assert fresh[0].channel == "t_soil"
    assert fresh[0].value == 4.2
    # the reading is stamped when the command lands, one listen
    # interval after it was queued
    assert abs(fresh[0].timestamp - sim.now_s) <= 1.0


def test_remote_read_of_data_file_yields_fresh_sample():
    sim, backend, node = wire_up()
    data = backend.remote_read_file(42, SENSOR_DATA_FILE, 0, 10,
                                    timeout_s=30.0)
    # the read woke the sensor before the first periodic sample: the
    # answer holds the zero-filled file as it was before, and the fresh
    # reading reaches the sink as a record of its own
    assert node.counters.samples_produced == 1
    assert data == bytes(10)
    assert [r.value for r in backend.sink.records] == [4.2]
    sim.run_until(lambda: False, deadline_ms=sim.now_ms + 5000)
    assert backend.quarantine == []
    assert len(backend.sink.records) == 1


def test_data_read_after_a_sample_returns_it_and_ingests_each_reading_once():
    sim, backend, node = wire_up()
    sim.run_until(lambda: len(backend.sink.records) == 1)
    held = node.files.raw(SENSOR_DATA_FILE)[:10]
    data = backend.remote_read_file(42, SENSOR_DATA_FILE, 0, 10,
                                    timeout_s=30.0)
    assert data == held
    assert SensorReading.from_bytes(data).timestamp == 300
    sim.run_until(lambda: False, deadline_ms=sim.now_ms + 5000)
    stamps = [r.timestamp for r in backend.sink.records]
    assert stamps == [300, 301]
    assert backend.quarantine == []


def test_remote_read_times_out_on_dead_link():
    sim, backend, node = wire_up(loss=1.0)
    with pytest.raises(RequestTimeoutError):
        backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 12, timeout_s=5.0)
    # the slot frees up for a later retry
    with pytest.raises(RequestTimeoutError):
        backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 12, timeout_s=5.0)


def test_answer_to_a_timed_out_write_resolves_nothing():
    sim, backend, node = wire_up()
    with pytest.raises(RequestTimeoutError):
        backend.remote_write_file(42, NODE_CONFIG_FILE, 3, b"\xAA",
                                  timeout_s=0.5)
    # the first write lands at 1000 ms and its answer is late; only the
    # answer to the second write, a listen window later, resolves it
    status = backend.remote_write_file(42, NODE_CONFIG_FILE, 3, b"\x01",
                                       timeout_s=30.0)
    assert status == 0
    assert node.files.raw(NODE_CONFIG_FILE)[3] == 0x01
    assert sim.now_ms == 2020
    assert backend.late_answers == 1


def test_timed_out_request_takes_its_timeout_in_simulated_time():
    sim, backend, node = wire_up()
    with pytest.raises(RequestTimeoutError):
        backend.remote_write_file(42, NODE_CONFIG_FILE, 3, b"\xAA",
                                  timeout_s=0.5)
    assert sim.now_ms == 500
    backend.remote_write_file(42, NODE_CONFIG_FILE, 3, b"\x01",
                              timeout_s=30.0)
    log = sim.run()
    queued = [at for at, kind, _, _ in log.rows if kind == "DownlinkQueue"]
    assert queued == [0, 500]


def test_remote_access_needs_directory_entry():
    sim, backend, node = wire_up()
    with pytest.raises(NodeUnknownError):
        backend.remote_read_file(99, NODE_CONFIG_FILE, 0, 12)


def test_out_of_range_read_times_out_with_status_logged():
    sim, backend, node = wire_up()
    with pytest.raises(RequestTimeoutError):
        backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 13, timeout_s=5.0)
    assert backend.status_log, "expected the node's error status"
    env, action = backend.status_log[-1]
    assert env.node_uid == 42


def test_reply_too_large_for_the_link_times_out_with_status_logged():
    # a soil reading frame is exactly 20 bytes; a 10-byte header plus
    # the 12-byte config image is not
    sim, backend, node = wire_up(max_payload=20)
    with pytest.raises(RequestTimeoutError):
        backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 12, timeout_s=5.0)
    env, action = backend.status_log[-1]
    assert env.node_uid == 42
    assert action.payload == bytes([STATUS_FILE_ACCESS_ERROR])
    assert (action.file_id, action.offset, action.length) == (
        NODE_CONFIG_FILE, 0, 12)
    log = sim.run()
    assert log.summary["records_produced"] == 2
    assert_books_balance(log)


def assert_books_balance(log):
    """The criterion-8 identities of a finished one-node run."""
    s = log.summary
    assert s["records_produced"] == (
        s["records_delivered"] + s["records_buffered"]
        + s["records_overwritten"])
    assert s["uplinks_attempted"] == (
        s["uplinks_delivered"] + s["uplinks_dropped"])
    assert s["downlinks_queued"] == (
        s["downlinks_delivered"] + s["downlinks_expired"]
        + s["downlinks_pending"])
    ledger_ms = [float(detail.split()[1].removeprefix("time_ms="))
                 for _, kind, _, detail in log.rows if kind == "EnergyCharge"]
    assert sum(ledger_ms) == pytest.approx(s["duration_ms"])


def test_request_without_transport_leaves_no_request_in_flight():
    backend = Backend(directory={42: {"site_id": "north"}})
    for _ in range(2):
        with pytest.raises(BackendError, match="transport"):
            backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 12)
    with pytest.raises(BackendError, match="transport"):
        backend.remote_write_file(42, NODE_CONFIG_FILE, 0, b"\x01")


def test_refused_downlink_leaves_no_request_in_flight():
    sim = Simulator(seed=5, duration_s=600.0)
    sim.add_site("north", LinkModel(max_payload=16))
    sim.add_node("north", SensorNode(
        uid=42, config=NodeConfig(sensor_type=1),
        drivers={1: SignalDriver(SensorKind.SOIL_TEMPERATURE,
                                 (ConstantSignal(4.2),))},
    ))
    backend = Backend(directory={42: {"site_id": "north"}})
    backend.attach_transport(sim)
    sim.start()
    # a 10-byte header plus 12 bytes of payload exceeds the link
    for _ in range(2):
        with pytest.raises(DownlinkTooLargeError):
            backend.remote_write_file(42, NODE_CONFIG_FILE, 0, bytes(12))


def test_two_nodes_resolve_independently():
    sim = Simulator(seed=5, duration_s=600.0)
    sim.add_site("north", LinkModel(latency_ms=20.0))
    for uid in (1, 2):
        sim.add_node("north", SensorNode(
            uid=uid,
            config=NodeConfig(sensor_type=1, sampling_rate=500 + uid),
            drivers={1: SignalDriver(SensorKind.SOIL_TEMPERATURE,
                                     (ConstantSignal(float(uid)),))},
        ))
    backend = Backend(directory={
        1: {"site_id": "north"},
        2: {"site_id": "north"},
    })
    backend.attach_transport(sim)
    sim.start()
    image_one = backend.remote_read_file(1, NODE_CONFIG_FILE, 0, 12)
    image_two = backend.remote_read_file(2, NODE_CONFIG_FILE, 0, 12)
    assert image_one != image_two
    assert NodeConfig.from_bytes(image_one).sampling_rate == 501
    assert NodeConfig.from_bytes(image_two).sampling_rate == 502


def _inert(raw: bytes) -> bool:
    """True for bytes a node executes nothing of: they do not decode, or
    hold only answers, which a node ignores."""
    try:
        command = decode_command(raw)
    except DecodeError:
        return True
    return all(action.opcode in (Opcode.RETURN_FILE_DATA, Opcode.STATUS)
               for action in command)


#: (op, offset, length or byte value); offsets and lengths run past the
#: end of each file, and a write to config byte 0 names a sensor type
#: with no driver unless its value is 1
REMOTE_OPS = st.one_of(
    st.tuples(st.just("config_read"), st.integers(0, NODE_CONFIG_SIZE + 2),
              st.integers(0, NODE_CONFIG_SIZE + 2)),
    st.tuples(st.just("config_write"), st.integers(0, NODE_CONFIG_SIZE - 1),
              st.integers(0, 255)),
    st.tuples(st.just("data_read"), st.integers(0, DATA_FILE_SIZE + 2),
              st.integers(0, 12)),
    st.tuples(st.just("data_write"), st.integers(0, DATA_FILE_SIZE + 2),
              st.integers(0, 255)),
    st.tuples(st.just("raw"), st.binary(max_size=20).filter(_inert),
              st.none()),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(loss=st.sampled_from([0.0, 0.2, 0.5]),
       max_payload=st.sampled_from([20, 24, 256]),
       latency_ms=st.integers(0, 999),
       script=st.lists(st.tuples(REMOTE_OPS, st.integers(500, 20_000)),
                       min_size=1, max_size=12))
def test_every_request_gets_its_own_answer_or_times_out(
        loss, max_payload, latency_ms, script):
    sim, backend, node = wire_up(loss=loss, max_payload=max_payload,
                                 latency_ms=latency_ms)
    for (op, offset, arg), timeout_ms in script:
        timeout_s = timeout_ms / 1000
        if op == "raw":
            sim.queue_downlink(42, offset)
            continue
        try:
            if op == "config_read":
                answer = backend.remote_read_file(
                    42, NODE_CONFIG_FILE, offset, arg, timeout_s=timeout_s)
                held = node.files.raw(NODE_CONFIG_FILE)
                assert answer == held[offset:offset + arg]
            elif op == "config_write":
                answer = backend.remote_write_file(
                    42, NODE_CONFIG_FILE, offset, bytes([arg]),
                    timeout_s=timeout_s)
                assert answer == 0
                assert node.files.raw(NODE_CONFIG_FILE)[offset] == arg
            elif op == "data_read":
                answer = backend.remote_read_file(
                    42, SENSOR_DATA_FILE, offset, arg, timeout_s=timeout_s)
                assert len(answer) == arg
            else:
                answer = backend.remote_write_file(
                    42, SENSOR_DATA_FILE, offset, bytes([arg]),
                    timeout_s=timeout_s)
                assert answer == (0 if offset < DATA_FILE_SIZE
                                  else STATUS_FILE_ACCESS_ERROR)
        except RequestTimeoutError:
            pass
    log = sim.run()
    assert backend.quarantine == []
    # a soil node's reading is one channel, ingested once at most
    assert len(backend.sink.records) <= log.summary["records_delivered"]
    assert_books_balance(log)
