"""Backend-initiated file access across the simulated network."""

import struct

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from geowsn.alp import (
    NODE_CONFIG_FILE,
    SENSOR_DATA_FILE,
    STATUS_FILE_ACCESS_ERROR,
    AlpAction,
    Opcode,
    decode_command,
    encode_command,
)
from geowsn.backend import (
    Backend,
    BackendError,
    DownlinkTooLargeError,
    NodeUnknownError,
    RequestTimeoutError,
)
from geowsn.netsim import LinkModel, Simulator, book_problems
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
            max_payload: int = 256, latency_ms: int = 20, seed: int = 5):
    sim = Simulator(seed=seed, duration_s=duration_s)
    sim.add_site("north", LinkModel(loss_probability=loss,
                                    latency_ms=latency_ms,
                                    max_payload=max_payload))
    node = SensorNode(
        uid=42,
        config=NodeConfig(sensor_type=1, sampling_rate=rate_s),
        drivers={1: SignalDriver(SensorKind.SOIL_TEMPERATURE,
                                 (ConstantSignal(4.2),))},
    )
    sim.add_node("north", node)
    backend = Backend(directory={42: "E"})
    backend.attach_transport(sim)
    sim.start()
    return sim, backend, node


def statuses_heard(backend) -> list:
    """The ``(envelope, action)`` of every status uplink that reaches the
    backend's bus from now on, as a second subscriber sees them."""
    heard = []

    def hear(payload, envelope):
        heard.extend((envelope, action) for action in decode_command(payload)
                     if action.opcode is Opcode.STATUS)

    backend.bus.subscribe("site/+/gw/+/up", hear)
    return heard


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
    fresh = list(backend.sink.records)[before:]
    assert len(fresh) == 1
    assert fresh[0].channel == "t_soil"
    assert fresh[0].value == 4.2
    # the reading is stamped when the command lands, one listen
    # interval after it was queued
    assert abs(fresh[0].timestamp - sim.now_ms / 1000) <= 1.0


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


def test_answers_to_commands_queued_straight_at_the_simulator_are_late():
    # a data-file read and a config read the backend did not ask for:
    # their answers carry their tickets' ids, so neither is taken for a
    # reading or an unexpected uplink
    sim, backend, node = wire_up()
    sim.run_until(lambda: False, deadline_ms=400_000)
    for action in (AlpAction.read(SENSOR_DATA_FILE, 0, 10),
                   AlpAction.read(NODE_CONFIG_FILE, 0, 4)):
        sim.queue_downlink(42, encode_command((action,)), ttl_s=60)
    sim.run()
    assert [r.timestamp for r in backend.sink.records] == [300, 401]
    assert backend.quarantine == []
    assert backend.late_answers == 2


def test_each_timeout_names_a_ticket_the_log_delivered_or_expired_once():
    sim, backend, node = wire_up(loss=0.5, duration_s=3600, seed=3)
    timed_out = []
    for _ in range(300):
        try:
            backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 4,
                                     timeout_s=2.5)
        except RequestTimeoutError as exc:
            assert str(exc) == "node 42 did not answer within 2.5 s"
            timed_out.append(exc.ticket_id)
    log = sim.run()
    still_queued = [ticket.ticket_id for ticket in sim.runtime(42).pending]
    fates: dict[int, list[str]] = {}
    for _, kind, _, detail in log.rows:
        outcome, _, ticket = detail.partition(" ticket=")
        if kind == "ListenWindow" and outcome in ("delivered", "expired"):
            fates.setdefault(int(ticket), []).append(outcome)
    assert len(set(timed_out)) == len(timed_out) > 0
    for ticket_id in timed_out:
        assert len(fates.get(ticket_id, [])) == 1 or ticket_id in still_queued
    outcomes = {fates[ticket_id][0] for ticket_id in timed_out
                if ticket_id not in still_queued}
    assert outcomes == {"delivered", "expired"}


def test_remote_read_times_out_on_dead_link():
    sim, backend, node = wire_up(loss=1.0)
    with pytest.raises(RequestTimeoutError):
        backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 12, timeout_s=5.0)
    # the slot frees up for a later retry
    with pytest.raises(RequestTimeoutError):
        backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 12, timeout_s=5.0)


def test_a_write_that_times_out_before_its_first_window_never_runs():
    sim, backend, node = wire_up()
    with pytest.raises(RequestTimeoutError):
        backend.remote_write_file(42, NODE_CONFIG_FILE, 3, b"\xAA",
                                  timeout_s=0.5)
    # the command's TTL was the timeout: it expires at the window at
    # 1000 ms, so the config never holds 0xAA and no answer comes late
    status = backend.remote_write_file(42, NODE_CONFIG_FILE, 3, b"\x01",
                                       timeout_s=30.0)
    assert status == 0
    assert node.files.raw(NODE_CONFIG_FILE)[3] == 0x01
    assert sim.now_ms == 1020
    assert backend.late_answers == 0


def test_answer_to_a_timed_out_write_resolves_nothing():
    sim, backend, node = wire_up()
    with pytest.raises(RequestTimeoutError):
        backend.remote_write_file(42, NODE_CONFIG_FILE, 3, b"\xAA",
                                  timeout_s=1.01)
    # the first write lands at 1000 ms, before its 1010 ms deadline, and
    # its answer at 1020 ms is late; only the answer to the second
    # write, a listen window later, resolves it
    assert node.files.raw(NODE_CONFIG_FILE)[3] == 0xAA
    status = backend.remote_write_file(42, NODE_CONFIG_FILE, 3, b"\x01",
                                       timeout_s=30.0)
    assert status == 0
    assert node.files.raw(NODE_CONFIG_FILE)[3] == 0x01
    assert sim.now_ms == 2020
    assert backend.late_answers == 1


def test_a_write_timed_out_on_a_lossy_link_never_changes_the_config():
    # at 80 % loss the write is still queued at its 2 s timeout; a later
    # window must not deliver it
    sim, backend, node = wire_up(loss=0.8, seed=0)
    sim.run_until(lambda: False, deadline_ms=10_000)
    with pytest.raises(RequestTimeoutError):
        backend.remote_write_file(42, NODE_CONFIG_FILE, 4,
                                  struct.pack("<I", 30), timeout_s=2)
    sim.run()
    assert node.config.sampling_rate == 300


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


@pytest.mark.parametrize("timeout_s", [float("nan"), float("inf"), 0.0, -5.0])
def test_a_bad_timeout_is_refused_before_anything_is_queued(timeout_s):
    sim, backend, node = wire_up()
    before = node.files.raw(NODE_CONFIG_FILE)
    with pytest.raises(ValueError, match="timeout_s"):
        backend.remote_write_file(42, NODE_CONFIG_FILE, 4, b"\x07\0\0\0",
                                  timeout_s=timeout_s)
    sim.run()
    assert sim.runtime(42).downlinks_queued == 0
    assert node.files.raw(NODE_CONFIG_FILE) == before
    assert node.config.sampling_rate == 300
    assert backend.late_answers == 0


def test_the_network_rejects_a_uid_it_does_not_hold():
    sim, backend, node = wire_up()
    with pytest.raises(NodeUnknownError):
        backend.remote_read_file(99, NODE_CONFIG_FILE, 0, 12)


def test_a_directory_entry_absent_from_the_network_is_unknown():
    sim, backend, node = wire_up()
    backend.directory[99] = "W"
    with pytest.raises(NodeUnknownError, match="99"):
        backend.remote_read_file(99, NODE_CONFIG_FILE, 0, 12)
    assert backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 12) == (
        node.config.to_bytes())


def test_the_site_link_limits_what_a_node_flushes():
    # the node is built with the default 256-byte limit; the 64-byte
    # link it joins holds its spooled records to one short frame each
    sim, backend, node = wire_up(loss=0.5, duration_s=3600, rate_s=60,
                                 max_payload=64)
    log = sim.run()
    assert node.max_uplink_bytes == 64
    assert book_problems(log) == []
    assert log.summary["records_produced"] == 60
    sent = [int(detail.split()[1].removeprefix("len="))
            for _, kind, _, detail in log.rows if kind == "UplinkTx"]
    assert max(sent) <= 64


def test_out_of_range_read_times_out_with_a_status_on_the_bus():
    sim, backend, node = wire_up()
    heard = statuses_heard(backend)
    with pytest.raises(RequestTimeoutError):
        backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 13, timeout_s=5.0)
    assert heard, "expected the node's error status"
    env, action = heard[-1]
    assert env.node_uid == 42


def test_reply_too_large_for_the_link_times_out_with_a_status_on_the_bus():
    # a soil reading frame is exactly 20 bytes; a 10-byte header plus
    # the 12-byte config image is not
    sim, backend, node = wire_up(max_payload=20)
    heard = statuses_heard(backend)
    with pytest.raises(RequestTimeoutError):
        backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 12, timeout_s=5.0)
    env, action = heard[-1]
    assert env.node_uid == 42
    assert action.payload == bytes([STATUS_FILE_ACCESS_ERROR])
    assert (action.file_id, action.offset, action.length) == (
        NODE_CONFIG_FILE, 0, 12)
    log = sim.run()
    assert log.summary["records_produced"] == 2
    assert book_problems(log) == []


def test_request_without_transport_leaves_no_request_in_flight():
    backend = Backend()
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
    backend = Backend()
    backend.attach_transport(sim)
    sim.start()
    # a 10-byte header plus 12 bytes of payload exceeds the link
    for _ in range(2):
        with pytest.raises(DownlinkTooLargeError):
            backend.remote_write_file(42, NODE_CONFIG_FILE, 0, bytes(12))


def test_rtc_written_near_its_top_wraps_in_the_readings():
    sim, backend, node = wire_up(duration_s=3600)
    assert backend.remote_write_file(42, NODE_CONFIG_FILE, 8,
                                     b"\xff\xff\xff\xff") == 0
    assert sim.now_ms == 1020  # set at the 1 s window, answered 20 ms later
    sim.run()
    # the u32 RTC reads 2**32 - 1 at 1 s and wraps a second later; the
    # reading taken at 3600 s is still in the air when the run ends
    stamps = [record.timestamp for record in backend.sink.records]
    assert stamps == [(2**32 - 1 + at_s - 1) % 2**32
                      for at_s in range(300, 3600, 300)]
    assert stamps[0] == 298


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
    backend = Backend()
    backend.attach_transport(sim)
    sim.start()
    image_one = backend.remote_read_file(1, NODE_CONFIG_FILE, 0, 12)
    image_two = backend.remote_read_file(2, NODE_CONFIG_FILE, 0, 12)
    assert image_one != image_two
    assert NodeConfig.from_bytes(image_one).sampling_rate == 501
    assert NodeConfig.from_bytes(image_two).sampling_rate == 502


#: a command queued straight at the simulator: any bytes, or a read or
#: write of one of the node's files or the one past them, whose offsets
#: and lengths run past the file ends; its answers reach the backend late
RAW_COMMANDS = st.one_of(
    st.binary(max_size=20),
    st.builds(lambda file_id, offset, length: encode_command(
                  (AlpAction.read(file_id, offset, length),)),
              st.integers(0x40, 0x42), st.integers(0, DATA_FILE_SIZE + 2),
              st.integers(0, DATA_FILE_SIZE + 2)),
    st.builds(lambda file_id, offset, payload: encode_command(
                  (AlpAction.write(file_id, offset, payload),)),
              st.integers(0x40, 0x42), st.integers(0, DATA_FILE_SIZE + 2),
              st.binary(max_size=10)),
)


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
    st.tuples(st.just("raw"), RAW_COMMANDS, st.none()),
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
            sim.queue_downlink(42, offset, ttl_s=timeout_s)
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
    assert book_problems(log) == []
