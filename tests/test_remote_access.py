"""Backend-initiated file access across the simulated network."""

import pytest

from geowsn.alp import NODE_CONFIG_FILE, SENSOR_DATA_FILE, STATUS_FILE_ACCESS_ERROR
from geowsn.backend import (
    Backend,
    BackendError,
    DownlinkTooLargeError,
    NodeUnknownError,
    RequestInFlightError,
    RequestTimeoutError,
)
from geowsn.netsim import LinkModel, Simulator
from geowsn.node import (
    ConstantSignal,
    NodeConfig,
    SensorKind,
    SensorNode,
    SensorReading,
    SignalDriver,
)


def wire_up(loss: float = 0.0, duration_s: float = 600.0, rate_s: int = 300,
            max_payload: int = 256):
    sim = Simulator(seed=5, duration_s=duration_s)
    sim.add_site("north", LinkModel(loss_probability=loss, latency_ms=20.0,
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
    before = len(backend.sink.records)
    data = backend.remote_read_file(42, SENSOR_DATA_FILE, 0, 10,
                                    timeout_s=30.0)
    # the read woke the sensor; the fresh record answers the request
    # and reaches the sink too
    assert node.counters.samples_produced == 1
    reading = SensorReading.from_bytes(data)
    assert reading.values_milli == (4200,)
    assert len(backend.sink.records) == before + 1
    # the stale pre-read slice (all zeros) is still in the air when the
    # fresh record answers; once it lands it is not a decodable record
    # and must surface in quarantine rather than vanish
    sim.run_until(lambda: len(backend.quarantine) == 1,
                  deadline_ms=int(sim.now_s * 1000) + 5000)
    assert len(backend.quarantine) == 1


def test_remote_read_times_out_on_dead_link():
    sim, backend, node = wire_up(loss=1.0)
    with pytest.raises(RequestTimeoutError):
        backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 12, timeout_s=5.0)
    # the slot frees up for a later retry
    with pytest.raises(RequestTimeoutError):
        backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 12, timeout_s=5.0)


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
    s = log.summary
    assert s["records_produced"] == 2
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
        with pytest.raises(BackendError) as caught:
            backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 12)
        assert not isinstance(caught.value, RequestInFlightError)
    with pytest.raises(BackendError) as caught:
        backend.remote_write_file(42, NODE_CONFIG_FILE, 0, b"\x01")
    assert not isinstance(caught.value, RequestInFlightError)


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


def test_duplicate_in_flight_request_rejected():
    backend = Backend(directory={42: {"site_id": "north"}})
    caught = {}

    class Reentrant:
        """Transport stub whose wait loop issues a second request, the
        way a callback-driven backend might."""

        now_ms = 0
        sites = ()

        def set_forwarder(self, site_id, forwarder):
            pass

        def queue_downlink(self, node_uid, payload, ttl_s=60.0):
            pass

        def run_until(self, predicate, deadline_ms=None):
            if "error" not in caught:
                try:
                    backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 12,
                                             timeout_s=1.0)
                except RequestInFlightError as exc:
                    caught["error"] = exc
            return False

    backend.attach_transport(Reentrant())
    with pytest.raises(RequestTimeoutError):
        backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 12, timeout_s=1.0)
    assert isinstance(caught.get("error"), RequestInFlightError)


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
