"""Event queue semantics: determinism, links, windows, watchdog, energy."""

import pytest

from geowsn.alp import AlpAction, AlpCommand, NODE_CONFIG_FILE, encode_command
from geowsn.netsim import (
    LinkModel,
    PayloadTooLargeError,
    PowerProfile,
    SimulationError,
    Simulator,
    node_stream_seed,
)
from geowsn.node import (
    ConstantSignal,
    NodeConfig,
    SensorKind,
    SensorNode,
    SignalDriver,
)


def soil_node(uid: int = 1, rate_s: int = 60, **kwargs) -> SensorNode:
    return SensorNode(
        uid=uid,
        config=NodeConfig(sensor_type=1, sampling_rate=rate_s),
        drivers={1: SignalDriver(SensorKind.SOIL_TEMPERATURE,
                                 (ConstantSignal(4.0),))},
        **kwargs,
    )


def build_sim(duration_s: float = 600.0, loss: float = 0.0,
              seed: int = 7, rate_s: int = 60, latency_ms: float = 20.0,
              **node_kwargs) -> Simulator:
    sim = Simulator(seed=seed, duration_s=duration_s)
    sim.add_site("north", LinkModel(loss_probability=loss,
                                    latency_ms=latency_ms))
    sim.add_node("north", soil_node(rate_s=rate_s, **node_kwargs))
    return sim


def action_write(offset: int, payload: bytes) -> bytes:
    return encode_command(AlpCommand((
        AlpAction.write(NODE_CONFIG_FILE, offset, payload),)))


def test_node_stream_seed_is_stable():
    # frozen: sha256("11:north:1"), first 8 bytes little-endian
    assert node_stream_seed(11, "north", 1) == 5734435184458055376
    assert node_stream_seed(11, "north", 2) != node_stream_seed(11, "north", 1)
    assert node_stream_seed(12, "north", 1) != node_stream_seed(11, "north", 1)


def test_same_seed_reproduces_the_log():
    log_a = build_sim(duration_s=3600, loss=0.3).run()
    log_b = build_sim(duration_s=3600, loss=0.3).run()
    assert log_a.to_text() == log_b.to_text()
    assert log_a.stable_hash() == log_b.stable_hash()


def test_different_seed_changes_the_log():
    log_a = build_sim(duration_s=3600, loss=0.3, seed=1).run()
    log_b = build_sim(duration_s=3600, loss=0.3, seed=2).run()
    assert log_a.stable_hash() != log_b.stable_hash()


def test_lossless_link_delivers_every_uplink():
    sim = build_sim(duration_s=600, loss=0.0)
    log = sim.run()
    assert log.summary["uplinks_attempted"] == 10
    assert log.summary["uplinks_delivered"] == 10
    assert log.summary["uplinks_dropped"] == 0
    assert log.summary["records_delivered"] == 10


def test_black_hole_link_spools_readings():
    sim = build_sim(duration_s=600, loss=1.0)
    log = sim.run()
    assert log.summary["uplinks_delivered"] == 0
    assert log.summary["records_produced"] == 10
    assert log.summary["records_buffered"] == 10
    assert log.summary["records_delivered"] == 0


def test_uplink_arrival_carries_link_latency():
    sim = build_sim(duration_s=600, loss=0.0, latency_ms=250.0)
    arrivals = []
    sim.set_forwarder(
        "north",
        lambda payload, uid, gw, site, at_s, dialog: arrivals.append(at_s))
    sim.run()
    assert arrivals, "expected forwarded uplinks"
    assert arrivals[0] == pytest.approx(60.0 + 0.250)
    assert all((t * 1000 - 250) % 60000 == 0 for t in arrivals)


def test_packet_conservation_under_loss():
    log = build_sim(duration_s=7200, loss=0.4).run()
    s = log.summary
    assert s["records_produced"] > 0
    assert s["records_produced"] == (
        s["records_delivered"] + s["records_buffered"]
        + s["records_overwritten"]
    )


def test_downlink_waits_for_listen_boundary():
    sim = build_sim(duration_s=30, loss=0.0, rate_s=600)
    sim.start()
    sim.queue_downlink(1, action_write(3, b"\xAA"), ttl_s=60)
    log = sim.run()
    delivered = [row for row in log.rows
                 if row[1] == "ListenWindow" and "delivered" in row[3]]
    assert len(delivered) == 1
    # queued at t=0, the first boundary strictly after it is 1 s
    assert delivered[0][0] == 1000
    assert log.summary["downlinks_delivered"] == 1


def test_downlink_expires_after_ttl_on_dead_link():
    sim = build_sim(duration_s=120, loss=1.0, rate_s=600)
    sim.start()
    sim.queue_downlink(1, action_write(3, b"\xAA"), ttl_s=60)
    log = sim.run()
    expired = [row for row in log.rows
               if row[1] == "ListenWindow" and "expired" in row[3]]
    assert len(expired) == 1
    assert expired[0][0] == 60000
    retries = log.count("ListenWindow", detail_prefix="retry")
    assert retries == 59  # one offer per window from 1 s through 59 s
    assert log.summary["downlinks_expired"] == 1
    assert log.summary["downlinks_delivered"] == 0


def test_downlink_payload_cap_enforced():
    sim = Simulator(seed=1, duration_s=10)
    sim.add_site("north", LinkModel(max_payload=16))
    sim.add_node("north", soil_node())
    sim.start()
    with pytest.raises(PayloadTooLargeError):
        sim.queue_downlink(1, bytes(17))


def test_pending_downlink_reported_at_end():
    sim = build_sim(duration_s=30, loss=1.0, rate_s=600)
    sim.start()
    sim.queue_downlink(1, action_write(3, b"\xAA"), ttl_s=3600)
    log = sim.run()
    assert log.summary["downlinks_pending"] == 1
    assert log.summary["downlinks_expired"] == 0


def test_rate_rewrite_cancels_stale_timer():
    sim = build_sim(duration_s=40, loss=0.0, rate_s=30)
    sim.start()
    sim.queue_downlink(1, action_write(4, (5).to_bytes(4, "little")),
                       ttl_s=60)
    log = sim.run()
    stale = log.count("SampleTimer", detail_prefix="stale")
    assert stale >= 1
    # delivery at 1 s puts samples at 6, 11, ... instead of 30
    sampled = [row[0] for row in log.rows
               if row[1] == "SampleTimer" and row[3].startswith("ok")]
    assert sampled[0] == 6000
    assert sampled[1] == 11000


@pytest.mark.parametrize("rate_s, hang_s, run_first_ms, reset_ms, sniffs", [
    # last pet at the 60 s sample, so the deadline lapses at 180 s
    (60, 90.0, None, 180_000, 3510),
    # the 600 s sample pets last; the periodic check at 960 s finds the hang
    (600, 900.0, None, 960_000, 3540),
    # a hang on a periodic check comes before that check's pet
    (600, 720.0, None, 720_000, 3600),
    (600, 600.0, None, 600_000, 3600),
    (3600, 0.0, None, 120_000, 3480),
    (600, 1199.999, None, 1_200_000, 3599),
    # injected after the run has passed 700 s: the same deadline (the
    # per-tick watchdog, already holding its 720 s check, reset at 840 s)
    (600, 720.0, 700_000, 720_000, 3600),
])
def test_watchdog_resets_hung_node(rate_s, hang_s, run_first_ms, reset_ms,
                                   sniffs):
    sim = build_sim(duration_s=3600, loss=0.0, rate_s=rate_s)
    if run_first_ms is not None:
        sim.run_until(lambda: False, deadline_ms=run_first_ms)
    sim.inject_hang(1, at_s=hang_s)
    log = sim.run()
    checks = [(row[0], row[3]) for row in log.rows if row[1] == "WatchdogCheck"]
    assert checks == [(reset_ms, "reset")]
    assert log.summary["resets"] == 1
    assert log.summary["node.1.sniffs"] == sniffs
    # sampling resumes on its own cadence from the reset
    post = [row for row in log.rows if row[1] == "SampleTimer"
            and row[0] > reset_ms and row[3] == "ok"]
    assert len(post) == (3_600_000 - reset_ms) // (rate_s * 1000)


def test_energy_ledger_accounts_every_millisecond():
    profile = PowerProfile()
    sim = build_sim(duration_s=600, loss=0.0, rate_s=60)
    log = sim.run()
    rt = sim.runtime(1)
    # 10 samples of 750 ms and 10 transmissions of 60 ms
    assert rt.sample_ms == pytest.approx(7500.0)
    assert rt.tx_ms == pytest.approx(600.0)
    assert rt.sniffs == 600
    listen_ms = 600 * profile.sniff_duration_ms
    sleep_ms = 600_000 - 7500 - 600 - listen_ms
    assert rt.charges_c["Sleep"] == pytest.approx(
        profile.sleep_current_a * sleep_ms / 1000)
    assert rt.charges_c["Sampling"] == pytest.approx(
        profile.sample_current_a * 7.5)
    assert rt.charges_c["Transmitting"] == pytest.approx(
        profile.tx_current_a * 0.6)
    assert rt.charges_c["Listening"] == pytest.approx(
        profile.listen_current_a * listen_ms / 1000)
    total_ms = rt.sample_ms + rt.tx_ms + listen_ms + sleep_ms
    assert total_ms == pytest.approx(600_000)
    energy_rows = log.count("EnergyCharge", uid=1)
    assert energy_rows == 4


def test_remotely_triggered_samples_are_charged():
    sim = build_sim(duration_s=600, loss=0.0, rate_s=300)
    sim.start()
    # three measure-now round trips on config byte 3, one per window
    for value in (b"\xAA", b"\x00") * 3:
        sim.queue_downlink(1, action_write(3, value), ttl_s=60)
    sim.run()
    rt = sim.runtime(1)
    # timer samples at 300 s and 600 s plus three measured on command
    assert rt.node.counters.samples_produced == 5
    assert rt.sample_ms == 3750.0
    assert rt.charges_c["Sampling"] == pytest.approx(
        PowerProfile().sample_current_a * 3.75)


def test_hang_suspends_listening_energy():
    quiet = build_sim(duration_s=600, loss=0.0, rate_s=3600)
    quiet.run()
    baseline = quiet.runtime(1).sniffs
    hung = build_sim(duration_s=600, loss=0.0, rate_s=3600)
    hung.inject_hang(1, at_s=0.0)
    hung.run()
    # the watchdog recovers the node at 120 s; sniffing pauses until then
    assert baseline == 600
    assert hung.runtime(1).sniffs == 600 - 120


def test_mean_current_available_after_run():
    sim = build_sim(duration_s=600, loss=0.0)
    with pytest.raises(SimulationError):
        sim.mean_current_a(1)
    sim.run()
    mean_a = sim.mean_current_a(1)
    assert 0 < mean_a < 1e-3


def test_run_until_stops_at_predicate():
    sim = build_sim(duration_s=3600, loss=0.0, rate_s=60)
    sim.start()
    done = sim.run_until(
        lambda: sim.runtime(1).node.counters.samples_produced >= 3,
        deadline_ms=3_600_000,
    )
    assert done
    assert sim.runtime(1).node.counters.samples_produced == 3
    assert sim.now_ms <= 181_000


def test_log_text_shape():
    log = build_sim(duration_s=120, loss=0.0).run()
    text = log.to_text()
    lines = text.splitlines()
    assert any(line.startswith("# summary") for line in lines)
    assert any("seed=" in line for line in lines)
    event_lines = [line for line in lines if line and not line.startswith("#")]
    assert event_lines
    first_fields = event_lines[0].split(",")
    assert first_fields[0].isdigit()
    # the link was given latency_ms=20.0: arrivals stay on integer ms
    assert all(type(at) is int for at, _, _, _ in log.rows)
    assert first_fields[1] in {"SampleTimer", "UplinkTx", "UplinkArrival"}
    assert len(log.stable_hash()) == 64


def test_invalid_link_parameters_rejected():
    with pytest.raises(ValueError):
        LinkModel(loss_probability=1.5)
    with pytest.raises(ValueError):
        LinkModel(latency_ms=-1.0)
    with pytest.raises(ValueError):
        LinkModel(latency_ms=20.5)
    with pytest.raises(ValueError):
        LinkModel(max_payload=0)


def test_duplicate_site_and_node_rejected():
    sim = Simulator(seed=1, duration_s=10)
    sim.add_site("north", LinkModel())
    with pytest.raises(ValueError):
        sim.add_site("north", LinkModel())
    sim.add_node("north", soil_node(uid=5))
    with pytest.raises(ValueError):
        sim.add_node("north", soil_node(uid=5))
