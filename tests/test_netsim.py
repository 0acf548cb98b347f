"""Event queue semantics: determinism, links, windows, watchdog, energy."""

import contextlib
import hashlib
import re

import pytest
from test_store import assert_packed

from geowsn.alp import AlpAction, NODE_CONFIG_FILE, encode_command
from geowsn.backend import Backend, RequestTimeoutError
from geowsn.netsim import (
    _row,
    _row_line,
    LinkModel,
    PayloadTooLargeError,
    PowerProfile,
    RunLog,
    SimulationError,
    Simulator,
    book_problems,
    node_stream_seed,
)
from geowsn.node import (
    ConstantSignal,
    NodeConfig,
    SensorKind,
    SensorNode,
    SignalDriver,
)
from geowsn.scenario import build_simulator, default_scenario, node_directory
from geowsn.store import Store


def soil_node(uid: int = 1, rate_s: int = 60) -> SensorNode:
    return SensorNode(
        uid=uid,
        config=NodeConfig(sensor_type=1, sampling_rate=rate_s),
        drivers={1: SignalDriver(SensorKind.SOIL_TEMPERATURE,
                                 (ConstantSignal(4.0),))},
    )


def build_sim(duration_s: float = 600.0, loss: float = 0.0,
              seed: int = 7, rate_s: int = 60,
              latency_ms: float = 20.0) -> Simulator:
    sim = Simulator(seed=seed, duration_s=duration_s)
    sim.add_site("north", LinkModel(loss_probability=loss,
                                    latency_ms=latency_ms))
    sim.add_node("north", soil_node(rate_s=rate_s))
    return sim


def energy_ledger(log, uid: int = 1) -> tuple[dict, dict]:
    """Mode -> time_ms and mode -> charge_c, from one node's ledger."""
    modes = log.ledger[uid]
    return ({mode: ms for mode, ms, _ in modes},
            {mode: charge for mode, _, charge in modes})


def action_write(offset: int, payload: bytes) -> bytes:
    return encode_command((
        AlpAction.write(NODE_CONFIG_FILE, offset, payload),))


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
    sim.forwarder = (
        lambda payload, envelope: arrivals.append(envelope.rx_ms))
    sim.run()
    assert arrivals, "expected forwarded uplinks"
    assert arrivals[0] == 60_000 + 250
    assert all((t - 250) % 60_000 == 0 for t in arrivals)


def test_packet_conservation_under_loss():
    log = build_sim(duration_s=7200, loss=0.4).run()
    assert log.summary["records_produced"] > 0
    assert book_problems(log) == []


def test_downlink_waits_for_listen_boundary():
    sim = build_sim(duration_s=30, loss=0.0, rate_s=600)
    sim.start()
    sim.queue_downlink(1, action_write(3, b"\xAA"), ttl_s=60)
    log = sim.run()
    delivered = [row for row in log.rows if row[1] == "ListenWindow"
                 and row[3].split()[0] == "delivered"]
    assert len(delivered) == 1
    # queued at t=0, the first boundary strictly after it is 1 s
    assert delivered[0][0] == 1000
    assert log.summary["downlinks_delivered"] == 1


def test_downlink_expires_after_ttl_on_dead_link():
    sim = build_sim(duration_s=120, loss=1.0, rate_s=600)
    sim.start()
    sim.queue_downlink(1, action_write(3, b"\xAA"), ttl_s=60)
    log = sim.run()
    outcomes = [(at, detail.split()[0])
                for at, kind, _, detail in log.rows if kind == "ListenWindow"]
    assert [at for at, outcome in outcomes if outcome == "expired"] == [60000]
    # one offer per window from 1 s through 59 s
    assert [outcome for _, outcome in outcomes].count("retry") == 59
    assert log.summary["downlinks_expired"] == 1
    assert log.summary["downlinks_delivered"] == 0


def test_a_link_must_carry_a_status_frame():
    """A node caps every frame at its link's size but a status frame
    (a 10-byte action header and the status byte), so a smaller link is
    refused when the node is placed, not when the status is sent."""
    sim = Simulator(seed=1, duration_s=600)
    sim.add_site("tiny", LinkModel(max_payload=10))
    with pytest.raises(ValueError, match="status frame"):
        sim.add_node("tiny", soil_node())
    sim.add_site("north", LinkModel(max_payload=11))
    sim.add_node("north", soil_node())
    log = sim.run()
    sent = {detail for _, kind, _, detail in log.rows if kind == "UplinkTx"}
    assert sent == {"delivered len=11 kind=status"}  # the reading did not fit


def test_downlink_payload_cap_enforced():
    sim = Simulator(seed=1, duration_s=10)
    sim.add_site("north", LinkModel(max_payload=16))
    sim.add_node("north", soil_node())
    sim.start()
    with pytest.raises(PayloadTooLargeError):
        sim.queue_downlink(1, bytes(17))


@pytest.mark.parametrize("ttl_s", [float("inf"), float("nan"), -5.0, 0.0])
def test_queue_downlink_refuses_a_ttl_that_is_not_finite_and_positive(ttl_s):
    sim = build_sim(duration_s=30, rate_s=600)
    sim.start()
    with pytest.raises(ValueError, match="ttl_s .* must be finite and > 0"):
        sim.queue_downlink(1, action_write(3, b"\xAA"), ttl_s=ttl_s)
    log = sim.run()
    assert sim.runtime(1).downlinks_queued == 0
    assert "DownlinkQueue" not in {kind for _, kind, _, _ in log.rows}


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
    timers = [(at, detail.split()[0])
              for at, kind, _, detail in log.rows if kind == "SampleTimer"]
    assert "stale" in {outcome for _, outcome in timers}
    # delivery at 1 s puts samples at 6, 11, ... instead of 30
    sampled = [at for at, outcome in timers if outcome == "ok"]
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


@pytest.mark.parametrize("at_s", [-5.0, -0.001])
def test_inject_hang_refuses_a_time_before_start(at_s):
    sim = build_sim(duration_s=600)
    with pytest.raises(ValueError, match="before the clock at 0 ms"):
        sim.inject_hang(1, at_s=at_s)
    assert "HangInjection" not in {kind for _, kind, _, _ in sim.run().rows}


def test_inject_hang_refuses_a_time_the_clock_has_passed():
    sim = build_sim(duration_s=3600, rate_s=600)
    untouched = build_sim(duration_s=3600, rate_s=600).run()
    sim.run_until(lambda: False, deadline_ms=1_000_000)
    with pytest.raises(ValueError, match="before the clock at 1000000 ms"):
        sim.inject_hang(1, at_s=5.0)
    with pytest.raises(ValueError, match="before the clock"):
        sim.inject_hang(1, at_s=999.9994)
    log = sim.run()
    assert log.stable_hash() == untouched.stable_hash()
    # the listen boundaries the node was awake for stay counted
    assert energy_ledger(log)[0]["Listening"] == 3600 * 2.0


def test_inject_hang_at_the_clock_is_logged_in_order():
    sim = build_sim(duration_s=3600, rate_s=600)
    sim.run_until(lambda: False, deadline_ms=1_000_000)
    sim.inject_hang(1, at_s=1000.0)
    log = sim.run()
    times = [at for at, _, _, _ in log.rows]
    assert times == sorted(times)
    assert [at for at, kind, _, _ in log.rows if kind == "HangInjection"] == [
        1_000_000]
    assert log.summary["resets"] == 1


def test_inject_hang_refuses_a_finished_run():
    sim = build_sim(duration_s=600)
    digest = sim.run().stable_hash()
    with pytest.raises(SimulationError, match="run already finished"):
        sim.inject_hang(1, at_s=10.0)
    assert sim.run().stable_hash() == digest


@pytest.mark.parametrize("at_s", [float("inf"), float("-inf"), float("nan")])
def test_inject_hang_refuses_a_time_that_is_not_finite(at_s):
    sim = build_sim(duration_s=600)
    with pytest.raises(ValueError, match=f"at_s {at_s!r} must be finite"):
        sim.inject_hang(1, at_s=at_s)


def test_a_downlink_to_a_hung_node_waits_for_its_reset():
    sim = build_sim(duration_s=600, loss=0.0, rate_s=600)
    # hung from 10 s: the boot's pet was the last, so the reset is at 120 s
    sim.inject_hang(1, at_s=10.0)
    sim.run_until(lambda: False, deadline_ms=20_000)
    sim.queue_downlink(1, action_write(3, b"\xAA"), ttl_s=300)
    log = sim.run()
    windows = [(row[0], row[3]) for row in log.rows if row[1] == "ListenWindow"]
    # offered at each boundary from 21 s, heard at the first after the reset
    assert windows[:-1] == [(ms, "hung") for ms in range(21_000, 120_000, 1000)]
    assert windows[-1] == (120_000, "delivered ticket=0")
    s = log.summary
    assert (s["resets"], s["downlinks_queued"], s["downlinks_delivered"]) == (
        1, 1, 1)
    assert book_problems(log) == []


def test_energy_ledger_accounts_every_millisecond():
    profile = PowerProfile()
    sim = build_sim(duration_s=600, loss=0.0, rate_s=60)
    log = sim.run()
    time_ms, charge_c = energy_ledger(log)
    # 10 samples of 750 ms and 10 transmissions of 60 ms
    assert time_ms["Sampling"] == pytest.approx(7500.0)
    assert time_ms["Transmitting"] == pytest.approx(600.0)
    assert log.summary["node.1.sniffs"] == 600
    listen_ms = 600 * profile.sniff_duration_ms
    sleep_ms = 600_000 - 7500 - 600 - listen_ms
    assert charge_c["Sleep"] == pytest.approx(
        profile.sleep_current_a * sleep_ms / 1000)
    assert charge_c["Sampling"] == pytest.approx(
        profile.sample_current_a * 7.5)
    assert charge_c["Transmitting"] == pytest.approx(
        profile.tx_current_a * 0.6)
    assert charge_c["Listening"] == pytest.approx(
        profile.listen_current_a * listen_ms / 1000)
    assert book_problems(log) == []
    assert sim.runtime(1).charge_c == sum(charge_c.values())


def test_remotely_triggered_samples_are_charged():
    sim = build_sim(duration_s=600, loss=0.0, rate_s=300)
    sim.start()
    # three measure-now round trips on config byte 3, one per window
    for value in (b"\xAA", b"\x00") * 3:
        sim.queue_downlink(1, action_write(3, value), ttl_s=60)
    log = sim.run()
    rt = sim.runtime(1)
    time_ms, charge_c = energy_ledger(log)
    # timer samples at 300 s and 600 s plus three measured on command
    assert rt.node.counters.samples_produced == 5
    assert time_ms["Sampling"] == 3750.0
    assert charge_c["Sampling"] == pytest.approx(
        PowerProfile().sample_current_a * 3.75)
    assert rt.charge_c == sum(charge_c.values())


@pytest.mark.parametrize("hang_s, duration_s, sniffs, resets", [
    # the watchdog recovers the node at 120 s; sniffing pauses until then
    (0.0, 600, 480, 1),
    # still hung when the run ends: the boundaries from the hang are lost
    (610.0, 650, 610, 0),
    (610.5, 650, 610, 0),
])
def test_hang_suspends_listening_energy(hang_s, duration_s, sniffs, resets):
    quiet = build_sim(duration_s=duration_s, loss=0.0, rate_s=3600)
    baseline = quiet.run().summary["node.1.sniffs"]
    hung = build_sim(duration_s=duration_s, loss=0.0, rate_s=3600)
    hung.inject_hang(1, at_s=hang_s)
    log = hung.run()
    time_ms, charge_c = energy_ledger(log)
    assert baseline == duration_s
    assert log.summary["node.1.sniffs"] == sniffs
    assert log.summary["resets"] == resets
    assert hung.runtime(1).node.hung == (resets == 0)
    assert time_ms["Listening"] == sniffs * PowerProfile().sniff_duration_ms
    assert hung.runtime(1).charge_c == sum(charge_c.values())


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


def test_run_until_keeps_the_clock_on_whole_int_ms():
    sim = build_simulator(default_scenario().with_duration(3600))
    for deadline_ms in (float("nan"), float("inf"), 1e6 + 0.5):
        with pytest.raises(ValueError, match="deadline_ms .* whole number"):
            sim.run_until(lambda: False, deadline_ms=deadline_ms)
    assert sim.now_ms == 0
    sim.run_until(lambda: False, deadline_ms=1e6)
    assert type(sim.now_ms) is int and sim.now_ms == 1_000_000
    sim.queue_downlink(sim.node_uids[0], action_write(3, b"\x00"))
    log = sim.run()
    assert {"DownlinkQueue", "ListenWindow"} <= {kind for _, kind, _, _ in log.rows}
    assert all(type(at) is int for at, _, _, _ in log.rows)


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


def reference_text(log: RunLog) -> str:
    """The log text built in one piece, as the format defines it."""
    lines = [f"{at},{kind},{uid},{detail}" for at, kind, uid, detail in log.rows]
    lines.append("# summary")
    lines.extend(f"# {key}={value}" for key, value in log.summary.items())
    lines.append("")
    return "\n".join(lines)


#: rows a hand-built run log takes between two spills
HAND_SPILL_ROWS = 1024


def hand_log(table: list[tuple[str, int, str]], rows, summary: dict,
             ledger: dict) -> RunLog:
    """A run log built through the store API: the entries of ``table``
    take their codes in order, each row is ``(time_ms, code, number)``,
    and the rows are spilled ``HAND_SPILL_ROWS`` at a time."""
    store = Store("q", _row_line, _row)
    store.entries += table
    for at, row in enumerate(rows, 1):
        store.pending += row
        if not at % HAND_SPILL_ROWS:
            store.spill()
    store.spill()
    return RunLog(store, summary, ledger)


@pytest.mark.parametrize("n_rows, n_chunks", [
    (0, 1),
    (1, 2),
    (HAND_SPILL_ROWS, 2),
    (3 * HAND_SPILL_ROWS + 7, 5),
], ids=["empty", "one-row", "one-chunk", "chunks-and-a-part"])
def test_text_hash_and_file_come_from_one_rendering(tmp_path, n_rows, n_chunks):
    # per uid an uplink code, whose template holds the number, and a
    # timer code, whose template holds none; rows alternate the two
    table = [*(("UplinkTx", uid, "delivered len=%d kind=reading") for uid in range(7)),
             *(("SampleTimer", uid, "ok") for uid in range(7))]
    log = hand_log(table, [(i * 10, i % 7 + 7 * (i % 2), i % 50) for i in range(n_rows)],
                   {"seed": 3, "node.1.charge_c": "0.5"}, {})
    assert len(list(log._chunks())) == n_chunks  # the summary is the last
    text = log.to_text()
    assert text == reference_text(log)
    digest = log.write(tmp_path / "runlog.txt")
    data = (tmp_path / "runlog.txt").read_bytes()
    assert data == text.encode()
    assert digest == hashlib.sha256(data).hexdigest() == log.stable_hash()
    if n_rows > 1:
        assert text.startswith("0,UplinkTx,0,delivered len=0 kind=reading\n"
                               "10,SampleTimer,1,ok\n")


def test_rows_are_a_view_that_reads_as_the_text():
    sim = build_simulator(default_scenario().with_duration(6 * 3600))
    sim.inject_hang(sim.node_uids[0], at_s=10.0)
    log = sim.run()
    lines = log.to_text().splitlines()
    events = lines[:lines.index("# summary")]
    rows = log.rows
    assert not isinstance(rows, list)
    assert len(rows) == len(events) > 4000
    first = list(rows)
    assert first == list(rows)
    assert all(type(row) is tuple and len(row) == 4 for row in first)
    assert first == [(int(at), kind, int(uid), detail) for at, kind, uid, detail
                     in (line.split(",", 3) for line in events)]
    assert {"HangInjection", "WatchdogCheck", "EnergyCharge"} <= {
        kind for _, kind, _, _ in first}


#: each row kind with the sorted field names of a detail it logs
#: (``outcome`` is the bare word); a window logs two shapes
DETAIL_SHAPES = {
    ("SampleTimer", ("outcome",)),
    ("UplinkTx", ("kind", "len", "outcome")),
    ("UplinkArrival", ("len",)),
    ("DownlinkQueue", ("len", "ticket")),
    ("ListenWindow", ("outcome", "ticket")),
    ("ListenWindow", ("outcome",)),
    ("WatchdogCheck", ("outcome",)),
    ("ResetDone", ("outcome",)),
    ("HangInjection", ("outcome",)),
    ("EnergyCharge", ("charge_c", "mode", "time_ms")),
}


def test_energy_rows_render_the_ledger_of_a_run_that_logs_every_shape():
    """A bundled run with a hang and remote reads logs every detail shape;
    each node's EnergyCharge rows are its ledger's numbers as text, its
    ledger's charges add up to its charge, and its books balance."""
    config = default_scenario().with_duration(6 * 3600)
    sim = build_simulator(config)
    backend = Backend(directory=node_directory(config))
    backend.attach_transport(sim)
    uids = sim.node_uids
    sim.inject_hang(uids[0], at_s=10.0)
    sim.run_until(lambda: False, deadline_ms=20_000)
    # the hung node hears nothing before its read's TTL lapses
    with pytest.raises(RequestTimeoutError):
        backend.remote_read_file(uids[0], NODE_CONFIG_FILE, 0, 12)
    for i in range(200):
        with contextlib.suppress(RequestTimeoutError):
            backend.remote_read_file(uids[i % len(uids)], NODE_CONFIG_FILE, 0, 12)
    log = sim.run()
    shapes = set()
    energy_rows = {uid: [] for uid in uids}
    for _, kind, uid, detail in log.rows:
        # a field's name is what precedes its ``=``; the bare word is the outcome
        shapes.add((kind, tuple(sorted(token.rpartition("=")[0] or "outcome"
                                       for token in detail.split()))))
        if kind == "EnergyCharge":
            energy_rows[uid].append(detail)
    assert shapes == DETAIL_SHAPES
    assert energy_rows == {
        uid: [f"mode={mode} time_ms={ms!r} charge_c={charge!r}"
              for mode, ms, charge in modes]
        for uid, modes in log.ledger.items()}
    for uid in uids:
        charge_c = 0.0
        for _, _, charge in log.ledger[uid]:
            charge_c += charge
        assert charge_c == sim.runtime(uid).charge_c
    assert book_problems(log) == []


#: one node's (mode, time_ms) ledger in a run of 10 s
LEDGER = (("Sleep", 9000.0), ("Sampling", 750.0), ("Transmitting", 240.0),
          ("Listening", 10.0))


class UnreadRows:
    """Rows that fail whoever iterates them."""

    def __iter__(self):
        raise AssertionError("the books read a row")


def books(ledgers: dict[int, tuple], named=None, **totals) -> RunLog:
    """A finished 10-s run by hand, over rows that cannot be read.  The
    summary names each node of ``named`` (by default each of
    ``ledgers``) and its totals balance unless ``totals`` overrides
    them; each node's ledger is its ``(mode, time_ms)`` pairs, in order,
    each charged at 1 mA."""
    named = ledgers if named is None else named
    summary = {"seed": 0, "duration_ms": 10_000, "sites": 1,
               "nodes": len(named), "uplinks_attempted": 4,
               "uplinks_delivered": 3, "uplinks_dropped": 1,
               "downlinks_queued": 2, "downlinks_delivered": 1,
               "downlinks_expired": 1, "downlinks_pending": 0,
               "records_produced": 5, "records_delivered": 3,
               "records_buffered": 1, "records_overwritten": 1, "resets": 0,
               **totals}
    for uid in named:
        summary[f"node.{uid}.site"] = "north"
    return RunLog(UnreadRows(), summary, {
        uid: tuple((mode, time_ms, time_ms * 1e-6) for mode, time_ms in modes)
        for uid, modes in ledgers.items()})


def test_balanced_books_of_two_nodes_have_no_problem():
    # each node's mode times sum to the duration, not the nodes' together
    assert book_problems(books({1: LEDGER, 2: LEDGER})) == []


@pytest.mark.parametrize("log, problem", [
    (books({1: LEDGER, 2: LEDGER}, records_buffered=2),
     "records_produced 5 != records_delivered + records_buffered"
     " + records_overwritten = 6"),
    (books({1: LEDGER, 2: LEDGER}, uplinks_dropped=2),
     "uplinks_attempted 4 != uplinks_delivered + uplinks_dropped = 5"),
    (books({1: LEDGER, 2: LEDGER}, downlinks_pending=1),
     "downlinks_queued 2 != downlinks_delivered + downlinks_expired"
     " + downlinks_pending = 3"),
    # the times still sum to the duration, and the charge is negative too
    (books({1: LEDGER, 2: (("Sleep", -1000.0), ("Sampling", 10750.0),
                           *LEDGER[2:])}),
     "node 2 Sleep time_ms -1000.0 < 0"),
    (books({1: LEDGER, 2: (("Sleep", 9001.0), *LEDGER[1:])}),
     "node 2 mode times sum to 10001.0 ms, not 10000"),
    (books({1: LEDGER, 2: LEDGER[:3]}),
     "node 2 has 3 EnergyCharge rows, not 4"),
    (books({1: LEDGER, 2: LEDGER, 3: ()}),
     "node 3 has 0 EnergyCharge rows, not 4"),
    (books({1: LEDGER, 2: LEDGER, 9: LEDGER}, named=(1, 2)),
     "node 9 has 4 EnergyCharge rows, not 0"),
], ids=["records", "uplinks", "downlinks", "negative time", "time leak",
        "three rows", "no rows", "unnamed node"])
def test_book_problems_names_each_broken_identity_once(log, problem):
    assert book_problems(log) == [problem]


def test_a_finished_run_holds_its_rows_as_ints_and_nothing_per_row():
    sim = build_simulator(default_scenario().with_duration(86400))
    rows = sim.run().rows
    # typed arrays hold no str and no int object, one per row or not; a
    # block per spill of at most 1,024 events: a base per column and its
    # offsets in the narrowest type, each array made at its final size,
    # so none grows
    for block in rows._blocks:
        assert_packed(block, "q")
    assert sum(len(values) for *_, values in rows._blocks) == len(rows) > 20_000
    assert len(rows._blocks) < len(rows) / 100
    # the row table grows with the nodes and the shapes they logged, not
    # with the rows: 58 nodes, each with its four ledger rows and a few
    # shapes, and no rows wait outside the arrays
    assert len(rows.entries) <= 58 * (4 + 8) < len(rows) / 10
    assert rows.pending == []


def test_invalid_link_parameters_rejected():
    with pytest.raises(ValueError):
        LinkModel(loss_probability=1.5)
    with pytest.raises(ValueError):
        LinkModel(latency_ms=-1.0)
    with pytest.raises(ValueError):
        LinkModel(latency_ms=20.5)
    with pytest.raises(ValueError):
        LinkModel(max_payload=0)


@pytest.mark.parametrize("field", ["duration_s", "listen_interval_s"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), float("-inf")])
def test_simulator_refuses_a_time_that_is_not_finite(field, value):
    # rounding it to ms would raise OverflowError, or pass NaN along
    with pytest.raises(ValueError, match=field):
        Simulator(**{"duration_s": 10, field: value})


def test_simulator_refuses_a_duration_whose_ms_exceed_int64():
    # the row store keeps each row's time in a signed 64-bit slot
    with pytest.raises(ValueError, match="duration_s .* exceeds 9223372036854775807 ms"):
        Simulator(duration_s=2**63 / 1000)


def test_a_scenario_of_endless_duration_does_not_build():
    config = default_scenario().with_duration(float("inf"))
    with pytest.raises(ValueError, match="duration_s inf must be positive"):
        build_simulator(config)


@pytest.mark.parametrize("site_id", ["a/b", "a+", "#"])
def test_add_site_refuses_an_id_no_bus_topic_can_carry(site_id):
    # the gateway publishes on site/<site>/gw/gw-<site>/up, which the
    # Backend's site/+/gw/+/up cannot match for such an id
    sim = Simulator(seed=1, duration_s=10)
    with pytest.raises(ValueError, match=f"site {re.escape(repr(site_id))}"):
        sim.add_site(site_id, LinkModel())
    assert site_id not in sim.sites


def test_duplicate_site_and_node_rejected():
    sim = Simulator(seed=1, duration_s=10)
    sim.add_site("north", LinkModel())
    with pytest.raises(ValueError):
        sim.add_site("north", LinkModel())
    sim.add_node("north", soil_node(uid=5))
    with pytest.raises(ValueError):
        sim.add_node("north", soil_node(uid=5))
