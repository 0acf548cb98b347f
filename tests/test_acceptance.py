"""Acceptance gate: one test per shipping criterion, each printing a
single PASS/FAIL verdict line (run with ``pytest -s`` to see them on
success; they always appear for failures).

Every tolerance and runtime bound asserted here is part of the
criterion, not a convenience.
"""

import math
import random
import time

import numpy as np
import pytest

from geowsn.alp import (
    AlpAction,
    FileHeader,
    FileStore,
    NODE_CONFIG_FILE,
    decode_command,
    encode_command,
)
from geowsn.backend import Backend
from geowsn.energy import (
    HOURS_PER_YEAR,
    TegParams,
    battery_lifetime_hours,
    calibrate_electrical_resistance,
    default_stack,
    default_teg,
    delta_t_teg,
    r_cylinder,
    r_plate,
    teg_power,
)
from geowsn.feasibility import CONVEXITY_CAVEAT, analyze_trace, TransectSeries
from geowsn.netsim import LinkModel, Simulator, book_problems
from geowsn.node import (
    ConstantSignal,
    NodeConfig,
    SensorKind,
    SensorNode,
    SignalDriver,
)
from geowsn.scenario import build_simulator, default_scenario

# yearly mean soil-air gradients and harvested power by transect, as
# measured at the field site over one year
FIELD_MEANS = {
    "A": (1.78, 0.572e-3),
    "B": (4.31, 0.867e-3),
    "C": (15.29, 7.05e-3),
    "D": (14.99, 6.93e-3),
    "E": (29.0, 24.27e-3),
    "F": (27.3, 21.3e-3),
}


def verdict(criterion: int, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {state} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_component_resistances():
    rod = r_cylinder(0.02, 0.10, 385.0)
    plate = r_plate(0.0008, 0.04, 0.04, 385.0)
    ok = 0.815 <= rod <= 0.835 and 0.0011 <= plate <= 0.0015
    verdict(1, ok, f"rod={rod:.4f} K/W, plate={plate:.6f} K/W")


def test_criterion_2_divider_point_value():
    dt = delta_t_teg(29.0, 0.0, default_stack())
    ok = abs(dt - 14.96) <= 0.05
    verdict(2, ok, f"dT_TEG(29.0)={dt:.4f} K, expected 14.96 +/- 0.05")


def test_criterion_3_calibration_and_cross_check():
    stack = default_stack()
    dt_e, power_e = FIELD_MEANS["E"]
    r_elec = calibrate_electrical_resistance(dt_e, power_e, stack)
    parts = [abs(r_elec - 3.69) <= 0.05]
    notes = [f"r_elec={r_elec:.4f} ohm"]

    teg = TegParams(0.04, r_elec)
    for transect in ("F", "C", "D"):
        dt, field_power = FIELD_MEANS[transect]
        predicted = teg_power(delta_t_teg(dt, 0.0, stack), teg)
        error = abs(predicted - field_power) / field_power
        parts.append(error <= 0.10)
        notes.append(f"{transect} off by {error:.1%}")
    # A and B fluctuate around a small gradient; their mean gradient
    # must NOT reproduce the measured energy (convexity gap)
    for transect in ("A", "B"):
        dt, field_power = FIELD_MEANS[transect]
        predicted = teg_power(delta_t_teg(dt, 0.0, stack), teg)
        error = abs(predicted - field_power) / field_power
        parts.append(error > 0.10)
        notes.append(f"{transect} off by {error:.1%} as expected")

    series = TransectSeries("A", np.array([0, 600]),
                            np.array([3.0, 1.0]), np.array([1.0, 3.0]))
    report = analyze_trace({"A": series}, stack, teg)
    parts.append(CONVEXITY_CAVEAT in report.notes)
    notes.append("caveat attached" if CONVEXITY_CAVEAT in report.notes
                 else "caveat missing")
    verdict(3, all(parts), "; ".join(notes))


def test_criterion_4_convexity_property():
    started = time.perf_counter()
    stack = default_stack()
    teg = default_teg()
    rng = np.random.default_rng(20260822)
    worst_gap = math.inf
    for i in range(1000):
        n = int(rng.integers(24, 200))
        constant = i % 10 == 0
        if constant:
            dt = np.full(n, float(rng.uniform(-5.0, 30.0)))
        else:
            dt = rng.normal(rng.uniform(-5.0, 30.0),
                            rng.uniform(0.1, 10.0), n)
        mean_of_power = float(teg_power(delta_t_teg(dt, 0.0, stack),
                                        teg).mean())
        power_of_mean = float(teg_power(
            delta_t_teg(float(dt.mean()), 0.0, stack), teg))
        slack = 1e-12 * max(abs(power_of_mean), 1e-300)
        assert mean_of_power >= power_of_mean - slack, (
            f"trace {i}: mean(P)={mean_of_power!r} <"
            f" P(mean)={power_of_mean!r}")
        if constant:
            assert mean_of_power == pytest.approx(power_of_mean,
                                                  rel=1e-12, abs=0.0)
        else:
            assert mean_of_power > power_of_mean + slack
            worst_gap = min(worst_gap, mean_of_power - power_of_mean)
    elapsed = time.perf_counter() - started
    ok = elapsed < 5.0
    verdict(4, ok, f"1000 traces, smallest strict gap {worst_gap:.3e} W,"
                   f" {elapsed:.2f} s")


def test_criterion_5_battery_arithmetic_and_projection():
    started = time.perf_counter()
    hours = battery_lifetime_hours(19.0, 10e-6)
    parts = [abs(hours - 1.9e6) / 1.9e6 <= 1e-3]
    notes = [f"sleep-only {hours:.4g} h"]

    sim = build_simulator(default_scenario())
    sim.run()
    worst_years = min(
        battery_lifetime_hours(19.0, sim.mean_current_a(uid)) / HOURS_PER_YEAR
        for uid in sim.node_uids
    )
    parts.append(worst_years >= 3.0)
    notes.append(f"worst node {worst_years:.1f} battery years")
    elapsed = time.perf_counter() - started
    parts.append(elapsed < 1.0)
    notes.append(f"{elapsed:.2f} s")
    verdict(5, all(parts), "; ".join(notes))


def test_criterion_6_protocol_properties():
    started = time.perf_counter()
    rng = random.Random(99)

    def random_action() -> AlpAction:
        verb = rng.randrange(4)
        file_id = rng.randrange(256)
        offset = rng.randrange(1 << 32)
        if verb == 0:
            return AlpAction.read(file_id, offset, rng.randrange(1 << 32))
        if verb == 1:
            return AlpAction.write(file_id, offset,
                                   rng.randbytes(rng.randrange(33)))
        if verb == 2:
            return AlpAction.return_data(file_id, offset,
                                         rng.randbytes(rng.randrange(33)))
        return AlpAction.status(rng.randrange(256), file_id, offset,
                                rng.randrange(1 << 32))

    for _ in range(10_000):
        command = tuple(random_action() for _ in range(rng.randrange(1, 4)))
        wire = encode_command(command)
        decoded = decode_command(wire)
        assert decoded == command
        assert encode_command(decoded) == wire

    for _ in range(10_000):
        base = rng.randbytes(12)
        value = rng.randrange(256)
        store = FileStore()
        store.create(FileHeader(NODE_CONFIG_FILE, 12, persistent=True), base)
        store.write(NODE_CONFIG_FILE, 3, bytes([value]))
        after = store.raw(NODE_CONFIG_FILE)
        assert after[3] == value
        assert after[:3] == base[:3] and after[4:] == base[4:]

    elapsed = time.perf_counter() - started
    ok = elapsed < 5.0
    verdict(6, ok, f"10k roundtrips bit-exact, 10k offset-3 writes local,"
                   f" {elapsed:.2f} s")


def test_criterion_7_split_stack_remote_access():
    started = time.perf_counter()
    listen_interval_s = 1.0
    sim = Simulator(seed=77, duration_s=3600.0,
                    listen_interval_s=listen_interval_s)
    sim.add_site("north", LinkModel(loss_probability=0.0, latency_ms=20.0))
    node = SensorNode(
        uid=42,
        config=NodeConfig(sensor_type=1, sampling_rate=600),
        drivers={1: SignalDriver(SensorKind.SOIL_TEMPERATURE,
                                 (ConstantSignal(4.0),))},
    )
    sim.add_node("north", node)
    backend = Backend(directory={42: "E"})
    backend.attach_transport(sim)
    sim.start()

    queued_at = sim.now_ms / 1000
    status = backend.remote_write_file(42, NODE_CONFIG_FILE, 3, b"\xAA",
                                       timeout_s=30.0)
    readings = [r for r in backend.sink.records if r.channel == "t_soil"]
    delivery_boundary = (math.floor(queued_at / listen_interval_s) + 1) \
        * listen_interval_s
    parts = [status == 0, len(readings) == 1]
    notes = [f"status={status}", f"additional uplinks={len(readings)}"]
    if readings:
        drift = abs(readings[0].timestamp - delivery_boundary)
        parts.append(drift <= listen_interval_s)
        notes.append(f"timestamp within {drift:.2f} s of delivery")

    image = backend.remote_read_file(42, NODE_CONFIG_FILE, 0, 12,
                                     timeout_s=30.0)
    parts.append(image == node.files.raw(NODE_CONFIG_FILE))
    notes.append("config readback exact" if parts[-1]
                 else "config readback differs")
    elapsed = time.perf_counter() - started
    parts.append(elapsed < 2.0)
    notes.append(f"{elapsed:.2f} s")
    verdict(7, all(parts), "; ".join(notes))


def test_criterion_8_determinism_and_conservation():
    started = time.perf_counter()
    week = default_scenario().with_duration(7 * 86400.0)

    log_a = build_simulator(week).run()
    log_b = build_simulator(week).run()
    parts = [log_a.stable_hash() == log_b.stable_hash()]
    notes = [f"hash {log_a.stable_hash()[:16]} twice"
             if parts[0] else "hashes differ"]

    s = log_a.summary
    problems = book_problems(log_a)
    parts.append(not problems)
    notes.append(f"books of {s['records_produced']} records and {s['nodes']}"
                 " nodes balance" if not problems else "; ".join(problems))

    elapsed = time.perf_counter() - started
    parts.append(elapsed < 30.0)
    notes.append(f"{elapsed:.1f} s for two 7-day runs")
    verdict(8, all(parts), "; ".join(notes))
