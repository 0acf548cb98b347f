"""Run logs pinned against stored hashes, not only against another run
in the same process.  A refactor that changes one byte of the bundled
scenario's log, or where a hung node is reset, fails here."""

import contextlib
import hashlib
import random

import pytest

from geowsn.backend import Backend, RequestTimeoutError
from geowsn.cli import main
from geowsn.node import WATCHDOG_PERIOD_MS
from geowsn.scenario import (
    build_simulator,
    default_scenario,
    node_directory,
    parse_scenario,
)

SEED = 4021

#: bundled scenario, seed 4021: (days, rows, stable_hash, hash_per_node)
GOLDEN_RUNS = [
    (1, 25_621,
     "de5eb9ca7b84eca05bbc1c5480898a1c35fa392ca94d54308192ef6a62500d6c",
     "960eeb766be0996a469befc48d9a5f3fe3361a9e2291e81d5ea37ace01275544"),
    (7, 178_231,
     "28e57c24ef78cbf42c3d6757886edab953b92cd6b0a1147e3e98a0e1cce6d8b6",
     "7f792fc841cd0a6a4ea7a02ce88f11dc75a94fbeb3fb9e6ffbea0c78d18e11d7"),
]

HANG_RUN_S = 6 * 3600
SAMPLE_PERIOD_MS = 600_000

#: seed of a hang set -> hash_per_node of its run, computed with the
#: per-tick watchdog (a WatchdogCheck event every period for every node)
#: after dropping its WatchdogCheck ok and pending rows
HANG_SET_HASHES = {
    1: "2c6fbb1170221bada60039e19fa1cf66a27d78f0ecd1566b60ce8c0247506c9b",
    2: "bedaab4823bd185225e84407b98dd56639516b86f8e6c7bc7e9ad03bba4d1858",
    3: "b2b135d9c4ced7528bf1897856fb56733f74e360ce775efcd5d07ae4dea2047f",
    4: "3857369d7e82b38daad4485d98bfdfd9734fe2fd1d37efc67d77657a804e5387",
    5: "c98afafed73ed142db68ffc67639b3b7dcc062fb0885b0d3ac226aeded23e8dd",
    6: "153905d832e0e6b21e35384cfbb596f8c0d9ba943ee956e80e17aff18ffae9fb",
    7: "4c6d9b95f7f261e803b8dcae2f6e6787d6998d1fa81d921f3f75f78fed87b4e3",
    8: "1d18b74dd6c3e2263a064efb1d35cd119d4e9ec0f89da62fa0d2ed374d6cde3c",
    9: "01e6b9f7cc2de12bc284bd1d270c15cece4aacb8691d257ab08faba5363c17c0",
    10: "7062a556e37941fe2e52ee4853be2eb0fd1fa9ab51bb1d2687edfd975bb283f4",
}


@pytest.mark.parametrize("days, rows, digest, per_node", GOLDEN_RUNS,
                         ids=["1-day", "7-day"])
def test_bundled_scenario_log_is_pinned(days, rows, digest, per_node):
    config = default_scenario()
    assert config.seed == SEED
    log = build_simulator(config.with_duration(days * 86400)).run()
    assert len(log.rows) == rows
    assert hash_per_node(log.rows, log.summary) == per_node
    assert log.stable_hash() == digest


def hang_set(seed: int, uids: list[int], duration_ms: int) -> list[tuple[int, int]]:
    """A few (uid, at_ms) hangs on a small pool of nodes, so some hit a
    node twice.  Times are arbitrary ms, exact watchdog periods, one ms
    either side of a sample, or within a period of an earlier hang of
    the same node, which may find it still hung."""
    rng = random.Random(seed)
    pool = rng.sample(uids, 3)
    hangs = []
    for _ in range(rng.randint(3, 8)):
        form = rng.randrange(4 if hangs else 3)
        if form == 3:
            uid, at = rng.choice(hangs)
            hangs.append((uid, at + rng.randrange(1, WATCHDOG_PERIOD_MS)))
            continue
        if form == 0:
            at = rng.randrange(duration_ms)
        elif form == 1:
            at = WATCHDOG_PERIOD_MS * rng.randrange(duration_ms // WATCHDOG_PERIOD_MS)
        else:
            at = (SAMPLE_PERIOD_MS * rng.randrange(1, duration_ms // SAMPLE_PERIOD_MS)
                  + rng.choice((-1, 1)))
        hangs.append((rng.choice(pool), at))
    return hangs


def hash_per_node(rows, summary) -> str:
    """Log rows grouped per node in log order, then the summary.  Two
    nodes reset in the same ms may log in either order; each node's own
    sequence may not change."""
    by_node: dict[int, list[str]] = {}
    for at, kind, uid, detail in rows:
        by_node.setdefault(uid, []).append(f"{at},{kind},{uid},{detail}")
    lines = [line for uid in sorted(by_node) for line in by_node[uid]]
    lines.extend(f"# {key}={value}" for key, value in summary.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run_hang_set(seed: int):
    sim = build_simulator(default_scenario().with_duration(HANG_RUN_S))
    for uid, at_ms in hang_set(seed, list(sim.node_uids), HANG_RUN_S * 1000):
        sim.inject_hang(uid, at_s=at_ms / 1000)
    return sim.run()


@pytest.mark.parametrize("seed", sorted(HANG_SET_HASHES))
def test_hang_sets_reset_where_the_per_tick_watchdog_did(seed):
    log = run_hang_set(seed)
    assert log.summary["resets"] > 0
    assert hash_per_node(log.rows, log.summary) == HANG_SET_HASHES[seed]


#: one scripted remote-access run on the bundled 1-day scenario, in the
#: style of criterion 7: per node, trigger a measurement through config
#: byte 3, read the config back and clear the byte; then read one node's
#: data file, which answers with the reading the config write triggered
REMOTE_OPS_NODES = (1001, 2013, 3026)
REMOTE_OPS_ANSWERS = [
    0, "010000aa5802000000000000", 0,
    0, "020000aa5802000000000000", 0,
    0, "030000aa5802000000000000", 0,
    "010000000101b80b0000",
]
REMOTE_OPS_NOW_MS = 10_018
REMOTE_OPS_RUN = (
    25_669, "f59631e6615c570133745b731bc67340eddff2acb49e6ec068b35d30c19f4a1f")
#: sink records, quarantined, ingested
REMOTE_OPS_BACKEND = (8_583, 0, 8_279)


def test_scripted_remote_access_run_is_pinned():
    config = default_scenario()
    sim = build_simulator(config)
    backend = Backend(directory=node_directory(config))
    backend.attach_transport(sim)
    sim.start()
    answers = []
    for uid in REMOTE_OPS_NODES:
        answers.append(backend.remote_write_file(uid, 0x41, 3, b"\xAA"))
        answers.append(backend.remote_read_file(uid, 0x41, 0, 12).hex())
        answers.append(backend.remote_write_file(uid, 0x41, 3, b"\x00"))
    answers.append(backend.remote_read_file(1001, 0x40, 0, 10).hex())
    assert answers == REMOTE_OPS_ANSWERS
    assert sim.now_ms == REMOTE_OPS_NOW_MS
    log = sim.run()
    assert (len(log.rows), log.stable_hash()) == REMOTE_OPS_RUN
    assert (len(backend.sink.records), len(backend.quarantine),
            backend.ingested) == REMOTE_OPS_BACKEND


#: uid -> (rows, stable_hash) of an hour of one node with that uid on a
#: lossy link, with a hang and three remote reads (one times out for the
#: largest uid): the uids at the top of the 64-bit range
LARGE_UID_RUNS = {
    2**63: (201, "73651d1306b2717504e40a04042340348fe9a212e6f5e4cdd2a15bfd7c3fa091"),
    2**64 - 1: (202, "63a2979caf156d1b2542753767119d0d73bf6e3d2980bf79f2163c1a238fc7f2"),
}


@pytest.mark.parametrize("uid", LARGE_UID_RUNS, ids=["2**63", "2**64-1"])
def test_a_node_with_a_uid_above_int64_runs_as_pinned(uid):
    config = parse_scenario({"seed": 11, "duration_s": 3600, "sites": [{
        "site_id": "north", "link": {"loss_probability": 0.2, "latency_ms": 20},
        "nodes": [{"uid": uid, "transect": "E", "sensor_type": "soil_temperature",
                   "sampling_rate_s": 60,
                   "trace": {"kind": "constant", "value": 4.0}}]}]})
    sim = build_simulator(config)
    backend = Backend(directory=node_directory(config))
    backend.attach_transport(sim)
    sim.inject_hang(uid, at_s=1800.0)
    for _ in range(3):
        with contextlib.suppress(RequestTimeoutError):
            backend.remote_read_file(uid, 0x41, 0, 12)
    log = sim.run()
    assert (len(log.rows), log.stable_hash()) == LARGE_UID_RUNS[uid]
    assert {uid} == {row_uid for _, _, row_uid, _ in log.rows}


#: SHA-256 of what ``geowsn sim-run`` prints for the bundled scenario, one
#: ``\n`` after each line, without the ``scenario:`` and ``outputs:`` lines
#: (they hold paths): the counters and the battery table
SIM_RUN_STDOUT = (
    "1b9d1077a7bc0b0cf72583ece4675ef8f28401651ee4d5e8e3bfef6fbd1b2443")


def test_sim_run_stdout_is_pinned(capsys, tmp_path):
    assert main(["sim-run", "--out", str(tmp_path)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith(("scenario:", "outputs:"))]
    text = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(text.encode()).hexdigest() == SIM_RUN_STDOUT


#: SHA-256 of the ``readings.csv`` that ``geowsn sim-run`` writes for the
#: bundled scenario: the header and 8,578 sink rows
SIM_RUN_READINGS = (
    "a3d5034172c78fa8d53269ac2e9a9c182c4d91b9100fc129c7b311c18c38393c")


def test_sim_run_readings_csv_is_pinned(capsys, tmp_path):
    assert main(["sim-run", "--out", str(tmp_path)]) == 0
    data = (tmp_path / "readings.csv").read_bytes()
    assert data.count(b"\n") == 1 + 8_578
    assert hashlib.sha256(data).hexdigest() == SIM_RUN_READINGS


#: 30 days at 10 min of three transects in logger order, 12,960 rows:
#: 4,096-row chunks end mid-day, and one label is not ASCII
FEAS_TRANSECTS = ("GO", "Grændalur", "RE")
FEAS_START_UNIX = 1609459200        # 2021-01-01T00:00:00Z
FEAS_STEPS = 30 * 144
#: SHA-256 of the report of ``feas-analyze --node-power-mw 0.4`` on it
FEAS_REPORT = (
    "2843f76f64c969af4e4e825de79406bfbbbe7d05d32bfad28709da10e4fdf21d")


def write_feas_trace(path):
    """Temperatures in whole hundredths of a degree from integer
    arithmetic and a seeded ``random.Random``, written with ``repr``: the
    same bytes on every platform.  Air swings 8 degC a day; soil swings
    less around a per-transect offset, so the gradient of ``GO`` changes
    sign daily."""
    rng = random.Random(SEED)
    lines = ["timestamp_unix,transect,t_soil_c,t_air_c\n"]
    for step in range(FEAS_STEPS):
        # a triangle wave over the day's 144 samples, 0..72..0
        phase = abs(step % 144 - 72)
        for offset, transect in enumerate(FEAS_TRANSECTS):
            air = 100 + 11 * phase + rng.randrange(-120, 121)
            soil = 400 + 300 * offset + 2 * phase + rng.randrange(-10, 11)
            lines.append(f"{FEAS_START_UNIX + 600 * step},{transect},"
                         f"{soil / 100!r},{air / 100!r}\n")
    path.write_text("".join(lines), encoding="utf-8")
    return len(lines) - 1


def test_feas_analyze_report_is_pinned(tmp_path):
    trace = tmp_path / "trace.csv"
    assert write_feas_trace(trace) == 12_960
    report = tmp_path / "report.csv"
    assert main(["feas-analyze", "--trace", str(trace), "--out", str(report),
                 "--node-power-mw", "0.4"]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == FEAS_REPORT
