"""Memory taken by holding, reading, writing and hashing a run log.

A run's rows stay in memory, but its text need not: ``RunLog.write``
and ``RunLog.stable_hash`` render, encode and hash the log a bounded
chunk at a time.  This harness builds a synthetic 200,000-row log
(about 10 MB of text, the size of a week of the bundled deployment)
and measures with ``tracemalloc`` the peak allocated above the
baseline while each runs.  Either fails at a quarter of the text's
size, far below the several copies of the text that building it whole
takes.

The rows themselves are ints, held in a ``geowsn.store.Store``: per
spill a block of the time, code and number columns, each as its least
value and narrow unsigned offsets from it, and a row table that grows
with the nodes, not the rows.  A two-day run of the bundled
deployment, simulator only, is traced: what the run leaves allocated,
per log row, is gated, and so is the peak that reading every row
through ``RunLog.rows`` adds.  A one-day run with a ``Backend`` and
over a thousand remote ops, whose rows carry ticket numbers, is gated
the same way; there only what the simulator holds is counted, not the
Backend's sink.  A synthetic log whose times start past ``2**32`` ms,
after day 49.7, must hold no more per row than the same log from time
0: its times are offsets from each block's least time, not ms since
the start.

A ``Backend``'s sink holds each record in a store too: per spill a
block of timestamp and key-code offsets and a float value array, and
a key table that grows with nodes and channels.  A two-day run with a
``Backend`` is traced: what all but the simulator still holds when it
has finished, per sink record, is gated, as is the peak that taking
the length of ``CsvSink.records`` adds.  A one-day run's
``readings.csv`` must read back as its sink's records.

A block allocated in ``store.py`` belongs to the store's owner, so each
traced block is charged to the first frame of its traceback outside
``store.py``: the simulator's arrays to ``netsim.py``, the sink's to
``backend.py``.

A ``Backend`` keeps nothing of a status it was not waiting for: the
bytes it holds after ingesting many of them are gated too.

Held bytes are read with ``tracemalloc``, which does not see a tuple
taken from CPython's free list, so a figure would read lower in a
process that ran something before.  Each traced window therefore
starts with ``gc.collect()``, which empties the free lists, and a
figure reads within about 1 % whatever ran before it.  The ceilings
are set 15 % above the highest reading of this script, of this file
under ``pytest``, of the whole suite and of each test run alone.

    PYTHONPATH=src python tests/test_log_memory.py

prints the figures as JSON.
"""

import csv
import gc
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

from test_frame_cost import remote_sessions
from test_netsim import hand_log

from geowsn import netsim, store
from geowsn.alp import STATUS_OK, AlpAction, encode_command
from geowsn.backend import Backend, CsvSink, TimeSeriesRecord
from geowsn.netsim import Envelope, RunLog
from geowsn.scenario import build_simulator, default_scenario, node_directory

ROWS = 200_000

#: ceiling on the peak above baseline, as a share of the text's bytes
MAX_PEAK_SHARE = 0.25
#: simulated days of the bundled deployment whose run is traced
RUN_DAYS = 2
#: ceiling on the bytes a finished run holds per log row (a tuple per
#: row held about 105, four slots a row in a list about 60, a time and
#: code ``array('q')`` and a number ``array('q')`` about 29)
MAX_HELD_BYTES_PER_ROW = 12.0 * 1.15
#: rounds of ``test_frame_cost``'s 4-op remote session with every
#: bundled node, in a one-day run with a Backend, and the ceiling on
#: the bytes the simulator holds per log row after them (fewer rows
#: share the node tables than in the two-day run)
REMOTE_ROUNDS = 5
MAX_REMOTE_HELD_BYTES_PER_ROW = 15.1 * 1.15
#: ms past which a time no longer fits 32 bits, reached on day 49.7
LATE_MS = 2 ** 32
#: ceiling on the peak that reading every row of that run adds
MAX_READ_PEAK_BYTES = 4096
#: ceiling on the bytes a finished run with a Backend holds outside
#: the simulator per sink record (a list of named tuples held about
#: 168, a timestamp and code ``array('q')`` and an ``array('d')`` about 31)
MAX_HELD_BYTES_PER_RECORD = 19.3 * 1.15
#: ceiling on the peak that taking the sink's record count adds: a few
#: ints, where rendering the records would take over 100 bytes each
MAX_LEN_PEAK_BYTES = 256
#: unstamped status frames a Backend ingests, and the ceiling on the
#: bytes it holds afterwards beyond what it held before
STATUS_FRAMES = 10_000
MAX_STATUS_HELD_BYTES = 64 * 1024


def synthetic_log(n_rows: int = ROWS, start_ms: int = 0) -> RunLog:
    """Rows shaped like a deployment's uplink rows, one every 250 ms
    from ``start_ms``: a row code per node and uplink kind, and the
    frame length as the row's number."""
    table = [("UplinkTx", 1000 + i % 58, f"delivered len=%d kind={kind}")
             for kind in ("reading", "flush") for i in range(58)]
    rows = [(start_ms + i * 250, i % len(table), (20, 24, 29)[i % 3])
            for i in range(n_rows)]
    summary = {f"node.{1000 + i}.charge_c": repr(i / 7) for i in range(58)}
    return hand_log(table, rows, summary, {})


#: frames kept of each traced block's traceback: enough to reach the
#: store's owner from an allocation in ``store.py``
TRACE_FRAMES = 8


def held_by_simulator(snapshot: tracemalloc.Snapshot) -> tuple[int, int]:
    """Bytes of the snapshot's blocks charged to ``netsim.py``, and to
    everything else: a block is charged to the first frame of its
    traceback, most recent first, outside ``store.py``."""
    held = [0, 0]
    for trace in snapshot.traces:
        owner = next((frame.filename for frame in reversed(trace.traceback)
                      if frame.filename != store.__file__), None)
        held[owner != netsim.__file__] += trace.size
    return held[0], held[1]


def start_tracing(frames: int = 1) -> None:
    """Start ``tracemalloc`` on empty free lists, which a full
    collection leaves, so that what it sees does not depend on what
    ran before in the process."""
    gc.collect()
    tracemalloc.start(frames)


def peak_above_baseline(call) -> int:
    """Peak bytes that ``call()`` allocated beyond what was live before it."""
    start_tracing()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - baseline


def log_memory() -> dict:
    log = synthetic_log()
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "runlog.txt"
        write_peak = peak_above_baseline(lambda: log.write(path))
        text_bytes = path.stat().st_size
    hash_peak = peak_above_baseline(log.stable_hash)
    return {
        "rows": len(log.rows),
        "text_bytes": text_bytes,
        "write_peak_bytes": write_peak,
        "hash_peak_bytes": hash_peak,
        "write_peak_share": write_peak / text_bytes,
        "hash_peak_share": hash_peak / text_bytes,
    }


def late_memory() -> dict:
    """Bytes a synthetic log holds per row, from time 0 and from
    ``LATE_MS``."""
    figures = {}
    for name, start_ms in (("early", 0), ("late", LATE_MS)):
        start_tracing()
        try:
            log = synthetic_log(start_ms=start_ms)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        figures[f"{name}_held_bytes_per_row"] = held / len(log.rows)
    return figures


def run_memory() -> dict:
    """Bytes a bundled run, simulator only, holds when it has finished
    (its state built before tracing starts), and the traced peak that
    reading its rows as ``perfbench`` does adds on top."""
    sim = build_simulator(default_scenario().with_duration(RUN_DAYS * 86400))
    start_tracing()
    try:
        log = sim.run()
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        kinds: dict[str, int] = {}
        for _, kind, _, detail in log.rows:
            kinds[kind] = kinds.get(kind, 0) + 1
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(kinds.values()) == len(log.rows)
    return {
        "run_days": RUN_DAYS,
        "run_rows": len(log.rows),
        "run_held_bytes": held,
        "held_bytes_per_row": held / len(log.rows),
        "read_peak_bytes": read_peak - held,
    }


def remote_memory() -> dict:
    """Bytes that the simulator still holds when a one-day bundled run
    with a Backend has finished, after ``REMOTE_ROUNDS`` rounds of
    remote sessions."""
    config = default_scenario().with_duration(86400)
    sim = build_simulator(config)
    backend = Backend(directory=node_directory(config))
    backend.attach_transport(sim)
    start_tracing(TRACE_FRAMES)
    try:
        ops, _ = remote_sessions(sim, backend, REMOTE_ROUNDS)
        log = sim.run()
        held, _ = held_by_simulator(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    assert log.summary["downlinks_queued"] >= ops
    return {
        "remote_ops": ops,
        "remote_run_rows": len(log.rows),
        "remote_held_bytes": held,
        "remote_held_bytes_per_row": held / len(log.rows),
    }


def sink_memory() -> dict:
    """Bytes that all but the simulator still hold when a bundled run
    with a Backend has finished (its state built before tracing starts),
    and the traced peak that ``len(sink.records)`` adds."""
    config = default_scenario().with_duration(RUN_DAYS * 86400)
    sim = build_simulator(config)
    backend = Backend(directory=node_directory(config))
    backend.attach_transport(sim)
    records = backend.sink.records
    start_tracing(TRACE_FRAMES)
    try:
        sim.run()
        _, held = held_by_simulator(tracemalloc.take_snapshot())
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        len(records)
        _, len_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "sink_records": len(records),
        "sink_held_bytes": held,
        "sink_held_bytes_per_record": held / len(records),
        "sink_len_peak_bytes": len_peak - before,
    }


def status_memory() -> dict:
    """Bytes a Backend holds after ingesting ``STATUS_FRAMES`` unstamped
    status frames, beyond what it held before."""
    backend = Backend()
    frame = encode_command((AlpAction.status(STATUS_OK, 0x41, 3, 1),))
    start_tracing()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for i in range(STATUS_FRAMES):
            backend.ingest(frame, Envelope(1000 + i % 58, "gw-north", "north",
                                           i * 0.25))
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert backend.ingested == STATUS_FRAMES
    return {"status_frames": STATUS_FRAMES, "status_held_bytes": after - before}


def test_a_backend_holds_nothing_of_unasked_statuses():
    figures = status_memory()
    assert figures["status_held_bytes"] < MAX_STATUS_HELD_BYTES, figures


def test_a_finished_run_holds_few_bytes_per_log_row():
    figures = run_memory()
    assert figures["run_rows"] > 50_000, figures
    assert figures["held_bytes_per_row"] <= MAX_HELD_BYTES_PER_ROW, figures
    assert figures["read_peak_bytes"] <= MAX_READ_PEAK_BYTES, figures


def test_a_run_with_remote_ops_holds_few_bytes_per_log_row():
    figures = remote_memory()
    assert figures["remote_ops"] >= 1000, figures
    assert figures["remote_held_bytes_per_row"] <= MAX_REMOTE_HELD_BYTES_PER_ROW, \
        figures


def test_a_log_past_day_49_holds_as_few_bytes_per_row_as_one_from_day_0():
    figures = late_memory()
    assert figures["late_held_bytes_per_row"] <= MAX_HELD_BYTES_PER_ROW, figures
    assert figures["late_held_bytes_per_row"] \
        <= 1.01 * figures["early_held_bytes_per_row"], figures


def test_a_finished_run_holds_few_bytes_per_sink_record():
    figures = sink_memory()
    assert figures["sink_records"] > 10_000, figures
    assert figures["sink_held_bytes_per_record"] <= MAX_HELD_BYTES_PER_RECORD, figures
    assert figures["sink_len_peak_bytes"] <= MAX_LEN_PEAK_BYTES, figures


def test_a_runs_readings_csv_reads_back_as_its_sink_records(tmp_path):
    config = default_scenario().with_duration(86400)
    sim = build_simulator(config)
    sink = CsvSink(tmp_path / "readings.csv")
    Backend(directory=node_directory(config), sink=sink).attach_transport(sim)
    sim.run()
    sink.close()
    with open(tmp_path / "readings.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    read_back = [TimeSeriesRecord(int(stamp), site, int(uid), transect,
                                  channel, float(value), unit)
                 for stamp, site, uid, transect, channel, value, unit in rows]
    assert len(read_back) > 5000
    assert read_back == list(sink.records)


def test_writing_and_hashing_a_long_log_hold_a_bounded_share_of_its_text():
    figures = log_memory()
    assert figures["text_bytes"] > 10_000_000
    assert figures["write_peak_share"] < MAX_PEAK_SHARE, figures
    assert figures["hash_peak_share"] < MAX_PEAK_SHARE, figures


if __name__ == "__main__":
    json.dump({**log_memory(), **run_memory(), **remote_memory(),
               **late_memory(), **sink_memory(), **status_memory()},
              sys.stdout, indent=1)
    print()
