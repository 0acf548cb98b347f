"""Memory taken by writing and hashing a long run log.

A run's rows stay in memory, but its text need not: ``RunLog.write``
and ``RunLog.stable_hash`` render, encode and hash the log a bounded
chunk at a time.  This harness builds a synthetic 200,000-row log
(about 10 MB of text, the size of a week of the bundled deployment)
and measures with ``tracemalloc`` the peak allocated above the
baseline while each runs.  Either fails at a quarter of the text's
size, far below the several copies of the text that building it whole
takes.

    PYTHONPATH=src python tests/test_log_memory.py

prints the figures as JSON.
"""

import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

from geowsn.netsim import RunLog

ROWS = 200_000

#: ceiling on the peak above baseline, as a share of the text's bytes
MAX_PEAK_SHARE = 0.25


def synthetic_log(n_rows: int = ROWS) -> RunLog:
    """Rows shaped like a deployment's uplink rows, with the few shared
    detail strings a run logs."""
    details = [f"delivered len={size} kind={kind}"
               for size in (20, 24, 29) for kind in ("reading", "flush")]
    rows = [(i * 250, "UplinkTx", 1000 + i % 58, details[i % len(details)])
            for i in range(n_rows)]
    summary = {f"node.{1000 + i}.charge_c": repr(i / 7) for i in range(58)}
    return RunLog(rows, summary)


def peak_above_baseline(call) -> int:
    """Peak bytes that ``call()`` allocated beyond what was live before it."""
    tracemalloc.start()
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


def test_writing_and_hashing_a_long_log_hold_a_bounded_share_of_its_text():
    figures = log_memory()
    assert figures["text_bytes"] > 10_000_000
    assert figures["write_peak_share"] < MAX_PEAK_SHARE, figures
    assert figures["hash_peak_share"] < MAX_PEAK_SHARE, figures


if __name__ == "__main__":
    json.dump(log_memory(), sys.stdout, indent=1)
    print()
