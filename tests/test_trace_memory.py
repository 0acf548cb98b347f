"""Memory taken by loading and analysing a long temperature trace.

``load_temperature_trace`` appends each chunk of rows to its transects'
columns, which grow in place, so it holds one copy of the trace and one
chunk of text.  ``analyze_trace`` works on one transect at a time, so
beyond the loaded series it holds the per-sample arrays of a single
transect.  This harness writes a synthetic 200,000-row trace (four
transects, 10-minute samples) and measures with ``tracemalloc`` the peak
allocated above the baseline while each runs:

- the load's peak, as a share of the ``nbytes`` of the arrays it returns,
  fails above ``MAX_LOAD_SHARE``;
- the analysis's peak, in float64 columns of the longest transect, fails
  above ``MAX_ANALYSIS_COLUMNS``;
- a label of ``LONG_LABEL_CHARS`` characters in the first chunk of a
  shorter trace fails if it adds more than ``MAX_LONG_LABEL_BYTES`` to
  that load's peak.

It also times the load of the trace and of a copy whose first transect
is named ``Grændalur``: a non-ASCII label keeps a chunk on numpy's
reader, so the two should take about as long.  With them it prints the
load's rows per second and the time of one analysis of the loaded
trace.  Times are printed, never gated.

    PYTHONPATH=src python tests/test_trace_memory.py

prints the figures as JSON.
"""

import json
import math
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from geowsn.energy import default_stack, default_teg
from geowsn.feasibility import (TRACE_HEADER, analyze_trace,
                                load_temperature_trace)

TRANSECTS = ("T1", "T2", "T3", "T4")
STEPS = 50_000
RENAMED = "Grændalur"

#: ceiling on the load's peak above baseline, as a share of its output
MAX_LOAD_SHARE = 1.25
#: ceiling on the analysis's peak above the loaded series, in float64
#: columns of the longest transect
MAX_ANALYSIS_COLUMNS = 6
#: a label about as long as a csv field may be
LONG_LABEL_CHARS = 100_000
#: what that label may add to a load's peak: one chunk read by the csv
#: module and a few copies of its line.  A label field as wide as the
#: label would take 4 bytes a character for each row of a chunk, 1.6 GB
MAX_LONG_LABEL_BYTES = 2**21 + 8 * LONG_LABEL_CHARS


def write_trace(path: Path, names=TRANSECTS, steps: int = STEPS) -> Path:
    """Seeded temperatures in whole hundredths of a degree, soil from -5
    to 15 degC and air from -20 to 40 degC, in logger order (every
    transect per timestamp)."""
    rng = np.random.default_rng(21)
    text = [repr(centi / 100) for centi in range(-2000, 4000)]
    soil = rng.integers(1500, 3500, (steps, len(names))).tolist()
    air = rng.integers(0, 6000, (steps, len(names))).tolist()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(TRACE_HEADER) + "\n")
        handle.writelines(
            f"{1609459200 + 600 * k},{name},{text[soil[k][j]]},"
            f"{text[air[k][j]]}\n"
            for k in range(steps) for j, name in enumerate(names))
    return path


def peak_above_baseline(call):
    """``call()``'s result and the peak bytes it allocated beyond what
    was live before it."""
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - baseline


def trace_memory() -> dict:
    with tempfile.TemporaryDirectory() as work:
        path = write_trace(Path(work) / "t.csv")
        series, load_peak = peak_above_baseline(
            lambda: load_temperature_trace(path))
    output_bytes = sum(column.nbytes for s in series.values()
                       for column in (s.timestamps, s.t_soil_c, s.t_air_c))
    _, analysis_peak = peak_above_baseline(
        lambda: analyze_trace(series, default_stack(), default_teg(),
                              node_power_w=4e-4))
    column_bytes = 8 * max(map(len, series.values()))
    return {
        "rows": sum(map(len, series.values())),
        "output_bytes": output_bytes,
        "load_peak_bytes": load_peak,
        "load_peak_share": load_peak / output_bytes,
        "analysis_peak_bytes": analysis_peak,
        "analysis_peak_columns": analysis_peak / column_bytes,
    }


def seconds(repeats: int = 7) -> dict:
    """Best wall time of ``repeats`` loads of the trace, and of the trace
    with its first transect renamed, the two loads taken in turn; the
    first load's rows per second; and the best time of ``repeats``
    analyses of the loaded trace."""
    times = {"load_s_ascii": math.inf, "load_s_renamed": math.inf,
             "analyze_s": math.inf}
    with tempfile.TemporaryDirectory() as work:
        path = write_trace(Path(work) / "t.csv")
        renamed = Path(work) / "renamed.csv"
        renamed.write_text(path.read_text(encoding="utf-8").replace(
            f",{TRANSECTS[0]},", f",{RENAMED},"), encoding="utf-8")
        for _ in range(repeats):
            for key, trace in (("load_s_ascii", path),
                               ("load_s_renamed", renamed)):
                started = time.perf_counter()
                series = load_temperature_trace(trace)
                times[key] = min(times[key], time.perf_counter() - started)
    rows = sum(map(len, series.values()))
    for _ in range(repeats):
        started = time.perf_counter()
        analyze_trace(series, default_stack(), default_teg(),
                      node_power_w=4e-4)
        times["analyze_s"] = min(times["analyze_s"],
                                 time.perf_counter() - started)
    times["renamed_over_ascii"] = (times["load_s_renamed"]
                                   / times["load_s_ascii"])
    times["load_rows_per_s"] = rows / times["load_s_ascii"]
    return times


def test_a_trace_is_loaded_and_analysed_in_bounded_memory():
    figures = trace_memory()
    assert figures["rows"] == len(TRANSECTS) * STEPS
    assert figures["load_peak_share"] <= MAX_LOAD_SHARE, figures
    assert figures["analysis_peak_columns"] <= MAX_ANALYSIS_COLUMNS, figures


def test_one_long_label_widens_no_later_chunk():
    with tempfile.TemporaryDirectory() as work:
        plain = write_trace(Path(work) / "plain.csv", steps=STEPS // 5)
        header, body = plain.read_text(encoding="utf-8").split("\n", 1)
        long = Path(work) / "long.csv"
        long.write_text(f"{header}\n0,{'L' * LONG_LABEL_CHARS},1,1\n{body}",
                        encoding="utf-8")
        _, plain_peak = peak_above_baseline(
            lambda: load_temperature_trace(plain))
        series, long_peak = peak_above_baseline(
            lambda: load_temperature_trace(long))
    assert len(series) == len(TRANSECTS) + 1
    assert long_peak - plain_peak <= MAX_LONG_LABEL_BYTES, (long_peak,
                                                            plain_peak)


if __name__ == "__main__":
    json.dump({**trace_memory(), **seconds()}, sys.stdout, indent=1)
    print()
