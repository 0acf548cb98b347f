"""Harvest feasibility analysis over recorded temperature traces.

Takes a long soil/air temperature record per transect, pushes every
sample through the thermal stack and the matched-load power curve, and
reduces to daily and whole-window means.  The averaging order matters:
power is quadratic in the gradient, so the mean of per-sample powers
is at least the power of the mean gradient, with a large gap wherever
the gradient fluctuates around zero.  Reports therefore always carry
that caveat, and the whole-window means are means over samples, never
means of daily means.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import date
from itertools import islice
from pathlib import Path

import numpy as np

from .energy import TegParams, ThermalStack, delta_t_teg, teg_power

TRACE_HEADER = ("timestamp_unix", "transect", "t_soil_c", "t_air_c")
REPORT_HEADER = ("date", "transect", "mean_dt_c", "mean_dt_teg_k",
                 "mean_power_mw")

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
SECONDS_PER_DAY = 86400

#: rows the trace loader reads and converts per pass
_CHUNK_ROWS = 4096
_INT64 = np.iinfo(np.int64)

AVERAGING_NOTE = (
    "power is computed per sample and then averaged; whole-window rows are"
    " means over samples, not means of daily means"
)
CONVEXITY_CAVEAT = (
    "mean(P(dT)) >= P(mean(dT)) because power is convex in the gradient,"
    " with equality only for a constant gradient; published means computed"
    " from mean temperatures are not reproducible for transects whose"
    " gradient fluctuates near zero"
)


class TraceFormatError(ValueError):
    """A malformed temperature trace; the message names the line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class TransectSeries:
    """All samples of one transect, as parallel arrays."""

    transect: str
    timestamps: np.ndarray
    t_soil_c: np.ndarray
    t_air_c: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamps)


def load_temperature_trace(path: str | Path) -> dict[str, TransectSeries]:
    """Read a temperature trace CSV into per-transect series.

    Expects the exact header ``timestamp_unix,transect,t_soil_c,t_air_c``;
    timestamps must be non-decreasing within each transect.  Rows are
    read ``_CHUNK_ROWS`` at a time and each chunk is converted column by
    column, so beyond one chunk of text the memory held is the output
    arrays.  A malformed row raises :class:`TraceFormatError` naming its
    line, counted in CSV records with the header as line 1.
    """
    parts: dict[str, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
    last: dict[str, int] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != TRACE_HEADER:
            raise TraceFormatError(
                f"expected header {','.join(TRACE_HEADER)}", line=1
            )
        line = 2
        while True:
            chunk: list[list[str]] = []
            try:
                chunk.extend(islice(reader, _CHUNK_ROWS))
            except csv.Error:
                # a bad row before a record the csv module cannot read
                # is reported first, as a row-by-row read would
                _check_rows(chunk, line, last)
                raise
            if not chunk:
                break
            groups = _chunk_columns(chunk, last)
            if groups is None:
                _check_rows(chunk, line, last)
                raise AssertionError("trace chunk rejected, yet no row is bad")
            for transect, timestamps, t_soil, t_air in groups:
                parts.setdefault(transect, []).append(
                    (timestamps, t_soil, t_air))
                last[transect] = int(timestamps[-1])
            line += len(chunk)
    if not parts:
        raise TraceFormatError("no samples")
    return {
        transect: TransectSeries(
            transect, *(np.concatenate(column) for column in zip(*chunks))
        )
        for transect, chunks in parts.items()
    }


def _chunk_columns(chunk: list[list[str]], last: dict[str, int]):
    """One chunk of rows as per-transect columns, in first-seen order.

    Returns ``(transect, timestamps, t_soil_c, t_air_c)`` per transect, or
    ``None`` if any row breaks a rule; ``last`` holds each transect's last
    timestamp from earlier chunks.
    """
    rows = list(filter(None, chunk))
    if not rows:
        return []
    if set(map(len, rows)) != {4}:
        return None
    stamp_col, label_col, soil_col, air_col = zip(*rows)
    n = len(rows)
    try:
        timestamps = np.fromiter(map(int, stamp_col), np.int64, n)
        t_soil = np.fromiter(map(float, soil_col), np.float64, n)
        t_air = np.fromiter(map(float, air_col), np.float64, n)
    except (ValueError, OverflowError):
        return None
    # each distinct label is stripped once; code = first-seen order
    codes: dict[str, int] = {}
    code_of = dict.fromkeys(label_col)
    for label in code_of:
        code_of[label] = codes.setdefault(label.strip(), len(codes))
    if "" in codes:
        return None
    code = np.fromiter(map(code_of.__getitem__, label_col), np.intp, n)
    order = np.argsort(code, kind="stable")
    bounds = np.searchsorted(code[order], np.arange(len(codes) + 1))
    groups = []
    for transect, start, end in zip(codes, bounds[:-1], bounds[1:]):
        pick = order[start:end]
        stamps = timestamps[pick]
        if (stamps[0] < last.get(transect, stamps[0])
                or (stamps[1:] < stamps[:-1]).any()):
            return None
        groups.append((transect, stamps, t_soil[pick], t_air[pick]))
    return groups


def _check_rows(chunk: list[list[str]], line: int,
                last: dict[str, int]) -> None:
    """Raise the error of the first row in ``chunk`` that breaks a rule.

    ``line`` is the first row's line; ``last`` as for :func:`_chunk_columns`.
    """
    last = dict(last)
    for line, row in enumerate(chunk, start=line):
        if not row:
            continue
        if len(row) != 4:
            raise TraceFormatError(f"expected 4 fields, got {len(row)}", line)
        try:
            timestamp = int(row[0])
            float(row[2])
            float(row[3])
        except ValueError as exc:
            raise TraceFormatError(str(exc), line) from None
        if not _INT64.min <= timestamp <= _INT64.max:
            raise TraceFormatError("timestamp out of range", line)
        transect = row[1].strip()
        if not transect:
            raise TraceFormatError("empty transect label", line)
        if timestamp < last.get(transect, timestamp):
            raise TraceFormatError(
                f"timestamp goes backwards within transect {transect}", line
            )
        last[transect] = timestamp


@dataclass(frozen=True)
class PeriodMeans:
    """Means over one reporting period (a UTC day or the whole window)."""

    date: str
    transect: str
    mean_dt_c: float
    mean_dt_teg_k: float
    mean_power_w: float


@dataclass(frozen=True)
class TransectAnalysis:
    transect: str
    daily: tuple[PeriodMeans, ...]
    yearly: PeriodMeans


@dataclass(frozen=True)
class FeasibilityReport:
    transects: tuple[TransectAnalysis, ...]
    notes: tuple[str, ...]
    #: transect -> (harvested mean W, needed W, feasible), when a node
    #: power was given
    verdicts: dict[str, tuple[float, float, bool]] | None


def _day_label(day_index: int) -> str:
    return date.fromordinal(_EPOCH_ORDINAL + int(day_index)).isoformat()


def analyze_trace(
    series_by_transect: dict[str, TransectSeries],
    stack: ThermalStack,
    teg: TegParams,
    *,
    clamp_positive: bool = False,
    node_power_w: float | None = None,
    converter_efficiency: float = 1.0,
) -> FeasibilityReport:
    """Per-sample harvest power, reduced to daily and window means.

    ``clamp_positive`` zeroes power wherever the soil-air gradient is
    negative (a harvester behind an ideal rectifier would still see the
    squared gradient; a converter with a minimum startup gradient would
    not, which is what this models).  A ``converter_efficiency`` outside
    (0, 1] or a ``node_power_w`` that is not finite and positive raises
    ``ValueError``.
    """
    if not 0.0 < converter_efficiency <= 1.0:
        raise ValueError(
            f"converter efficiency must lie in (0, 1], got {converter_efficiency}")
    if node_power_w is not None and not 0.0 < node_power_w < math.inf:
        raise ValueError(
            f"node power must be finite and positive, got {node_power_w} W")
    if not series_by_transect:
        raise TraceFormatError("no samples")
    analyses = []
    verdicts: dict[str, tuple[float, float, bool]] = {}
    for transect, series in series_by_transect.items():
        if len(series) == 0:
            raise TraceFormatError(f"no samples for transect {transect}")
        dt_env = series.t_soil_c - series.t_air_c
        dt_teg = delta_t_teg(series.t_soil_c, series.t_air_c, stack)
        power = teg_power(dt_teg, teg)
        if clamp_positive:
            power = np.where(dt_env < 0.0, 0.0, power)
        # one stable sort puts each day's samples in a contiguous run, in
        # their original order, so each mean sums exactly what a mask
        # ``day_index == day`` would pick
        day_index = series.timestamps // SECONDS_PER_DAY
        order = np.argsort(day_index, kind="stable")
        days, starts = np.unique(day_index[order], return_index=True)
        ends = np.append(starts[1:], len(order))
        by_day = dt_env[order], dt_teg[order], power[order]
        daily = [
            PeriodMeans(_day_label(day), transect,
                        *(float(x[start:end].mean()) for x in by_day))
            for day, start, end in zip(days, starts, ends)
        ]
        yearly = PeriodMeans(
            "yearly",
            transect,
            float(dt_env.mean()),
            float(dt_teg.mean()),
            float(power.mean()),
        )
        analyses.append(TransectAnalysis(transect, tuple(daily), yearly))
        if node_power_w is not None:
            harvested = converter_efficiency * yearly.mean_power_w
            verdicts[transect] = (
                yearly.mean_power_w, node_power_w, harvested >= node_power_w
            )
    return FeasibilityReport(
        tuple(analyses),
        (AVERAGING_NOTE, CONVEXITY_CAVEAT),
        verdicts if node_power_w is not None else None,
    )


def write_report_csv(report: FeasibilityReport, target) -> None:
    """Write the daily/window means as CSV with leading note lines.

    ``target`` is a path or an open text handle.  Power is reported in
    mW; the yearly summary rows carry ``yearly`` in the date column.
    """
    if hasattr(target, "write"):
        _write_report(report, target)
    else:
        with open(target, "w", newline="") as handle:
            _write_report(report, handle)


def _write_report(report: FeasibilityReport, handle) -> None:
    for note in report.notes:
        handle.write(f"# {note}\n")
    writer = csv.writer(handle)
    writer.writerow(REPORT_HEADER)
    for analysis in report.transects:
        for row in analysis.daily:
            writer.writerow(_format_row(row))
    for analysis in report.transects:
        writer.writerow(_format_row(analysis.yearly))
    if report.verdicts is not None:
        for transect, (harvested, needed, feasible) in report.verdicts.items():
            verdict = "feasible" if feasible else "not feasible"
            handle.write(
                f"# transect {transect}: harvest {verdict}"
                f" (mean {harvested * 1e3:.4g} mW vs"
                f" node draw {needed * 1e3:.4g} mW)\n"
            )


def _format_row(row: PeriodMeans) -> tuple:
    return (
        row.date,
        row.transect,
        f"{row.mean_dt_c:.6g}",
        f"{row.mean_dt_teg_k:.6g}",
        f"{row.mean_power_w * 1e3:.6g}",
    )
