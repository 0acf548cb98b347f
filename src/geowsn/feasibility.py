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
import warnings
from dataclasses import dataclass
from datetime import date
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .energy import TegParams, ThermalStack, delta_t_teg, teg_power

TRACE_HEADER = ("timestamp_unix", "transect", "t_soil_c", "t_air_c")
REPORT_HEADER = ("date", "transect", "mean_dt_c", "mean_dt_teg_k",
                 "mean_power_mw")

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
SECONDS_PER_DAY = 86400
#: the day indices (days since 1970-01-01) a ``date`` can label: years 1-9999
_FIRST_DAY = date.min.toordinal() - _EPOCH_ORDINAL
_LAST_DAY = date.max.toordinal() - _EPOCH_ORDINAL

#: rows the trace loader reads and converts per pass
_CHUNK_ROWS = 4096
_INT64 = np.iinfo(np.int64)
#: a trace row as ``np.loadtxt`` converts it
_TRACE_DTYPE = np.dtype([("timestamp", np.int64), ("transect", object),
                         ("t_soil_c", np.float64), ("t_air_c", np.float64)])
#: characters that keep a chunk from numpy: a quote can make one csv
#: record span lines, csv before Python 3.11 refuses NUL, and numpy
#: reads \x1c-\x1f as blanks around a number where int() and float()
#: refuse them
_NOT_PLAIN = '"\0\x1c\x1d\x1e\x1f'

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

    Expects UTF-8 text with the exact header
    ``timestamp_unix,transect,t_soil_c,t_air_c``; timestamps must be
    non-decreasing within each transect.  Lines are read ``_CHUNK_ROWS``
    at a time, so beyond one chunk of text the memory held is the output
    arrays.  A plain chunk (ASCII, no ``"``, none of ``_NOT_PLAIN``, no
    line longer than a csv field may be) is converted by one
    ``np.loadtxt`` call.  Every other chunk, and a plain one that numpy
    refuses or warns about, is read by the csv module and converted by
    ``int()`` and ``float()``, which decide what a valid row is.  A
    malformed row, a record the csv module cannot read and bytes that are
    not UTF-8 raise :class:`TraceFormatError` naming the first such line,
    counted in CSV records with the header as line 1.
    """
    parts: dict[str, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
    last: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8",
              errors="surrogateescape") as handle:
        try:
            header = next(csv.reader(handle), None)
        except csv.Error:
            header = None
        if header is None or tuple(h.strip() for h in header) != TRACE_HEADER:
            raise TraceFormatError(
                f"expected header {','.join(TRACE_HEADER)}", line=1
            )
        line = 2
        while lines := list(islice(handle, _CHUNK_ROWS)):
            records = len(lines)
            groups = _plain_columns(lines, last)
            if groups is None:
                # the same number of records, which a quoted field
                # may finish past the chunk's last line
                records, groups = _csv_columns(
                    csv.reader(chain(lines, handle)), records, line, last)
            for transect, timestamps, t_soil, t_air in groups:
                parts.setdefault(transect, []).append(
                    (timestamps, t_soil, t_air))
                last[transect] = int(timestamps[-1])
            line += records
    if not parts:
        raise TraceFormatError("no samples")
    return {
        transect: TransectSeries(
            transect, *(np.concatenate(column) for column in zip(*chunks))
        )
        for transect, chunks in parts.items()
    }


def _plain_columns(lines: list[str], last: dict[str, int]):
    """numpy's conversion of a plain chunk, as :func:`_group` returns it.

    ``None`` also if the chunk is not plain, or numpy refuses or warns
    about it (a chunk of blank lines warns that it holds no data).
    """
    text = "".join(lines)
    limit = csv.field_size_limit()
    if (not text.isascii() or any(char in text for char in _NOT_PLAIN)
            or len(text) > limit and max(map(len, lines)) > limit):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=_TRACE_DTYPE, delimiter=",",
                               comments=None, quotechar=None, ndmin=1)
    except (ValueError, Warning):
        return None
    # the columns are copied and the record array freed before the
    # groups, which outlive the chunk, are allocated; grouping straight
    # from the record array left the heap too fragmented for
    # analyze_trace's full-length arrays (5 MB more peak RSS on two years)
    columns = [table[name].copy() for name in _TRACE_DTYPE.names]
    del table
    return _group(*columns, last)


def _csv_columns(reader, count: int, line: int, last: dict[str, int]):
    """Read ``count`` records from ``reader`` and convert them in Python.

    Returns the number of records read and their groups as
    :func:`_group` returns them.  ``line`` is the first record's line;
    a rule broken by a row raises its :class:`TraceFormatError`.
    """
    chunk: list[list[str]] = []
    try:
        chunk.extend(islice(reader, count))
    except csv.Error as exc:
        # a bad row before a record the csv module cannot read is
        # reported first, as a row-by-row read would
        _check_rows(chunk, line, last)
        raise TraceFormatError(str(exc), line + len(chunk)) from None
    groups = _chunk_columns(chunk, last)
    if groups is None:
        _check_rows(chunk, line, last)
        # _chunk_columns and _check_rows test the same rules, so the
        # check above has raised; this line runs only if they disagree
        raise AssertionError("trace chunk rejected, yet no row is bad")
    return len(chunk), groups


def _chunk_columns(chunk: list[list[str]], last: dict[str, int]):
    """One chunk of csv rows converted column by column in Python.

    Returns what :func:`_group` returns, or ``None`` if a row has the
    wrong number of fields or a number ``int()`` or ``float()`` refuses.
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
    return _group(timestamps, label_col, t_soil, t_air, last)


def _group(timestamps: np.ndarray, labels, t_soil: np.ndarray,
           t_air: np.ndarray, last: dict[str, int]):
    """Converted columns split into per-transect columns, in first-seen order.

    Returns ``(transect, timestamps, t_soil_c, t_air_c)`` per transect, or
    ``None`` if a label is blank or not UTF-8 or a transect's timestamps
    go backwards; ``last`` holds each transect's last timestamp from
    earlier chunks.
    """
    # each distinct label is stripped once; code = first-seen order
    codes: dict[str, int] = {}
    code_of = dict.fromkeys(labels)
    for label in code_of:
        code_of[label] = codes.setdefault(label.strip(), len(codes))
    if "" in codes or _undecodable("".join(codes)):
        return None
    code = np.fromiter(map(code_of.__getitem__, labels), np.intp, len(labels))
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


def _undecodable(text: str) -> bytes:
    """The first run of bytes in ``text`` that were not UTF-8, or ``b""``:
    the loader decodes them to lone surrogates, which ``int()`` and
    ``float()`` refuse and no plain (ASCII) chunk holds."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return exc.object[exc.start:exc.end].encode("utf-8", "surrogateescape")
    return b""


def _check_rows(chunk: list[list[str]], line: int,
                last: dict[str, int]) -> None:
    """Raise the error of the first row in ``chunk`` that breaks a rule.

    ``line`` is the first row's line; ``last`` as for :func:`_group`.
    """
    last = dict(last)
    for line, row in enumerate(chunk, start=line):
        if bad := _undecodable("".join(row)):
            raise TraceFormatError(f"not UTF-8 text: {bad!r}", line)
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
    ``ValueError``; a timestamp outside years 1-9999, which no day label
    can name, raises :class:`TraceFormatError`.
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
        day_index = series.timestamps // SECONDS_PER_DAY
        outside = (day_index < _FIRST_DAY) | (day_index > _LAST_DAY)
        if outside.any():
            raise TraceFormatError(
                f"transect {transect}: timestamp"
                f" {series.timestamps[outside.argmax()]} lies outside"
                f" years 1-9999")
        # each mean sums a contiguous run of one day's samples in their
        # original order, exactly what a mask ``day_index == day`` picks; a
        # loaded series is in time order already, and sorting it anyway
        # held four more full-length arrays (2-3 MB more peak RSS on two
        # years of six transects)
        by_day = dt_env, dt_teg, power
        if (day_index[1:] < day_index[:-1]).any():
            order = np.argsort(day_index, kind="stable")
            day_index = day_index[order]
            by_day = tuple(x[order] for x in by_day)
        days, starts = np.unique(day_index, return_index=True)
        ends = np.append(starts[1:], len(day_index))
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
        with open(target, "w", newline="", encoding="utf-8") as handle:
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
