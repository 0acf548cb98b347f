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
from array import array
from dataclasses import dataclass
from datetime import date
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .energy import TegParams, ThermalStack, delta_t_teg, teg_power

TRACE_HEADER = ("timestamp_unix", "transect", "t_soil_c", "t_air_c")
#: the fields of a trace row as :func:`trace_fields` takes them
_TRACE_COLUMNS = (("timestamp", int, False), ("transect", str.strip, False),
                  *((name, float, True) for name in TRACE_HEADER[2:]))
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
#: a transect's columns as ``array`` typecodes, which numpy reads as
#: int64, float64 and float64
_TYPECODES = tuple(np.dtype(t).char for t in (np.int64, float, float))
#: the width of numpy's label field at the start of a load; a chunk
#: with a longer label widens it for the rest of the load
_LABEL_WIDTH = 4
#: the longest label numpy reads; the field takes 4 bytes a character
#: for every row of a chunk, so a chunk with a longer label goes to the
#: csv module
_MAX_LABEL_WIDTH = 64
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


def trace_records(lines, line: int):
    """Each csv record of ``lines`` and its line, the first at ``line``;
    an unreadable or non-UTF-8 record raises :class:`TraceFormatError`."""
    line -= 1    # the line of the last record read
    try:
        for line, row in enumerate(csv.reader(lines), start=line + 1):
            if bad := _undecodable("".join(row)):
                raise TraceFormatError(f"not UTF-8 text: {bad!r}", line)
            yield line, row
    except csv.Error as exc:
        raise TraceFormatError(str(exc), line + 1) from None


def trace_fields(row: list[str], line: int, columns, label: int | None,
                 last: dict) -> list | None:
    """The typed fields of the record ``row`` at ``line``, or ``None`` if
    it is blank; the first rule it breaks raises :class:`TraceFormatError`.
    ``columns`` holds each field's ``(name, convert, finite)``: its name
    in error texts, its converter (an ``int`` must fit int64) and whether
    it must be finite.  The first field is a time that never goes back
    within a series, named by a later field at index ``label`` that is
    not empty, or within the trace if ``label`` is None; ``last`` holds
    each series' last time and takes this row's."""
    if not row:
        return None
    if len(row) != len(columns):
        raise TraceFormatError(
            f"expected {len(columns)} fields, got {len(row)}", line)
    try:
        fields = [convert(text) for (_, convert, _), text in zip(columns, row)]
    except ValueError as exc:
        raise TraceFormatError(str(exc), line) from None
    for (name, convert, finite), value in zip(columns, fields):
        if convert is int and not _INT64.min <= value <= _INT64.max:
            raise TraceFormatError(f"{name} out of range", line)
        if finite and not math.isfinite(value):
            raise TraceFormatError(f"{name} {value} is not finite", line)
    series = None if label is None else fields[label]
    if series == "":
        raise TraceFormatError(f"empty {columns[label][0]} label", line)
    if fields[0] < last.get(series, fields[0]):
        within = f" within {columns[label][0]} {series}" if label else ""
        raise TraceFormatError(f"{columns[0][0]} goes backwards{within}", line)
    last[series] = fields[0]
    return fields


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
    ``timestamp_unix,transect,t_soil_c,t_air_c``; temperatures must be
    finite and timestamps non-decreasing within each transect.  Lines
    are read ``_CHUNK_ROWS`` at a time onto each transect's columns,
    which grow in place, so the memory held is one chunk and one copy
    of the trace: the output arrays and at most a sixteenth more of
    spare room.  A plain chunk (no ``"``, none of ``_NOT_PLAIN``, no
    line longer than a csv field may be, and no non-ASCII character
    outside the labels) is converted by one ``np.loadtxt`` call, which
    reads the labels as a fixed-width ``U`` field, ``_LABEL_WIDTH``
    characters wide at first.  A chunk whose longest label fills the
    field is read once more, as wide as its longest line but at most
    one character wider than ``_MAX_LABEL_WIDTH``, so that no label is
    cut short, and later chunks are read one character wider than that
    label.  A chunk with a label longer than ``_MAX_LABEL_WIDTH`` leaves
    the width as it was.  That chunk, every other chunk, and a plain one
    that numpy refuses or warns about, is read by :func:`trace_records`
    and :func:`trace_fields`, which decide what a valid row is: the
    first row they refuse raises :class:`TraceFormatError` naming its
    line, counted in CSV records with the header as line 1.
    """
    columns: dict[str, tuple[array, array, array]] = {}
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
        line, width = 2, _LABEL_WIDTH
        while True:
            records, width = _append_chunk(handle, line, width, columns, last)
            if not records:
                break
            line += records
    if not columns:
        raise TraceFormatError("no samples")
    return {
        transect: TransectSeries(transect, *(
            np.frombuffer(column, column.typecode) for column in buffers))
        for transect, buffers in columns.items()
    }


def _append_chunk(handle, line: int, width: int,
                  columns: dict[str, tuple[array, ...]],
                  last: dict[str, int]) -> tuple[int, int]:
    """Append the chunk of ``handle`` whose first record is at ``line``
    to ``columns``; returns its number of records and the label width for
    the next chunk (``width`` as for :func:`_plain_columns`).  Nothing of
    the chunk outlives the call; ``last`` as for :func:`_group`."""
    lines = list(islice(handle, _CHUNK_ROWS))
    if not lines:
        return 0, width
    records = len(lines)
    groups, width = _plain_columns(lines, width, last)
    if groups is None:
        # the csv module reads the same number of records, which a
        # quoted field may finish past the chunk's last line
        records, groups = _check_rows(
            islice(trace_records(chain(lines, handle), line), records), last)
    for transect, *group in groups:
        if transect not in columns:
            columns[transect] = tuple(map(array, _TYPECODES))
        for column, values in zip(columns[transect], group):
            column.frombytes(values.data.cast("B"))
        last[transect] = int(group[0][-1])
    return records, width


def _plain_columns(lines: list[str], width: int, last: dict[str, int]):
    """numpy's conversion of a plain chunk, as :func:`_group` returns it,
    and the label width for the next chunk.

    The groups are ``None`` also if the chunk is not plain, or numpy
    refuses or warns about it (a chunk of blank lines warns that it holds
    no data), or holds a label longer than ``_MAX_LABEL_WIDTH``.  Labels
    are read ``width`` characters wide.  A chunk whose longest label
    fills that width may have had labels cut short, so it is read again
    as wide as its longest line, which no field of it can exceed, or one
    character wider than ``_MAX_LABEL_WIDTH`` if that is less; the next
    chunk's width is then one more than its longest label, so that label
    does not make every later chunk read twice.
    """
    text = "".join(lines)
    limit = csv.field_size_limit()
    if (any(char in text for char in _NOT_PLAIN)
            or len(text) > limit and max(map(len, lines)) > limit):
        return None, width
    # numpy's integer reader takes some non-ASCII digits ("7\u0761" reads
    # as 1911) where int() refuses them, so every non-ASCII character
    # must sit in a label: the text must hold as many as its labels
    non_ascii = 0 if text.isascii() else _non_ascii(text)
    del text    # not held while numpy converts the chunk
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = _read_plain(lines, width)
            if np.char.str_len(table["transect"]).max() == width:
                table = _read_plain(lines, min(max(map(len, lines)),
                                               _MAX_LABEL_WIDTH + 1))
                longest = int(np.char.str_len(table["transect"]).max())
                if longest > _MAX_LABEL_WIDTH:
                    return None, width
                width = longest + 1
    except (ValueError, Warning):
        return None, width
    groups = _group(table, last)
    if groups and non_ascii != sum(_non_ascii(transect) * len(stamps)
                                   for transect, stamps, *_ in groups):
        return None, width
    return groups, width


def _read_plain(lines: list[str], width: int) -> np.ndarray:
    """``np.loadtxt``'s rows of a plain chunk, labels ``width`` wide."""
    dtype = np.dtype([("timestamp", np.int64), ("transect", f"U{width}"),
                      ("t_soil_c", np.float64), ("t_air_c", np.float64)])
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                      quotechar=None, ndmin=1)


def _non_ascii(text: str) -> int:
    """The number of characters of ``text`` that are not ASCII."""
    return len(text) - len(text.encode("ascii", "ignore"))


def _group(table: np.ndarray, last: dict[str, int]):
    """Rows of :func:`_read_plain` split into per-transect columns, in
    first-seen order.

    Returns ``(transect, timestamps, t_soil_c, t_air_c)`` per transect, or
    ``None`` if a label is blank or not UTF-8, a temperature is not
    finite or a transect's timestamps go backwards; ``last`` holds each
    transect's last timestamp from earlier chunks.
    """
    t_soil, t_air = table["t_soil_c"], table["t_air_c"]
    if not (np.isfinite(t_soil).all() and np.isfinite(t_air).all()):
        return None
    # a stable sort puts each raw label's rows together, in row order, so
    # the work grows as n log n whatever the number of labels; neighbours
    # compare faster as code points than as strings.  The rows of labels
    # that strip alike are one transect's, in first-seen order
    labels = table["transect"]
    order = np.argsort(labels, kind="stable")
    ranked = labels[order].view(np.uint32).reshape(len(order), -1)
    starts = np.flatnonzero(np.concatenate(
        ([True], (ranked[1:] != ranked[:-1]).any(axis=1))))
    del ranked    # not held while the columns are gathered
    picks: dict[str, list[np.ndarray]] = {}
    firsts, bounds = order[starts], np.append(starts, len(order)).tolist()
    for _, label, start, end in sorted(zip(
            firsts.tolist(), labels[firsts].tolist(), bounds, bounds[1:])):
        picks.setdefault(label.strip(), []).append(order[start:end])
    if "" in picks or _undecodable("".join(picks)):
        return None
    timestamps = table["timestamp"]
    groups = []
    for transect, runs in picks.items():
        pick = runs[0] if len(runs) == 1 else np.sort(np.concatenate(runs))
        stamps = timestamps[pick]
        if (stamps[0] < last.get(transect, stamps[0])
                or (stamps[1:] < stamps[:-1]).any()):
            return None
        groups.append((transect, stamps, t_soil[pick], t_air[pick]))
    return groups


def _undecodable(text: str) -> bytes:
    """The first run of bytes in ``text`` that were not UTF-8, or ``b""``:
    the loader decodes them to lone surrogates, which ``int()`` and
    ``float()`` refuse and :func:`_group` refuses in a label."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return exc.object[exc.start:exc.end].encode("utf-8", "surrogateescape")
    return b""


def _check_rows(records, last: dict[str, int]):
    """The number of ``records``, as :func:`trace_records` yields them,
    and their rows as :func:`_group` returns them; ``last`` as there."""
    last = dict(last)
    samples: dict[str, list[list]] = {}
    count = 0
    for count, (line, row) in enumerate(records, start=1):
        if fields := trace_fields(row, line, _TRACE_COLUMNS, 1, last):
            samples.setdefault(fields.pop(1), []).append(fields)
    return count, [(transect, *map(np.array, zip(*rows), _TYPECODES))
                   for transect, rows in samples.items()]


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
    #: transect -> (harvested mean W after the converter, needed W,
    #: feasible), when a node power was given
    verdicts: dict[str, tuple[float, float, bool]] | None


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
        analyses.append(_analyze_transect(transect, series, stack, teg,
                                          clamp_positive))
        if node_power_w is not None:
            yearly = analyses[-1].yearly
            harvested = converter_efficiency * yearly.mean_power_w
            verdicts[transect] = (
                harvested, node_power_w, harvested >= node_power_w
            )
    return FeasibilityReport(
        tuple(analyses),
        (AVERAGING_NOTE, CONVEXITY_CAVEAT),
        verdicts if node_power_w is not None else None,
    )


def _analyze_transect(transect: str, series: TransectSeries,
                      stack: ThermalStack, teg: TegParams,
                      clamp_positive: bool) -> TransectAnalysis:
    """One transect's daily and window means.  Its per-sample arrays are
    freed on return, before the next transect's are made."""
    if len(series) == 0:
        raise TraceFormatError(f"no samples for transect {transect}")
    day_index = series.timestamps // SECONDS_PER_DAY
    # no full-length mask unless a timestamp is out of range
    if day_index.min() < _FIRST_DAY or day_index.max() > _LAST_DAY:
        outside = (day_index < _FIRST_DAY) | (day_index > _LAST_DAY)
        raise TraceFormatError(
            f"transect {transect}: timestamp"
            f" {series.timestamps[outside.argmax()]} lies outside"
            f" years 1-9999")
    # power before dt_env, so that teg_power's temporaries and dt_env
    # are never held at once
    dt_teg = delta_t_teg(series.t_soil_c, series.t_air_c, stack)
    power = teg_power(dt_teg, teg)
    dt_env = series.t_soil_c - series.t_air_c
    if clamp_positive:
        power[dt_env < 0.0] = 0.0
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
    starts = np.flatnonzero(
        np.concatenate(([True], day_index[1:] != day_index[:-1])))
    bounds = np.append(starts, len(day_index))
    lengths = np.diff(bounds)
    # consecutive days of as many samples each are one run, reduced as a
    # (days, samples) view of it: numpy sums each row as it sums a 1-D
    # slice, so a day's mean is bit for bit that of its own slice
    runs = np.flatnonzero(
        np.concatenate(([True], lengths[1:] != lengths[:-1])))
    means = np.empty((len(by_day), len(starts)))
    for first, stop in zip(runs, np.append(runs[1:], len(starts))):
        lo, hi, length = bounds[first], bounds[stop], lengths[first]
        for row, x in zip(means, by_day):
            row[first:stop] = x[lo:hi].reshape(-1, length).mean(axis=1)
    labels = np.datetime_as_string(day_index[starts].astype("datetime64[D]"))
    daily = tuple(
        PeriodMeans(label, transect, *values)
        for label, *values in zip(labels.tolist(), *means.tolist())
    )
    yearly = PeriodMeans("yearly", transect, float(dt_env.mean()),
                         float(dt_teg.mean()), float(power.mean()))
    return TransectAnalysis(transect, daily, yearly)


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
