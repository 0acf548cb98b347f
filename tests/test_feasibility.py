"""Trace loading, daily/yearly reduction and the report CSV."""

import csv
import math
import warnings
from datetime import date
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from geowsn import feasibility
from geowsn.energy import default_stack, default_teg, delta_t_teg, teg_power
from geowsn.feasibility import (
    AVERAGING_NOTE,
    CONVEXITY_CAVEAT,
    REPORT_HEADER,
    TRACE_HEADER,
    TraceFormatError,
    TransectSeries,
    analyze_trace,
    load_temperature_trace,
    write_report_csv,
)

HEADER = "timestamp_unix,transect,t_soil_c,t_air_c\n"


def write_trace(tmp_path, body: str, name: str = "trace.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body, encoding="utf-8")
    return path


def test_load_groups_by_transect(tmp_path):
    path = write_trace(tmp_path,
                       "0,E,30.0,1.0\n"
                       "600,E,31.0,1.5\n"
                       "0,A,5.0,4.0\n")
    series = load_temperature_trace(path)
    assert set(series) == {"A", "E"}
    assert len(series["E"]) == 2
    assert series["E"].t_soil_c.tolist() == [30.0, 31.0]
    assert series["E"].t_air_c.tolist() == [1.0, 1.5]
    assert series["A"].timestamps.tolist() == [0]


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("time,transect,soil,air\n0,E,1,1\n")
    with pytest.raises(TraceFormatError) as info:
        load_temperature_trace(path)
    assert info.value.line == 1


def test_load_rejects_short_row(tmp_path):
    path = write_trace(tmp_path, "0,E,30.0\n")
    with pytest.raises(TraceFormatError) as info:
        load_temperature_trace(path)
    assert info.value.line == 2


def test_load_rejects_non_numeric_field(tmp_path):
    path = write_trace(tmp_path, "0,E,soup,1.0\n")
    with pytest.raises(TraceFormatError) as info:
        load_temperature_trace(path)
    assert info.value.line == 2


def test_load_rejects_time_going_backwards(tmp_path):
    path = write_trace(tmp_path,
                       "600,E,30.0,1.0\n"
                       "0,E,31.0,1.0\n")
    with pytest.raises(TraceFormatError) as info:
        load_temperature_trace(path)
    assert info.value.line == 3


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["t_soil_c", "t_air_c"])
def test_load_rejects_a_temperature_that_is_not_finite(tmp_path, column,
                                                       value):
    row = {"t_soil_c": "31.0", "t_air_c": "2.0", column: value}
    path = write_trace(tmp_path, "0,T1,30.0,1.0\n"
                       f"86400,T1,{row['t_soil_c']},{row['t_air_c']}\n")
    # numpy reads the chunk and hands it to the csv path, which names it
    for chunk_rows in (1, 4096):
        with mock.patch.object(feasibility, "_CHUNK_ROWS", chunk_rows), \
                pytest.raises(TraceFormatError) as info:
            load_temperature_trace(path)
        assert str(info.value) == (
            f"line 3: {column} {float(value)} is not finite")


def test_load_rejects_empty_trace(tmp_path):
    path = write_trace(tmp_path, "")
    with pytest.raises(TraceFormatError, match="no samples"):
        load_temperature_trace(path)


def test_interleaved_transects_each_stay_monotonic(tmp_path):
    path = write_trace(tmp_path,
                       "0,E,30.0,1.0\n"
                       "0,A,5.0,4.0\n"
                       "600,E,30.0,1.0\n"
                       "600,A,5.0,4.0\n")
    series = load_temperature_trace(path)
    assert len(series["E"]) == 2
    assert len(series["A"]) == 2


def analyze(path, **kwargs):
    return analyze_trace(load_temperature_trace(path), default_stack(),
                         default_teg(), **kwargs)


def test_constant_trace_reproduces_point_power(tmp_path):
    path = write_trace(tmp_path,
                       "0,E,29.0,0.0\n"
                       "600,E,29.0,0.0\n")
    report = analyze(path)
    yearly = report.transects[0].yearly
    assert yearly.date == "yearly"
    assert yearly.mean_dt_c == pytest.approx(29.0)
    assert yearly.mean_dt_teg_k == pytest.approx(14.9635, abs=5e-4)
    assert yearly.mean_power_w == pytest.approx(24.27e-3, rel=5e-3)
    # a constant trace has no convexity gap: daily equals yearly
    assert report.transects[0].daily[0].mean_power_w == pytest.approx(
        yearly.mean_power_w)


def test_days_split_on_utc_midnight(tmp_path):
    path = write_trace(tmp_path,
                       "0,E,29.0,0.0\n"
                       "86399,E,29.0,0.0\n"
                       "86400,E,31.0,0.0\n")
    report = analyze(path)
    daily = report.transects[0].daily
    assert [d.date for d in daily] == ["1970-01-01", "1970-01-02"]
    assert daily[0].mean_dt_c == pytest.approx(29.0)
    assert daily[1].mean_dt_c == pytest.approx(31.0)


def test_fluctuating_trace_beats_its_mean(tmp_path):
    """The convexity gap: mean of the squared gradient exceeds the
    square of the mean gradient."""
    path = write_trace(tmp_path,
                       "0,B,10.0,0.0\n"
                       "600,B,0.0,0.0\n")
    report = analyze(path)
    yearly = report.transects[0].yearly
    from geowsn.energy import delta_t_teg, teg_power
    at_mean = teg_power(delta_t_teg(yearly.mean_dt_c, 0.0, default_stack()),
                        default_teg())
    assert yearly.mean_power_w > at_mean
    # dt of 10 and 0: mean power is (100+0)/2 vs 25 at the mean, a 2x gap
    assert yearly.mean_power_w == pytest.approx(2.0 * at_mean)


def test_clamp_positive_zeroes_downhill_gradients(tmp_path):
    path = write_trace(tmp_path,
                       "0,A,1.0,5.0\n"
                       "600,A,5.0,1.0\n")
    clamped = analyze(path, clamp_positive=True)
    free = analyze(path)
    # the two samples have equal squared gradients
    assert clamped.transects[0].yearly.mean_power_w == pytest.approx(
        free.transects[0].yearly.mean_power_w / 2)


def test_notes_are_always_attached(tmp_path):
    path = write_trace(tmp_path, "0,E,29.0,0.0\n")
    report = analyze(path)
    assert AVERAGING_NOTE in report.notes
    assert CONVEXITY_CAVEAT in report.notes


def test_verdicts_compare_against_node_power(tmp_path):
    path = write_trace(tmp_path,
                       "0,E,29.0,0.0\n"
                       "0,A,1.0,0.0\n")
    report = analyze(path, node_power_w=1e-3, converter_efficiency=0.5)
    assert report.verdicts is not None
    harvested_e, needed_e, ok_e = report.verdicts["E"]
    assert ok_e is True
    assert needed_e == 1e-3
    harvested_a, needed_a, ok_a = report.verdicts["A"]
    assert ok_a is False
    assert harvested_a < 1e-3


@pytest.mark.parametrize("node_power_mw", [10.0, 20.0])
def test_the_verdict_line_prints_the_mean_it_compares(tmp_path, node_power_mw):
    # a constant 29 C gradient harvests 24.27 mW; half of it reaches the node
    path = write_trace(tmp_path, "0,E,29.0,0.0\n")
    report = analyze(path, node_power_w=node_power_mw * 1e-3,
                     converter_efficiency=0.5)
    out = tmp_path / "report.csv"
    write_report_csv(report, out)
    line, = [line for line in out.read_text().splitlines()
             if line.startswith("# transect E: harvest")]
    printed_mw = float(line.split("(mean ")[1].split(" mW")[0])
    assert printed_mw == pytest.approx(
        0.5 * report.transects[0].yearly.mean_power_w * 1e3, rel=1e-3)
    assert ("not feasible" in line) == (printed_mw < node_power_mw)


def test_report_csv_layout(tmp_path):
    path = write_trace(tmp_path,
                       "0,E,29.0,0.0\n"
                       "86400,E,29.0,0.0\n")
    report = analyze(path)
    out = tmp_path / "report.csv"
    write_report_csv(report, out)
    lines = out.read_text().splitlines()
    comment = [line for line in lines if line.startswith("# ")]
    assert any(AVERAGING_NOTE in line for line in comment)
    assert any(CONVEXITY_CAVEAT in line for line in comment)
    data = [line for line in lines if line and not line.startswith("#")]
    assert data[0] == ",".join(REPORT_HEADER)
    assert data[1].startswith("1970-01-01,E,29")
    assert data[2].startswith("1970-01-02,E,29")
    assert data[3].startswith("yearly,E,29")
    assert len(data) == 4


def test_report_csv_includes_verdict_comments(tmp_path):
    path = write_trace(tmp_path, "0,E,29.0,0.0\n")
    report = analyze(path, node_power_w=1e-3)
    out = tmp_path / "report.csv"
    write_report_csv(report, out)
    text = out.read_text()
    assert "feasible" in text


def test_empty_series_map_rejected():
    with pytest.raises(TraceFormatError):
        analyze_trace({}, default_stack(), default_teg())


# -- the chunked loader against a row-by-row reference ------------------------

def reference_load(path):
    """The trace loader as one Python loop body per row: the oracle."""
    rows: dict[str, list[tuple[int, float, float]]] = {}
    with open(path, newline="", encoding="utf-8",
              errors="surrogateescape") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
        except csv.Error:
            header = None
        if header is None or tuple(h.strip() for h in header) != TRACE_HEADER:
            raise TraceFormatError(
                f"expected header {','.join(TRACE_HEADER)}", line=1)
        line = 1
        while True:
            line += 1
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                raise TraceFormatError(str(exc), line) from None
            try:
                "".join(row).encode("utf-8")
            except UnicodeEncodeError as exc:
                bad = exc.object[exc.start:exc.end].encode(
                    "utf-8", "surrogateescape")
                raise TraceFormatError(f"not UTF-8 text: {bad!r}",
                                       line) from None
            if not row:
                continue
            if len(row) != 4:
                raise TraceFormatError(f"expected 4 fields, got {len(row)}",
                                       line)
            try:
                timestamp = int(row[0])
                t_soil = float(row[2])
                t_air = float(row[3])
            except ValueError as exc:
                raise TraceFormatError(str(exc), line) from None
            if not -2**63 <= timestamp < 2**63:
                raise TraceFormatError("timestamp out of range", line)
            for name, value in (("t_soil_c", t_soil), ("t_air_c", t_air)):
                if not math.isfinite(value):
                    raise TraceFormatError(f"{name} {value} is not finite",
                                           line)
            transect = row[1].strip()
            if not transect:
                raise TraceFormatError("empty transect label", line)
            samples = rows.setdefault(transect, [])
            if samples and timestamp < samples[-1][0]:
                raise TraceFormatError(
                    f"timestamp goes backwards within transect {transect}",
                    line)
            samples.append((timestamp, t_soil, t_air))
    if not rows:
        raise TraceFormatError("no samples")
    return {
        transect: TransectSeries(
            transect,
            np.array([s[0] for s in samples], dtype=np.int64),
            np.array([s[1] for s in samples], dtype=float),
            np.array([s[2] for s in samples], dtype=float),
        )
        for transect, samples in rows.items()
    }


def outcome(load, path):
    """The series a loader returns, or its error message and line."""
    try:
        series = load(path)
    except TraceFormatError as exc:
        return ("error", str(exc), exc.line)
    return ("series", [
        (name, s.transect, s.timestamps.dtype, s.timestamps.tolist(),
         s.t_soil_c.dtype, s.t_soil_c.tobytes(),
         s.t_air_c.dtype, s.t_air_c.tobytes())
        for name, s in series.items()
    ])


def assert_matches_reference(path, chunk_rows):
    with mock.patch.object(feasibility, "_CHUNK_ROWS", chunk_rows):
        assert outcome(load_temperature_trace, path) == outcome(
            reference_load, path)


# besides malformed fields, inputs on which numpy's reader and int() or
# float() differ or could differ: underscores, non-ASCII digits (numpy
# reads "7\u0761" as 1911), the int64 edges, spellings of infinity and
# nan, blanks (\x1c is one to numpy, not to Python), a label numpy could
# take for a comment and a NUL; non-ASCII labels, which stay on numpy's
# path, one with a blank that strip() removes and one of 40 characters,
# wider than numpy's label field starts; one of 80, longer than numpy
# reads; and bytes that are not UTF-8, each a lone surrogate here that the
# fuzzed file is written with as the byte itself
LONG_LABEL = "  Ölkelduháls norðurhlíð mælilína 1234  "
STAMPS = st.one_of(st.integers(-3, 40).map(str),
                   st.sampled_from(["1_0", " 7 ", "+3", "x", "", "1.5",
                                    "\u0661", "\uff11", "\t3", "\x1c3",
                                    "9223372036854775807",
                                    "9223372036854775808",
                                    "-9223372036854775809", "1\udcff",
                                    "7\u0761"]))
LABELS = st.sampled_from(["A", "B", " A ", "a,b", 'q"x', "", "  ", "#A",
                          "A\x00", "A\nB", "\udce9A", "Gr\u00e6ndalur",
                          "\u00deA", "\u00a0A", LONG_LABEL,
                          LONG_LABEL * 2])
TEMPS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "1_0.5", " 2.5 ", "soup", "",
                     "Infinity", "+nan", "1e400", "\t3", "\x1c3",
                     "\u0661", "\uff11", "\udcff\udcfe", "7\u0761"]),
)
ROWS = st.one_of(
    st.tuples(STAMPS, LABELS, TEMPS, TEMPS).map(list),
    st.just([]),
    st.lists(st.sampled_from(["1", "A", "2.0"]), min_size=1, max_size=6),
)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(ROWS, max_size=10), sort_stamps=st.booleans(),
       chunk_rows=st.integers(1, 3))
def test_chunked_loader_matches_the_row_loop(tmp_path_factory, rows,
                                             sort_stamps, chunk_rows):
    if sort_stamps:
        # most generated traces go backwards somewhere; sorting the whole
        # numbers lets more of them load
        stamps = iter(sorted(int(r[0]) for r in rows
                             if len(r) == 4 and r[0].lstrip("-").isdigit()))
        rows = [[str(next(stamps)), *r[1:]]
                if len(r) == 4 and r[0].lstrip("-").isdigit() else r
                for r in rows]
    path = tmp_path_factory.getbasetemp() / "fuzzed-trace.csv"
    with open(path, "w", newline="", encoding="utf-8",
              errors="surrogateescape") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_HEADER)
        writer.writerows(rows)
    assert_matches_reference(path, chunk_rows)


@pytest.mark.parametrize("row", [
    *(f"{stamp},A,1,1" for stamp in [
        "1_0", "\u0661", "\uff11", " 7 ", "+3", "-0", "\t3", "\x1c3",
        "\x1f3", "9223372036854775807", "9223372036854775808",
        "-9223372036854775809",
        # numpy 2.4 reads this as 1911, where int() refuses it
        "7\u0761"]),
    *(f"0,A,{temp},1" for temp in [
        "1_0.5", "\u0661", "\uff11", "Infinity", "+nan", "-nan", "1e400",
        "-0", "\t3", " 2.5 ", "\x1c3", "\x1d3"]),
    "0,#A,1,1", "0,A\x00,1,1", "0,\x1cA,1,1",
])
def test_a_field_numpy_could_read_otherwise_matches_the_row_loop(tmp_path,
                                                                 row):
    # alone in an otherwise plain trace, so that a field numpy accepts
    # and Python refuses would load instead of failing
    path = write_trace(tmp_path, f"0,A,1,1\n{row}\n0,B,1,1\n")
    for chunk_rows in (1, 4096):
        assert_matches_reference(path, chunk_rows)


def test_a_plain_trace_never_reaches_the_python_converter(tmp_path):
    rng = np.random.default_rng(19)
    rows = [f"{600 * step},{transect},{soil:.2f},{air:.3e}"
            for step in range(40)
            for transect, (soil, air) in zip(
                ("N1", " S2 ", "E3", "Gr\u00e6ndalur"),
                rng.normal(8.0, 6.0, (4, 2)))]
    rows.insert(70, "")
    # LF and CRLF endings
    body = "".join(row + ("\r\n" if i % 3 else "\n")
                   for i, row in enumerate(rows))
    path = tmp_path / "trace.csv"
    path.write_bytes((HEADER + body).encode())
    python_converter = mock.patch.object(
        feasibility, "_check_rows",
        side_effect=AssertionError("a plain chunk reached the csv path"))
    with python_converter:
        for chunk_rows in (16, 50, 4096):   # 161 lines: 11, 4 and 1 chunks
            assert_matches_reference(path, chunk_rows)
    assert list(load_temperature_trace(path)) == ["N1", "S2", "E3",
                                                  "Gr\u00e6ndalur"]


LONGER_LABEL = LONG_LABEL + "og suður "


def long_label_trace(tmp_path):
    """A plain trace of 2-row chunks whose labels outgrow numpy's label
    field twice, each first in a later chunk, and its chunk count."""
    rows = [f"{600 * step},{label},{step}.5,0.25"
            for step in range(12)
            for label in ("A", LONG_LABEL, LONGER_LABEL)[:1 + step // 4]]
    return write_trace(tmp_path, "".join(row + "\n" for row in rows)), \
        math.ceil(len(rows) / 2)


def test_a_long_label_first_seen_in_a_later_chunk_is_not_cut_short(tmp_path):
    path, _ = long_label_trace(tmp_path)
    python_converter = mock.patch.object(
        feasibility, "_check_rows",
        side_effect=AssertionError("a plain chunk reached the csv path"))
    with python_converter:
        assert_matches_reference(path, 2)
    assert list(load_temperature_trace(path)) == [
        "A", LONG_LABEL.strip(), LONGER_LABEL.strip()]


def test_a_long_label_costs_one_more_numpy_read_not_one_per_chunk(tmp_path):
    path, chunks = long_label_trace(tmp_path)
    with mock.patch.object(feasibility, "_CHUNK_ROWS", 2), \
            mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        load_temperature_trace(path)
    # one read per chunk, and one more for each chunk with a new widest
    # label
    assert loadtxt.call_count == chunks + 2


def test_a_label_longer_than_numpy_reads_leaves_the_width_alone(tmp_path):
    widest = "W" * feasibility._MAX_LABEL_WIDTH
    labels = ["A", "A", LONG_LABEL, "A", "A", "A", widest + "x", "A", widest,
              "A"]
    path = write_trace(tmp_path, "".join(
        f"{600 * step},{label},1,1\n" for step, label in enumerate(labels)))
    assert_matches_reference(path, 2)
    with mock.patch.object(feasibility, "_CHUNK_ROWS", 2), \
            mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
            mock.patch.object(feasibility, "_check_rows",
                              wraps=feasibility._check_rows) as check_rows:
        load_temperature_trace(path)
    # a chunk is read again as wide as its longest line (50 characters),
    # but never past 65; the chunk with a longer label goes to the csv
    # module and leaves the width as it was, and the widest label numpy
    # reads widens it
    widths = [call.kwargs["dtype"]["transect"].itemsize // 4
              for call in loadtxt.call_args_list]
    assert widths == [4, 4, 50, 41, 41, 65, 41, 65]
    assert check_rows.call_count == 1


def test_many_interleaved_transects_load_as_the_row_loop_does(tmp_path):
    # labels that strip alike are one transect, whichever comes first
    names = [f"T{i}" for i in range(1000)] + [" T7", "T999 ", " T0 "]
    path = write_trace(tmp_path, "".join(
        f"{600 * step},{name},{step}.5,{i}\n"
        for step in range(5) for i, name in enumerate(names)))
    python_converter = mock.patch.object(
        feasibility, "_check_rows",
        side_effect=AssertionError("a plain chunk reached the csv path"))
    with python_converter:
        for chunk_rows in (700, 4096):
            assert_matches_reference(path, chunk_rows)
    assert len(load_temperature_trace(path)) == 1000


def test_a_chunk_of_blank_lines_loads_without_a_warning(tmp_path):
    # numpy warns that such a chunk holds no data
    path = write_trace(tmp_path, "0,A,1,1\n600,A,2,2\n\n\r\n1200,A,3,3\n")
    assert_matches_reference(path, 2)
    with mock.patch.object(feasibility, "_CHUNK_ROWS", 2), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        series = load_temperature_trace(path)
    assert caught == []
    assert series["A"].timestamps.tolist() == [0, 600, 1200]


@pytest.mark.parametrize("body, message", [
    (b"0,A,1,1\n600,A,\xff\xfe,1\n", r"not UTF-8 text: b'\\xff\\xfe'"),
    (b"0,A,1,1\n600,\xe9,1,1\n", r"not UTF-8 text: b'\\xe9'"),
    # a record the csv module cannot read comes first
    (b'0,A,1,1\n0,"A,1,1\n' + b"0,A,1,1\n" * 20_000 + b"0,\xff,1,1\n",
     "field larger than field limit"),
], ids=["soil", "label", "stray quote first"])
def test_a_trace_that_is_not_utf8_names_its_line(tmp_path, body, message):
    path = tmp_path / "trace.csv"
    path.write_bytes(HEADER.encode() + body)
    with pytest.raises(TraceFormatError, match=message) as info:
        load_temperature_trace(path)
    assert info.value.line == 3


def test_the_first_bad_row_is_named_before_a_later_bad_byte(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(HEADER.encode() + b"0,A,soup,1\n"
                     + b"0,A,1,1\n" * 3000 + b"0,\xff,1,1\n")
    for chunk_rows in (1, 4096):
        assert_matches_reference(path, chunk_rows)
        with mock.patch.object(feasibility, "_CHUNK_ROWS", chunk_rows), \
                pytest.raises(TraceFormatError, match="soup") as info:
            load_temperature_trace(path)
        assert info.value.line == 2


def test_a_trace_is_opened_once_per_load(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(HEADER.encode() + b"0,A,1,1\n600,\xe9,1,1\n")
    with mock.patch("builtins.open", wraps=open) as opened, \
            pytest.raises(TraceFormatError, match="not UTF-8"):
        load_temperature_trace(path)
    assert opened.call_count == 1


@pytest.mark.parametrize("body, line", [
    # backwards step across a chunk boundary, with E between the A rows
    ("600,A,1,1\n0,E,1,1\n0,A,1,1\n", 4),
    # a bad row past the first chunk
    ("0,A,1,1\n600,A,1,1\n1200,A,1,1\n1800,A,soup,1\n", 5),
    ("0,A,1,1\n600,A,1,1\n1200,A,1,1\n1800,A,1\n", 5),
    ("0,A,1,1\n600,A,1,1\n1200,A,1,1\n1800, ,1,1\n", 5),
    # a blank row at a chunk edge still counts as a line
    ("0,A,1,1\n\n600,A,1,1\n0,A,1,1\n", 5),
])
def test_chunk_edges_keep_the_row_loop_error(tmp_path, body, line):
    path = write_trace(tmp_path, body)
    for chunk_rows in (1, 2, 3, 4096):
        assert_matches_reference(path, chunk_rows)
        with mock.patch.object(feasibility, "_CHUNK_ROWS", chunk_rows), \
                pytest.raises(TraceFormatError) as info:
            load_temperature_trace(path)
        assert info.value.line == line


def test_quoted_labels_and_blank_rows_load(tmp_path):
    path = write_trace(tmp_path,
                       '0,"GN1, E",1.5,0.5\n'
                       "\n"
                       '600," GN1, E ",2.5,0.5\n'
                       "0,A,1e1,-2\n")
    for chunk_rows in (1, 2, 3, 4096):
        assert_matches_reference(path, chunk_rows)
    series = load_temperature_trace(path)
    assert list(series) == ["GN1, E", "A"]
    assert series["GN1, E"].t_soil_c.tolist() == [1.5, 2.5]
    assert series["A"].t_soil_c.tolist() == [10.0]


def test_timestamp_outside_int64_names_its_line(tmp_path):
    path = write_trace(tmp_path, "0,A,1,1\n99999999999999999999,A,1,1\n")
    for chunk_rows in (1, 4096):
        with mock.patch.object(feasibility, "_CHUNK_ROWS", chunk_rows), \
                pytest.raises(TraceFormatError, match="out of range") as info:
            load_temperature_trace(path)
        assert info.value.line == 3


@pytest.mark.parametrize("body", [
    # the field numpy would read, were the line not over the csv limit
    "0,A,1,1\n0," + "A" * 200_000 + ",1,1\n",
    # a stray quote runs the field to the end of the file
    '0,A,1,1\n0,"A,1,1\n' + "0,A,1,1\n" * 20_000,
], ids=["long field", "stray quote"])
def test_a_record_the_csv_module_cannot_read_names_its_line(tmp_path, body):
    path = write_trace(tmp_path, body)
    for chunk_rows in (1, 4096):
        assert_matches_reference(path, chunk_rows)
        with mock.patch.object(feasibility, "_CHUNK_ROWS", chunk_rows), \
                pytest.raises(TraceFormatError,
                              match="field larger than field limit") as info:
            load_temperature_trace(path)
        assert info.value.line == 3


def test_bad_row_before_an_unreadable_record_is_reported_first(tmp_path):
    path = write_trace(tmp_path,
                       "0,A,soup,1\n" + "0,A," + "9" * 200_000 + ",1\n")
    with pytest.raises(TraceFormatError) as info:
        load_temperature_trace(path)
    assert info.value.line == 2


# -- daily means --------------------------------------------------------------

def ten_minute_days():
    """10-min samples (144 a day, more than numpy's 128-sample pairwise
    block) from a partial first day to a partial last day, with a gap of
    two hours in one day, splitting a run of 144-sample days, and a
    missing day between two days of 144."""
    stamps = np.arange(3 * 86400 + 100 * 600, 10 * 86400 + 30 * 600, 600)
    gap = (stamps >= 6 * 86400 + 3 * 3600) & (stamps < 6 * 86400 + 5 * 3600)
    missing = stamps // 86400 == 8
    return stamps[~(gap | missing)]


def sparse_days():
    """Days of fewer than 8 samples: six, three and one a day."""
    return np.concatenate([np.arange(0, 4 * 86400, 4 * 3600),
                           4 * 86400 + np.array([0, 5, 9000]),
                           5 * 86400 + np.arange(0, 86400, 4 * 3600),
                           [6 * 86400 + 7]])


def test_daily_means_equal_the_masked_means_exactly():
    rng = np.random.default_rng(7)
    stack, teg = default_stack(), default_teg()
    unsorted = rng.integers(0, 5 * 86400, 500)     # five days
    for stamps in (unsorted, ten_minute_days(),
                   rng.permutation(ten_minute_days()), sparse_days()):
        n = len(stamps)
        # out of order, and in time order as the loader gives them
        for timestamps in (stamps, np.sort(stamps)):
            series = TransectSeries("E", timestamps,
                                    rng.normal(8.0, 5.0, n),
                                    rng.normal(2.0, 6.0, n))
            analysis = analyze_trace({"E": series}, stack, teg).transects[0]
            dt_env = series.t_soil_c - series.t_air_c
            dt_teg = delta_t_teg(series.t_soil_c, series.t_air_c, stack)
            power = teg_power(dt_teg, teg)
            day_index = timestamps // 86400
            days = np.unique(day_index)
            assert len(analysis.daily) == len(days)
            for row, day in zip(analysis.daily, days):
                mask = day_index == day
                assert row.date == date.fromordinal(
                    date(1970, 1, 1).toordinal() + int(day)).isoformat()
                assert row.mean_dt_c == float(dt_env[mask].mean())
                assert row.mean_dt_teg_k == float(dt_teg[mask].mean())
                assert row.mean_power_w == float(power[mask].mean())
            assert analysis.yearly.mean_power_w == float(power.mean())


def test_day_labels_are_iso_dates_from_year_1_to_9999():
    days = [date.min, date(999, 12, 31), date(1969, 12, 31),
            date(2024, 2, 29), date.max]
    epoch = date(1970, 1, 1)
    timestamps = np.array([(day - epoch).days * 86400 for day in days])
    timestamps[-1] += 86399
    series = TransectSeries("E", timestamps, np.full(len(days), 8.0),
                            np.full(len(days), 2.0))
    analysis = analyze_trace({"E": series}, default_stack(),
                             default_teg()).transects[0]
    assert [row.date for row in analysis.daily] == [
        day.isoformat() for day in days]


# -- node power and converter efficiency --------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"node_power_w": 4e-4, "converter_efficiency": math.nan},
    {"node_power_w": 4e-4, "converter_efficiency": -1.0},
    {"node_power_w": 4e-4, "converter_efficiency": 0.0},
    {"node_power_w": 4e-4, "converter_efficiency": 1.5},
    {"converter_efficiency": math.inf},
    {"node_power_w": -1e-3},
    {"node_power_w": 0.0},
    {"node_power_w": math.nan},
    {"node_power_w": math.inf},
])
def test_nonsense_power_figures_are_rejected(tmp_path, kwargs):
    path = write_trace(tmp_path, "0,E,29.0,0.0\n")
    with pytest.raises(ValueError):
        analyze(path, **kwargs)
