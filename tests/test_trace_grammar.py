"""The one row grammar under both trace loaders: a temperature trace
and a sensor trace refuse the same fault at the same record line, and a
sensor trace loads back exactly what was written."""

import csv

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from geowsn.feasibility import (
    TRACE_HEADER,
    TraceFormatError,
    load_temperature_trace,
)
from geowsn.node import CHANNELS, SensorKind, TraceSignal, load_sensor_trace

HUGE = b"1" * 200_000

# each fault as a temperature row and a soil-temperature sensor row, both
# after one good row, so at line 3 unless a record spans lines; and the
# text each loader gives.  A temperature trace's time is an int, which
# "inf" is not, and its temperatures must be finite where a sensor
# channel may be any float
FAULTS = [
    ("not UTF-8", b"600,A,1\xff,1", b"600,1\xff", 3,
     r"not UTF-8 text: b'\xff'", r"not UTF-8 text: b'\xff'"),
    ("field count", b"600,A,1", b"600,1,2", 3,
     "expected 4 fields, got 3", "expected 2 fields, got 3"),
    ("not a number", b"600,A,abc,1", b"600,abc", 3,
     "could not convert string to float: 'abc'",
     "could not convert string to float: 'abc'"),
    ("time not finite", b"inf,A,1,1", b"inf,1", 3,
     "invalid literal for int() with base 10: 'inf'",
     "timestamp inf is not finite"),
    ("value not finite", b"600,A,inf,1", b"inf,1", 3,
     "t_soil_c inf is not finite", "timestamp inf is not finite"),
    ("backwards", b"-600,A,1,1", b"-600,1", 3,
     "timestamp goes backwards within transect A",
     "timestamp goes backwards"),
    ("csv cannot read", b"600,A," + HUGE + b",1", b"600," + HUGE, 3,
     "field larger than field limit (131072)",
     "field larger than field limit (131072)"),
    # the quoted field ends on line 4, so the bad row is record 4 on
    # line 5
    ("after a quoted field over two lines",
     b'600,"A\nB",1,1\n900,A,abc,1', b'"600\n",1\n900,abc', 4,
     "could not convert string to float: 'abc'",
     "could not convert string to float: 'abc'"),
]


@pytest.mark.parametrize(
    "temperature_row, sensor_row, line, temperature_text, sensor_text",
    [case[1:] for case in FAULTS], ids=[case[0] for case in FAULTS])
def test_both_loaders_name_the_same_record_line_and_rule(
        tmp_path, temperature_row, sensor_row, line, temperature_text,
        sensor_text):
    temperatures = tmp_path / "temperatures.csv"
    temperatures.write_bytes(",".join(TRACE_HEADER).encode()
                             + b"\n0,A,1,1\n" + temperature_row + b"\n")
    with pytest.raises(TraceFormatError) as refused:
        load_temperature_trace(temperatures)
    assert (refused.value.line, str(refused.value)) == (
        line, f"line {line}: {temperature_text}")

    sensor = tmp_path / "sensor.csv"
    sensor.write_bytes(b"timestamp_unix,t_soil\n0,1\n" + sensor_row + b"\n")
    with pytest.raises(ValueError) as refused:
        load_sensor_trace(sensor, SensorKind.SOIL_TEMPERATURE)
    assert str(refused.value) == f"{sensor}: line {line}: {sensor_text}"


TIMES = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def sensor_traces(draw):
    """A sensor kind and rows of its trace, times in order; ``None``
    stands for a blank line."""
    kind = draw(st.sampled_from(list(SensorKind)))
    width = len(CHANNELS[kind])
    times = sorted(draw(st.lists(TIMES, min_size=1, max_size=20)))
    rows = [[time, *draw(st.lists(st.floats(), min_size=width,
                                  max_size=width))] for time in times]
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), None)
    return kind, rows


@settings(max_examples=100, deadline=None)
@given(trace=sensor_traces(),
       quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
def test_a_sensor_trace_loads_back_exactly_what_was_written(
        tmp_path_factory, trace, quoting):
    kind, rows = trace
    path = tmp_path_factory.getbasetemp() / "written-trace.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, quoting=quoting)
        writer.writerow(["timestamp_unix",
                         *(spec.name for spec in CHANNELS[kind])])
        writer.writerows([] if row is None else row for row in rows)
    driver = load_sensor_trace(path, kind)
    # as text, since a nan's payload is not written: -0.0 stays -0.0
    times, *channels = [list(map(repr, column))
                        for column in zip(*filter(None, rows))]
    assert len(driver.signals) == len(channels)
    for signal, values in zip(driver.signals, channels):
        assert isinstance(signal, TraceSignal)
        assert list(map(repr, signal.times.tolist())) == times
        assert list(map(repr, signal.values.tolist())) == values
