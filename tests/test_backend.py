"""Bus routing, uplink ingestion and the CSV sink."""

import csv
import io
import math

import pytest

from geowsn.alp import (
    NODE_CONFIG_FILE,
    AlpAction,
    SENSOR_DATA_FILE,
    STATUS_OK,
    encode_command,
)
from geowsn.backend import (
    Backend,
    CsvSink,
    Envelope,
    InProcessBus,
    SINK_HEADER,
    TimeSeriesRecord,
    topic_matches,
    up_topic,
)
from geowsn.node import SensorKind, SensorReading
from geowsn.scenario import build_simulator, default_scenario, node_directory


def reading_frame(timestamp: int = 1000,
                  kind: SensorKind = SensorKind.SOIL_TEMPERATURE,
                  values=(3456,)) -> bytes:
    record = SensorReading(timestamp, kind, tuple(values)).to_bytes()
    return encode_command((
        AlpAction.return_data(SENSOR_DATA_FILE, 0, record),))


def envelope(uid: int = 7, dialog: int | None = None) -> Envelope:
    return Envelope(node_uid=uid, gateway_id="gw-north", site_id="north",
                    rx_timestamp=12.5, dialog=dialog)


def test_topic_layout():
    assert up_topic("north", "gw-1") == "site/north/gw/gw-1/up"


@pytest.mark.parametrize("pattern,topic,matched", [
    ("site/north/gw/gw-1/up", "site/north/gw/gw-1/up", True),
    ("site/+/gw/+/up", "site/north/gw/gw-1/up", True),
    ("site/+/gw/+/up", "site/north/gw/gw-1/down", False),
    ("site/#", "site/north/gw/gw-1/up", True),
    ("site/north/#", "site/south/gw/gw-1/up", False),
    ("site/+/gw/+/up", "site/north/gw/up", False),
    ("#", "anything/at/all", True),
])
def test_topic_matching(pattern, topic, matched):
    assert topic_matches(pattern, topic) is matched


def test_bus_routes_to_matching_subscribers_in_order():
    # the topic comes from the envelope: site/north/gw/gw-north/up
    bus = InProcessBus()
    got = []
    for name, pattern in (("wild", "site/+/gw/+/up"),
                          ("exact", "site/north/gw/gw-north/up"),
                          ("other site", "site/south/#"),
                          ("down", "site/north/gw/gw-north/down")):
        bus.subscribe(pattern, lambda payload, env, name=name:
                      got.append((name, payload, env)))
    bus.publish(b"x", envelope())
    assert got == [("wild", b"x", envelope()), ("exact", b"x", envelope())]


def test_gateway_forwards_bytes_untouched():
    bus = InProcessBus()
    seen = []
    bus.subscribe("site/+/gw/+/up", lambda *message: seen.append(message))
    raw = bytearray(range(32))
    bus.publish(raw, envelope(dialog=4))
    raw[0] = 0xFF  # the subscriber holds its own copy of the bytes
    assert seen == [(bytes(range(32)), envelope(dialog=4))]
    assert type(seen[0][0]) is bytes


def test_a_subscriber_added_after_a_topics_first_publish_gets_the_next():
    bus = InProcessBus()
    got = []
    bus.subscribe("site/+/gw/+/up", lambda payload, env: got.append(("a", payload)))
    bus.publish(b"1", envelope())
    bus.subscribe("site/north/#", lambda payload, env: got.append(("b", payload)))
    bus.publish(b"2", envelope())
    assert got == [("a", b"1"), ("a", b"2"), ("b", b"2")]


def test_a_subscriber_added_inside_a_callback_misses_the_message_in_flight():
    bus = InProcessBus()
    got = []

    def first(payload, env):
        got.append(("first", payload))
        if payload == b"1":
            bus.subscribe("site/#", lambda p, e: got.append(("late", p)))

    bus.subscribe("site/+/gw/+/up", first)
    bus.publish(b"1", envelope())
    bus.publish(b"2", envelope())
    assert got == [("first", b"1"), ("first", b"2"), ("late", b"2")]


def test_an_envelope_without_a_dialog_answers_none():
    env = Envelope(7, "gw-north", "north", 12.5)
    assert env.dialog is None
    assert env == (7, "gw-north", "north", 12.5, None)


def test_a_second_subscriber_shares_the_backends_bus_in_a_run():
    config = default_scenario().with_duration(3600)
    sim = build_simulator(config)
    backend = Backend(directory=node_directory(config))
    backend.attach_transport(sim)
    at_site = []
    backend.bus.subscribe("site/GN45/#",
                          lambda payload, env: at_site.append(env.site_id))
    sim.start()
    log = sim.run()
    arrivals = [uid for _, kind, uid, _ in log.rows if kind == "UplinkArrival"]
    site_arrivals = [uid for uid in arrivals
                     if sim.runtime(uid).site_id == "GN45"]
    assert 0 < len(site_arrivals) < len(arrivals)
    assert at_site == ["GN45"] * len(site_arrivals)
    assert backend.ingested == len(arrivals)


def test_ingest_decodes_reading_into_records():
    backend = Backend(directory={7: "E"})
    backend.ingest(reading_frame(), envelope())
    [record] = backend.sink.records
    assert record.timestamp == 1000
    assert record.node_uid == 7
    assert record.site == "north"
    assert record.transect == "E"
    assert record.channel == "t_soil"
    assert record.unit == "°C"
    assert record.value == 3.456  # milli-units divide back exactly


def test_ingest_weather_reading_yields_three_records():
    frame = reading_frame(kind=SensorKind.WEATHER_STATION,
                          values=(-1500, 82000, 3200))
    backend = Backend(directory={7: ""})
    backend.ingest(frame, envelope())
    assert [(r.channel, r.value) for r in backend.sink.records] == [
        ("t_air", -1.5), ("rh", 82.0), ("wind", 3.2)]


def test_ingest_unknown_node_still_sinks_with_envelope_site():
    backend = Backend()
    backend.ingest(reading_frame(), envelope(uid=999))
    [record] = backend.sink.records
    assert record.site == "north"
    assert record.transect == ""


def test_ingest_quarantines_undecodable_payload():
    backend = Backend()
    backend.ingest(b"\x99junkjunk", envelope())
    assert list(backend.sink.records) == []
    assert len(backend.quarantine) == 1
    entry = backend.quarantine[0]
    assert entry.payload == b"\x99junkjunk"
    assert entry.reason
    assert entry.envelope.node_uid == 7


def test_ingest_quarantines_misshapen_reading():
    # a data-file return whose payload is not a reading record
    frame = encode_command((
        AlpAction.return_data(SENSOR_DATA_FILE, 0, b"\x01\x02\x03"),))
    backend = Backend()
    backend.ingest(frame, envelope())
    assert list(backend.sink.records) == []
    assert len(backend.quarantine) == 1


def test_ingest_quarantines_a_reading_that_declares_the_wrong_channel_count():
    # a weather record forged to declare two channels where three are sent
    record = bytearray(SensorReading(100, SensorKind.WEATHER_STATION,
                                     (1, 2, 3)).to_bytes())
    record[5] = 2
    frame = encode_command((
        AlpAction.return_data(SENSOR_DATA_FILE, 0, bytes(record)),))
    backend = Backend()
    backend.ingest(frame, envelope())
    assert list(backend.sink.records) == []
    (entry,) = backend.quarantine
    assert "declares 2 channels, expected 3" in entry.reason


def test_ingest_quarantines_unexpected_opcode():
    frame = encode_command((AlpAction.read(SENSOR_DATA_FILE, 0, 4),))
    backend = Backend()
    backend.ingest(frame, envelope())
    assert len(backend.quarantine) == 1
    assert "opcode" in backend.quarantine[0].reason


def test_ingest_neither_records_nor_quarantines_an_unasked_status():
    frame = encode_command((AlpAction.status(STATUS_OK, 0x41, 3, 1),))
    backend = Backend()
    backend.ingest(frame, envelope())
    assert backend.ingested == 1
    assert list(backend.sink.records) == []
    assert backend.quarantine == []
    assert backend.late_answers == 0


def test_ingest_handles_multi_record_flush_frame():
    records = [SensorReading(t, SensorKind.SOIL_TEMPERATURE, (t,)).to_bytes()
               for t in (100, 200, 300)]
    frame = encode_command(AlpAction.return_data(SENSOR_DATA_FILE, 0, record)
                           for record in records)
    backend = Backend()
    backend.ingest(frame, envelope())
    assert [r.timestamp for r in backend.sink.records] == [100, 200, 300]


def test_csv_sink_writes_header_and_rows(tmp_path):
    path = tmp_path / "readings.csv"
    sink = CsvSink(path)
    sink.append(TimeSeriesRecord(1000, "north", 7, "E", "t_soil", 3.456,
                                 "°C"))
    sink.close()
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(SINK_HEADER)
    assert rows[1] == ["1000", "north", "7", "E", "t_soil", "3.456", "°C"]
    assert path.read_bytes() == (
        "timestamp,site,node_uid,transect,channel,value,unit\r\n"
        "1000,north,7,E,t_soil,3.456,°C\r\n").encode()


def test_csv_sink_replaces_an_existing_file(tmp_path):
    path = tmp_path / "readings.csv"
    first = CsvSink(path)
    first.append(TimeSeriesRecord(1, "north", 7, "E", "t_soil", 1.0, "°C"))
    first.close()
    second = CsvSink(path)
    second.append(TimeSeriesRecord(2, "north", 7, "E", "t_soil", 2.0, "°C"))
    second.close()
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(SINK_HEADER)
    assert [row[0] for row in rows[1:]] == ["2"]


def test_csv_sink_keeps_memory_copy_without_path():
    sink = CsvSink()
    record = TimeSeriesRecord(1, "north", 7, "E", "t_soil", 1.0, "°C")
    sink.append(record)
    assert list(sink.records) == [record]
    sink.close()


def test_csv_sink_gives_back_each_record_exactly():
    records = [
        TimeSeriesRecord(2**32 - 1, "north", 7, "E", "t_soil", 0.1 + 0.2, "°C"),
        TimeSeriesRecord(0, "south", 8, "", "rh", -0.0, "%"),
        TimeSeriesRecord(-1, "north", 7, "E", "t_soil", 1e-300, "°C")]
    sink = CsvSink()
    for record in records:
        sink.append(record)
    assert list(sink.records) == records
    assert math.copysign(1.0, list(sink.records)[1].value) == -1.0
    assert all(type(record) is TimeSeriesRecord for record in sink.records)


def test_csv_sink_reads_the_same_across_its_packed_and_pending_records(tmp_path):
    path = tmp_path / "readings.csv"
    sink = CsvSink(path)
    records = [TimeSeriesRecord(t, "north", 1000 + t % 5, "E", "t_soil",
                                t / 7, "°C") for t in range(2500)]
    for record in records:
        sink.append(record)
    sink.close()
    assert len(sink.records) == len(records)
    assert list(sink.records) == records
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    assert rows == [[str(field) for field in record] for record in records]


@pytest.mark.parametrize("field, bad, reason", [
    ("timestamp", 1.5, "timestamp 1.5 is not an int in int64 range"),
    ("timestamp", True, "timestamp True is not an int in int64 range"),
    ("timestamp", 2**63, f"timestamp {2**63} is not an int in int64 range"),
    ("timestamp", -2**63 - 1,
     f"timestamp {-2**63 - 1} is not an int in int64 range"),
    ("value", "3.5", "value '3.5' is not a finite float"),
    ("value", 3, "value 3 is not a finite float"),
    ("value", float("nan"), "value nan is not a finite float"),
    ("value", float("-inf"), "value -inf is not a finite float"),
], ids=["float timestamp", "bool timestamp", "timestamp above int64",
        "timestamp below int64", "text value", "int value", "nan value",
        "infinite value"])
def test_csv_sink_refuses_a_record_its_arrays_cannot_hold(tmp_path, field,
                                                          bad, reason):
    path = tmp_path / "readings.csv"
    sink = CsvSink(path)
    good = TimeSeriesRecord(1, "north", 7, "E", "t_soil", 1.0, "°C")
    sink.append(good)
    with pytest.raises(ValueError) as refused:
        sink.append(good._replace(**{field: bad}))
    assert str(refused.value) == reason
    sink.close()
    assert list(sink.records) == [good]
    assert path.read_bytes() == (
        "timestamp,site,node_uid,transect,channel,value,unit\r\n"
        "1,north,7,E,t_soil,1.0,°C\r\n").encode()


@pytest.mark.parametrize("with_path", [True, False], ids=["file", "memory"])
def test_csv_sink_refuses_a_record_after_close(tmp_path, with_path):
    path = tmp_path / "readings.csv"
    sink = CsvSink(path if with_path else None)
    good = TimeSeriesRecord(1, "north", 7, "E", "t_soil", 1.0, "°C")
    sink.append(good)
    sink.close()
    with pytest.raises(ValueError, match="the sink is closed"):
        sink.append(good._replace(timestamp=2))
    assert list(sink.records) == [good]
    if with_path:
        assert path.read_bytes().count(b"\n") == 2


class _Label(str):
    """Text that is not exactly a ``str``."""


@pytest.mark.parametrize("field, bad, reason", [
    ("node_uid", 1.0, "node_uid 1.0 is not an int from 0 to 2**64 - 1"),
    ("node_uid", True, "node_uid True is not an int from 0 to 2**64 - 1"),
    ("node_uid", -1, "node_uid -1 is not an int from 0 to 2**64 - 1"),
    ("node_uid", 2**64, f"node_uid {2**64} is not an int from 0 to 2**64 - 1"),
    ("node_uid", "1", "node_uid '1' is not an int from 0 to 2**64 - 1"),
    ("site", None, "site None is not a str"),
    ("transect", 1, "transect 1 is not a str"),
    ("channel", b"t_soil", "channel b't_soil' is not a str"),
    ("unit", _Label("°C"), "unit '°C' is not a str"),
], ids=["float uid", "bool uid", "negative uid", "uid above u64", "text uid",
        "no site", "int transect", "bytes channel", "str subclass unit"])
def test_csv_sink_refuses_a_key_the_file_would_tell_apart(tmp_path, field, bad,
                                                          reason):
    # 1 and 1.0, or 1 and True, are one dict key, so the memory copy
    # would read both back as the first though the file wrote each
    path = tmp_path / "readings.csv"
    sink = CsvSink(path)
    good = TimeSeriesRecord(1, "north", 1, "E", "t_soil", 1.0, "°C")
    sink.append(good)
    with pytest.raises(ValueError) as refused:
        sink.append(good._replace(**{field: bad}))
    assert str(refused.value) == reason
    sink.close()
    assert list(sink.records) == [good]
    assert path.read_bytes() == (
        "timestamp,site,node_uid,transect,channel,value,unit\r\n"
        "1,north,1,E,t_soil,1.0,°C\r\n").encode()


@pytest.mark.parametrize("field", ["site", "transect", "channel", "unit"])
def test_csv_sink_refuses_a_key_utf8_cannot_encode(tmp_path, field):
    # a lone surrogate is a str, but no UTF-8 file can hold it
    path = tmp_path / "readings.csv"
    sink = CsvSink(path)
    good = TimeSeriesRecord(1, "north", 1, "E", "t_soil", 1.0, "°C")
    sink.append(good)
    with pytest.raises(ValueError) as refused:
        sink.append(good._replace(**{field: "\udc80x"}))
    assert str(refused.value) == f"{field} '\\udc80x' is not UTF-8 text"
    sink.close()
    assert list(sink.records) == [good]
    assert path.read_bytes() == (
        "timestamp,site,node_uid,transect,channel,value,unit\r\n"
        "1,north,1,E,t_soil,1.0,°C\r\n").encode()


def test_csv_sink_takes_numbers_under_the_codes_it_gave():
    sink = CsvSink()
    code = sink.code("north", 7, "E", "t_soil", "°C")
    assert sink.code("north", 7, "E", "t_soil", "°C") == code
    assert sink.code("north", 7, "E", "t_air", "°C") != code
    sink.add(5, code, 2.5)
    for bad in (-1, 2, True, 0.0, None):
        with pytest.raises(ValueError, match="is not one this sink gave"):
            sink.add(6, bad, 2.5)
    sink.close()
    with pytest.raises(ValueError, match="the sink is closed"):
        sink.add(6, code, 2.5)
    assert list(sink.records) == [
        TimeSeriesRecord(5, "north", 7, "E", "t_soil", 2.5, "°C")]


#: keys whose text csv must quote or escape, a ``%`` format must not
#: read, or UTF-8 encodes in more than one byte a character
AWKWARD_KEYS = [("a,b", 7, "E", "t_soil", "%"),
                ("north", 8, 'say "hi"', "vwc", "%d"),
                ("south", 2**64 - 1, "", "line\nbreak", "%%r"),
                ("", 0, " lead", "rh", ""),
                ("Ölkelduháls", 9, "Hengill", "t_soil", "°C")]
AWKWARD_VALUES = [0.1 + 0.2, -0.0, 1e-300, -1.5e300, 3.0, -7.25]


def csv_writer_bytes(records) -> bytes:
    """What ``csv.writer`` writes for the header and ``records``."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(SINK_HEADER)
    writer.writerows(records)
    return text.getvalue().encode("utf-8")


@pytest.mark.parametrize("count", [1023, 1024, 1025])
def test_csv_sink_writes_what_csv_writer_writes(tmp_path, count):
    path = tmp_path / "readings.csv"
    sink = CsvSink(path)
    keys = [AWKWARD_KEYS[i % len(AWKWARD_KEYS)] for i in range(count)]
    records = [TimeSeriesRecord(
        (-1) ** i * i * 2**40, *key[:4],
        AWKWARD_VALUES[i % len(AWKWARD_VALUES)] * (i + 1), key[4])
        for i, key in enumerate(keys)]
    for i, record in enumerate(records):
        if i % 500 == 499:
            # refused on its key, on its value, and under a key it was
            # the first to use: none of them may reach file or memory
            with pytest.raises(ValueError):
                sink.append(record._replace(node_uid=7.0))
            with pytest.raises(ValueError):
                sink.append(record._replace(value=math.nan))
            with pytest.raises(ValueError):
                sink.append(record._replace(site="fresh", value=1))
        sink.append(record)
    written = count - count % 1024
    assert path.read_bytes() == csv_writer_bytes(records[:written])
    assert list(sink.records) == records
    sink.close()
    assert path.read_bytes() == csv_writer_bytes(records)
    sink.close()
    assert path.read_bytes() == csv_writer_bytes(records)
    assert list(sink.records) == records
    with open(path, newline="", encoding="utf-8") as handle:
        assert len(list(csv.reader(handle))) == 1 + count


def test_ingest_quarantines_file_data_no_request_asked_for():
    frame = encode_command((
        AlpAction.return_data(NODE_CONFIG_FILE, 0, bytes(12)),))
    backend = Backend()
    backend.ingest(frame, envelope())
    assert len(backend.quarantine) == 1
    assert "0x41" in backend.quarantine[0].reason


def test_answer_in_an_unknown_dialog_is_counted_and_not_a_record():
    backend = Backend()
    backend.ingest(reading_frame(), envelope(dialog=3))
    assert list(backend.sink.records) == []
    assert backend.quarantine == []
    assert backend.late_answers == 1
