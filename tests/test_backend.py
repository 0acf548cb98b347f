"""Bus routing, uplink ingestion and the CSV sink."""

import csv

import pytest

from geowsn.alp import (
    NODE_CONFIG_FILE,
    AlpAction,
    AlpCommand,
    SENSOR_DATA_FILE,
    STATUS_OK,
    encode_command,
)
from geowsn.backend import (
    Backend,
    BusMessage,
    CsvSink,
    Envelope,
    InProcessBus,
    SINK_HEADER,
    TimeSeriesRecord,
    gateway_forward,
    topic_matches,
    up_topic,
)
from geowsn.node import SensorKind, SensorReading


def reading_frame(timestamp: int = 1000,
                  kind: SensorKind = SensorKind.SOIL_TEMPERATURE,
                  values=(3456,)) -> bytes:
    record = SensorReading(timestamp, kind, tuple(values)).to_bytes()
    return encode_command(AlpCommand((
        AlpAction.return_data(SENSOR_DATA_FILE, 0, record),)))


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
    bus = InProcessBus()
    got = []
    bus.subscribe("site/+/gw/+/up", lambda m: got.append(("wild", m.topic)))
    bus.subscribe("site/north/gw/gw-1/up",
                  lambda m: got.append(("exact", m.topic)))
    bus.subscribe("site/+/gw/+/down", lambda m: got.append(("down", m.topic)))
    bus.publish("site/north/gw/gw-1/up", b"x", envelope())
    assert got == [("wild", "site/north/gw/gw-1/up"),
                   ("exact", "site/north/gw/gw-1/up")]


def test_gateway_forwards_bytes_untouched():
    bus = InProcessBus()
    seen: list[BusMessage] = []
    bus.subscribe("site/+/gw/+/up", seen.append)
    raw = bytes(range(32))
    gateway_forward(bus, raw, envelope())
    assert len(seen) == 1
    assert seen[0].payload == raw
    assert seen[0].topic == "site/north/gw/gw-north/up"
    assert seen[0].envelope.node_uid == 7


def test_ingest_decodes_reading_into_records():
    backend = Backend(directory={7: {"site_id": "north", "transect": "E"}})
    records = backend.ingest(
        BusMessage("site/north/gw/gw-north/up", reading_frame(), envelope()))
    assert len(records) == 1
    record = records[0]
    assert record.timestamp == 1000
    assert record.node_uid == 7
    assert record.site == "north"
    assert record.transect == "E"
    assert record.channel == "t_soil"
    assert record.unit == "°C"
    assert record.value == 3.456  # milli-units divide back exactly
    assert backend.sink.records == records


def test_ingest_weather_reading_yields_three_records():
    frame = reading_frame(kind=SensorKind.WEATHER_STATION,
                          values=(-1500, 82000, 3200))
    backend = Backend(directory={7: {"site_id": "north", "transect": ""}})
    records = backend.ingest(
        BusMessage("site/north/gw/gw-north/up", frame, envelope()))
    assert [(r.channel, r.value) for r in records] == [
        ("t_air", -1.5), ("rh", 82.0), ("wind", 3.2)]


def test_ingest_unknown_node_still_sinks_with_envelope_site():
    backend = Backend()
    records = backend.ingest(
        BusMessage("site/north/gw/gw-north/up", reading_frame(),
                   envelope(uid=999)))
    assert len(records) == 1
    assert records[0].site == "north"
    assert records[0].transect == ""


def test_ingest_quarantines_undecodable_payload():
    backend = Backend()
    records = backend.ingest(
        BusMessage("site/north/gw/gw-north/up", b"\x99junkjunk", envelope()))
    assert records == []
    assert len(backend.quarantine) == 1
    entry = backend.quarantine[0]
    assert entry.payload == b"\x99junkjunk"
    assert entry.reason
    assert entry.envelope.node_uid == 7


def test_ingest_quarantines_misshapen_reading():
    # a data-file return whose payload is not a reading record
    frame = encode_command(AlpCommand((
        AlpAction.return_data(SENSOR_DATA_FILE, 0, b"\x01\x02\x03"),)))
    backend = Backend()
    records = backend.ingest(
        BusMessage("site/north/gw/gw-north/up", frame, envelope()))
    assert records == []
    assert len(backend.quarantine) == 1


def test_ingest_quarantines_unexpected_opcode():
    frame = encode_command(AlpCommand((
        AlpAction.read(SENSOR_DATA_FILE, 0, 4),)))
    backend = Backend()
    backend.ingest(BusMessage("site/north/gw/gw-north/up", frame, envelope()))
    assert len(backend.quarantine) == 1
    assert "opcode" in backend.quarantine[0].reason


def test_ingest_logs_status_actions():
    frame = encode_command(AlpCommand((
        AlpAction.status(STATUS_OK, 0x41, 3, 1),)))
    backend = Backend()
    records = backend.ingest(
        BusMessage("site/north/gw/gw-north/up", frame, envelope()))
    assert records == []
    assert len(backend.status_log) == 1
    env, action = backend.status_log[0]
    assert env.node_uid == 7
    assert action.payload[0] == STATUS_OK


def test_ingest_handles_multi_record_flush_frame():
    records = [SensorReading(t, SensorKind.SOIL_TEMPERATURE, (t,)).to_bytes()
               for t in (100, 200, 300)]
    frame = encode_command(AlpCommand(tuple(
        AlpAction.return_data(SENSOR_DATA_FILE, 0, record)
        for record in records)))
    backend = Backend()
    out = backend.ingest(
        BusMessage("site/north/gw/gw-north/up", frame, envelope()))
    assert [r.timestamp for r in out] == [100, 200, 300]


def test_csv_sink_writes_header_and_rows(tmp_path):
    path = tmp_path / "readings.csv"
    sink = CsvSink(path)
    sink.append(TimeSeriesRecord(1000, "north", 7, "E", "t_soil", 3.456,
                                 "°C"))
    sink.close()
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(SINK_HEADER)
    assert rows[1] == ["1000", "north", "7", "E", "t_soil", "3.456", "°C"]


def test_csv_sink_appends_without_second_header(tmp_path):
    path = tmp_path / "readings.csv"
    first = CsvSink(path)
    first.append(TimeSeriesRecord(1, "north", 7, "E", "t_soil", 1.0, "°C"))
    first.close()
    second = CsvSink(path)
    second.append(TimeSeriesRecord(2, "north", 7, "E", "t_soil", 2.0, "°C"))
    second.close()
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 3
    assert rows[0] == list(SINK_HEADER)
    assert [row[0] for row in rows[1:]] == ["1", "2"]


def test_csv_sink_keeps_memory_copy_without_path():
    sink = CsvSink()
    record = TimeSeriesRecord(1, "north", 7, "E", "t_soil", 1.0, "°C")
    sink.append(record)
    assert sink.records == [record]
    sink.close()


def test_ingest_quarantines_file_data_no_request_asked_for():
    frame = encode_command(AlpCommand((
        AlpAction.return_data(NODE_CONFIG_FILE, 0, bytes(12)),)))
    backend = Backend()
    backend.ingest(BusMessage("site/north/gw/gw-north/up", frame, envelope()))
    assert len(backend.quarantine) == 1
    assert "0x41" in backend.quarantine[0].reason


def test_answer_in_an_unknown_dialog_is_counted_and_not_a_record():
    backend = Backend()
    records = backend.ingest(BusMessage(
        "site/north/gw/gw-north/up", reading_frame(), envelope(dialog=3)))
    assert records == []
    assert backend.sink.records == []
    assert backend.quarantine == []
    assert backend.late_answers == 1
