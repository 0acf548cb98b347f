"""Backend side of the split stack: bus, ingestion and remote file access.

Gateways are deliberately dumb.  They publish the raw bytes a node sent
with their envelope, on the topic ``site/<site>/gw/<gw>/up`` that the
envelope names; all protocol decoding happens here, behind the bus.  The
bus is a small publish/subscribe protocol (topic wildcards ``+`` and
``#``), shipped with an in-process implementation; any broker client
with the same two methods can replace it.

Decoded sensor readings land in a CSV sink.  Anything that
does not decode is quarantined with its envelope rather than dropped.
Remote reads and writes of node files are queued at the node's gateway,
each in a dialog of its own; the node's answers ride the bus up with the
dialog id, so an answer resolves its own request and no other.
"""

from __future__ import annotations

import csv
import itertools
import operator
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .alp import (
    SENSOR_DATA_FILE,
    AlpAction,
    DecodeError,
    Opcode,
    decode_command,
    encode_command,
)
from .netsim import (MS_PER_S, Envelope, Forwarder, NoSuchNodeError,
                     PayloadTooLargeError, Simulator)
from .node import CHANNELS, SensorReading


class BackendError(Exception):
    pass


class NodeUnknownError(BackendError):
    def __init__(self, node_uid: int):
        super().__init__(f"node {node_uid} is not in the network")
        self.node_uid = node_uid


class RequestTimeoutError(BackendError):
    pass


class DownlinkTooLargeError(BackendError):
    """A command too large for the target node's link."""


def up_topic(site_id: str, gateway_id: str) -> str:
    return f"site/{site_id}/gw/{gateway_id}/up"


def topic_matches(pattern: str, topic: str) -> bool:
    """Match a topic against a filter with ``+`` (one level) and a
    trailing ``#`` (any remainder)."""
    pattern_parts = pattern.split("/")
    topic_parts = topic.split("/")
    for i, part in enumerate(pattern_parts):
        if part == "#":
            return i == len(pattern_parts) - 1
        if i >= len(topic_parts):
            return False
        if part != "+" and part != topic_parts[i]:
            return False
    return len(pattern_parts) == len(topic_parts)


class InProcessBus:
    """Synchronous in-process bus: publish order is delivery order, so
    messages on one topic arrive strictly FIFO."""

    def __init__(self) -> None:
        self._subscriptions: list[tuple[str, Forwarder]] = []
        #: (site, gateway) -> its topic's callbacks; subscribe empties it
        self._routes: dict[tuple[str, str], tuple[Forwarder, ...]] = {}

    def subscribe(self, pattern: str, callback: Forwarder) -> None:
        self._subscriptions.append((pattern, callback))
        self._routes.clear()

    def publish(self, payload: bytes, envelope: Envelope) -> None:
        """What a gateway does with node bytes: publish them bit for bit,
        without looking inside, to those subscribed to the topic its
        envelope names when publishing began."""
        route = (envelope.site_id, envelope.gateway_id)
        callbacks = self._routes.get(route)
        if callbacks is None:
            topic = up_topic(*route)
            callbacks = self._routes[route] = tuple(
                callback for pattern, callback in self._subscriptions
                if topic_matches(pattern, topic))
        payload = bytes(payload)
        for callback in callbacks:
            callback(payload, envelope)


class TimeSeriesRecord(NamedTuple):
    """One channel of one decoded reading; its fields are its sink row."""

    timestamp: int
    site: str
    node_uid: int
    transect: str
    channel: str
    value: float
    unit: str


SINK_HEADER = TimeSeriesRecord._fields


@dataclass
class QuarantineEntry:
    envelope: Envelope
    payload: bytes
    reason: str


#: records a sink takes before it packs them into its typed arrays
_SPILL_RECORDS = 1024
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1
_INF = float("inf")


class _RecordCodes(dict):
    """A sink's code for each ``(site, node_uid, transect, channel,
    unit)`` key it has taken: the index of the key in its key table,
    added on the key's first use."""

    def __init__(self, table: list[tuple]):
        self.table = table

    def __missing__(self, key: tuple) -> int:
        code = self[key] = len(self.table)
        self.table.append(key)
        return code


class _Records:
    """A sink's records, each built as a ``TimeSeriesRecord`` only when
    it is read; nothing is copied."""

    def __init__(self, table: list[tuple], ints: array, values: array,
                 pending: list):
        self._table = table
        self._ints = ints
        self._values = values
        self._pending = pending

    def __len__(self) -> int:
        return len(self._values) + len(self._pending) // 3

    def __getitem__(self, index: int) -> TimeSeriesRecord:
        index = operator.index(index)
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("record index out of range")
        packed = len(self._values)
        if index < packed:
            stamp, code = self._ints[2 * index:2 * index + 2]
            return self._record(stamp, code, self._values[index])
        at = 3 * (index - packed)
        return self._record(*self._pending[at:at + 3])

    def __iter__(self) -> Iterator[TimeSeriesRecord]:
        ints = iter(self._ints)
        pending = iter(self._pending)
        for slots in itertools.chain(zip(ints, ints, self._values),
                                     zip(pending, pending, pending)):
            yield self._record(*slots)

    def _record(self, stamp: int, code: int, value: float) -> TimeSeriesRecord:
        site, node_uid, transect, channel, unit = self._table[code]
        return TimeSeriesRecord(stamp, site, node_uid, transect, channel,
                                value, unit)


class CsvSink:
    """Readings sink; keeps records in memory and, given a path, writes
    them to a new CSV there, replacing any file of that name.

    A record is kept as numbers: its timestamp and the code of its
    ``(site, node_uid, transect, channel, unit)`` key, two slots in one
    ``array('q')``, and its value in an ``array('d')``; the key table
    grows with nodes and channels, not with records.  Records are taken
    onto a short pending list and packed into the arrays
    ``_SPILL_RECORDS`` at a time.  ``records`` is a view: its length
    renders nothing, and reading yields one ``TimeSeriesRecord`` at a
    time, equal field for field to the one appended.  The CSV is written
    a row per append, from the record as given.
    """

    def __init__(self, path: str | Path | None = None):
        table: list[tuple[str, int, str, str, str]] = []
        self._codes = _RecordCodes(table)
        self._ints = array("q")
        self._values = array("d")
        self._pending: list = []  # timestamp, code, value per record
        self._room = _SPILL_RECORDS
        self._closed = False
        self.records = _Records(table, self._ints, self._values, self._pending)
        self._writer = None
        self._handle = None
        if path is not None:
            self._handle = open(path, "w", newline="", encoding="utf-8")
            self._writer = csv.writer(self._handle)
            self._writer.writerow(SINK_HEADER)

    def append(self, record: TimeSeriesRecord) -> None:
        """Keep one record and write its row.  A record the arrays
        cannot hold exactly, or one that comes after ``close``, raises
        ``ValueError`` before anything of it is written or kept."""
        if self._closed:
            raise ValueError("the sink is closed")
        stamp, site, node_uid, transect, channel, value, unit = record
        if not (type(stamp) is int and _INT64_MIN <= stamp <= _INT64_MAX):
            raise ValueError(f"timestamp {stamp!r} is not an int in int64 range")
        if not (type(value) is float and -_INF < value < _INF):
            raise ValueError(f"value {value!r} is not a finite float")
        code = self._codes[site, node_uid, transect, channel, unit]
        if self._writer is not None:
            self._writer.writerow(record)
        self._pending += (stamp, code, value)
        self._room -= 1
        if not self._room:
            self._spill()

    def _spill(self) -> None:
        """Pack the pending records into the arrays."""
        pending = self._pending
        self._values.fromlist(pending[2::3])
        del pending[2::3]
        self._ints.fromlist(pending)
        pending.clear()
        self._room = _SPILL_RECORDS

    def close(self) -> None:
        self._closed = True
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._writer = None


@dataclass
class _PendingRequest:
    action: AlpAction
    result: object = None


class Backend:
    """Application layer: decodes uplinks, answers nothing it cannot
    parse silently, and drives remote file access.  ``directory`` maps
    a uid to its transect for the sink; the site comes from the
    forwarding gateway, and which nodes exist from the attached network."""

    def __init__(self, directory: dict[int, str] | None = None,
                 sink: CsvSink | None = None):
        self.bus = InProcessBus()
        self.directory = dict(directory or {})
        self.sink = sink if sink is not None else CsvSink()
        self.quarantine: list[QuarantineEntry] = []
        self.late_answers = 0
        self.ingested = 0
        self._dialogs = itertools.count(1)
        self._pending: dict[int, _PendingRequest] = {}
        self._transport: Simulator | None = None
        self.bus.subscribe("site/+/gw/+/up", self.ingest)

    # -- wiring ---------------------------------------------------------

    def attach_transport(self, sim: Simulator) -> None:
        """Wire a simulated network to the backend: its gateways publish
        uplinks on the bus, and remote commands are queued at the
        target node's gateway.  The network alone says which nodes
        exist and at which site."""
        self._transport = sim
        sim.forwarder = self.bus.publish

    # -- ingestion ---------------------------------------------------------

    def ingest(self, payload: bytes, envelope: Envelope) -> None:
        """Decode one uplink into time-series records for the sink.

        A frame stamped with a dialog only answers that dialog's
        request.  In an unstamped frame, sensor data becomes one record
        per channel (milli-units scaled back exactly), a status is
        dropped, and anything else undecodable or unasked for is
        quarantined with its envelope.
        """
        self.ingested += 1
        try:
            actions = decode_command(payload)
        except DecodeError as exc:
            self.quarantine.append(QuarantineEntry(envelope, payload, str(exc)))
            return
        dialog = envelope.dialog
        if dialog is not None and dialog not in self._pending:
            self.late_answers += 1  # its request timed out or is answered
        for action in actions:
            if dialog is not None:
                self._resolve(dialog, action)
            elif (action.opcode is Opcode.RETURN_FILE_DATA
                  and action.file_id == SENSOR_DATA_FILE):
                self._decode_reading(envelope, action)
            elif action.opcode is not Opcode.STATUS:
                self.quarantine.append(QuarantineEntry(
                    envelope, payload,
                    f"unexpected uplink opcode {action.opcode.name}"
                    f" for file 0x{action.file_id:02X}",
                ))

    def _decode_reading(self, envelope: Envelope, action: AlpAction) -> None:
        try:
            reading = SensorReading.from_bytes(action.payload)
        except ValueError as exc:
            self.quarantine.append(
                QuarantineEntry(envelope, action.payload, str(exc))
            )
            return
        transect = self.directory.get(envelope.node_uid, "")
        for spec, milli in zip(CHANNELS[reading.kind], reading.values_milli):
            self.sink.append(TimeSeriesRecord(
                timestamp=reading.timestamp,
                site=envelope.site_id,
                node_uid=envelope.node_uid,
                transect=transect,
                channel=spec.name,
                value=milli / 1000.0,
                unit=spec.unit,
            ))

    def _resolve(self, dialog: int, answer: AlpAction) -> None:
        """Hand an answer to the request pending in its dialog: returned
        data answers a read, a status echoing a write answers the write.
        Anything else in the dialog answers nothing."""
        request = self._pending.get(dialog)
        if request is None:
            return
        asked = request.action
        if asked.opcode is Opcode.READ_FILE_DATA:
            if answer.opcode is not Opcode.RETURN_FILE_DATA:
                return
            request.result = answer.payload
        elif answer.opcode is Opcode.STATUS and (
                (answer.file_id, answer.offset, answer.length)
                == (asked.file_id, asked.offset, asked.length)):
            request.result = answer.payload[0]
        else:
            return
        del self._pending[dialog]

    # -- remote file access --------------------------------------------------

    def _request(self, node_uid: int, action: AlpAction, timeout_s: float):
        """Queue one action at the node's gateway in a dialog of its own,
        and drive the attached network until the node answers in that
        dialog or the timeout lapses.

        Requests to the same file range need not wait for one another:
        an answer resolves only the request whose dialog it carries.
        """
        if not 0 < timeout_s < float("inf"):
            raise ValueError(f"timeout_s {timeout_s!r} is not finite and > 0")
        transport = self._transport
        if transport is None:
            raise BackendError("remote file access needs an attached transport")
        dialog = next(self._dialogs)
        try:
            transport.queue_downlink(node_uid, encode_command((action,)),
                                     dialog=dialog)
        except NoSuchNodeError:
            raise NodeUnknownError(node_uid) from None
        except PayloadTooLargeError as exc:
            raise DownlinkTooLargeError(f"node {node_uid}: {exc}") from exc
        request = self._pending[dialog] = _PendingRequest(action)
        try:
            transport.run_until(lambda: dialog not in self._pending,
                                transport.now_ms + round(timeout_s * MS_PER_S))
            if dialog in self._pending:
                raise RequestTimeoutError(
                    f"node {node_uid} did not answer within {timeout_s} s"
                )
        except BaseException:
            self._pending.pop(dialog, None)
            raise
        return request.result

    def remote_read_file(self, node_uid: int, file_id: int, offset: int,
                         length: int, timeout_s: float = 60.0) -> bytes:
        """Read a byte range of a node file over the air.

        Blocks (driving the attached network) until the node's answer
        arrives or the timeout lapses.  A read of the sensor-data file
        wakes the sensor: it returns the bytes held before that sample,
        and the fresh reading reaches the sink as a record.
        """
        return self._request(node_uid, AlpAction.read(file_id, offset, length),
                             timeout_s)

    def remote_write_file(self, node_uid: int, file_id: int, offset: int,
                          payload: bytes, timeout_s: float = 60.0) -> int:
        """Write bytes into a node file over the air; returns the
        node's status byte (0 is success)."""
        return self._request(node_uid, AlpAction.write(file_id, offset, payload),
                             timeout_s)
