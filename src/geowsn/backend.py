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
import io
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .alp import (
    OP_READ,
    OP_RETURN,
    OP_STATUS,
    SENSOR_DATA_FILE,
    AlpAction,
    DecodeError,
    decode_command,
    encode_command,
)
from .netsim import (Envelope, Forwarder, NoSuchNodeError,
                     PayloadTooLargeError, Simulator)
from .node import CHANNELS, MAX_UID, MS_PER_S, SensorKind, unpack_reading
from .store import Store


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
        if type(payload) is not bytes:
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


#: records a sink takes between two spills
_SPILL_RECORDS = 1024
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1
_INF = float("inf")


def _csv_line(fields) -> bytes:
    """A row as ``csv.writer`` writes it, in UTF-8."""
    line = io.StringIO()
    csv.writer(line).writerow(fields)
    return line.getvalue().encode()


def _line_format(key: tuple) -> bytes:
    """The ``%`` format of a ``readings.csv`` row of ``key``: the key's
    fields as ``csv.writer`` renders them, each ``%`` doubled, around
    ``%d`` for the timestamp and ``%a`` for the value, as ``csv.writer``
    renders an int and a float."""
    *fields, unit = [str(field).replace("%", "%%") for field in key]
    return _csv_line(("%d", *fields, "%a", unit))


def _record(stamp: int, key: tuple, value: float) -> TimeSeriesRecord:
    return TimeSeriesRecord(stamp, *key[:4], value, key[4])


class CsvSink:
    """Readings sink; keeps records in memory and, given a path, writes
    them to a new CSV there, replacing any file of that name.

    ``records`` is the sink's ``geowsn.store.Store`` of timestamps, codes
    of ``(site, node_uid, transect, channel, unit)`` keys and float values,
    which yields each record as the ``TimeSeriesRecord`` appended.
    ``code`` gives a key its code, ``add`` takes a ``(timestamp, code,
    value)`` and ``append`` a ``TimeSeriesRecord`` through the two.  The
    store writes the rows at each ``_SPILL_RECORDS``-th record and at
    ``close``.
    """

    def __init__(self, path: str | Path | None = None):
        self._codes: dict[tuple, int] = {}
        self._key_count = 0
        self._room = _SPILL_RECORDS
        self._closed = False
        handle = None
        if path is not None:
            handle = open(path, "wb")
            handle.write(_csv_line(SINK_HEADER))
            handle.flush()
        self.records = Store("d", _line_format, _record, handle)

    def code(self, site: str, node_uid: int, transect: str, channel: str,
             unit: str) -> int:
        """The code of a record key, given on the key's first use.  A
        ``node_uid`` that is not an ``int`` from 0 to ``MAX_UID``, or a
        text field that is not a ``str`` UTF-8 can encode, raises
        ``ValueError`` naming the field: ``7`` and ``7.0``, or ``True``
        and ``1``, would share a code and read back alike though the
        file would tell them apart."""
        if not (type(node_uid) is int and 0 <= node_uid <= MAX_UID):
            raise ValueError(f"node_uid {node_uid!r} is not an int"
                             " from 0 to 2**64 - 1")
        for name, text in (("site", site), ("transect", transect),
                           ("channel", channel), ("unit", unit)):
            if type(text) is not str:
                raise ValueError(f"{name} {text!r} is not a str")
            try:
                text.encode()
            except UnicodeEncodeError:
                raise ValueError(f"{name} {text!r} is not UTF-8 text") from None
        key = (site, node_uid, transect, channel, unit)
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = self._key_count
            self.records.entries += (key,)
            self._key_count += 1
        return code

    def add(self, timestamp: int, code: int, value: float) -> None:
        """Keep one record: its timestamp, the code ``code`` gave its
        key, and its value.  A record the arrays cannot hold exactly,
        one with a code this sink did not give, or one that comes after
        ``close`` raises ``ValueError`` before anything of it is kept."""
        if self._closed:
            raise ValueError("the sink is closed")
        if not (type(timestamp) is int
                and _INT64_MIN <= timestamp <= _INT64_MAX):
            raise ValueError(f"timestamp {timestamp!r} is not an int in"
                             " int64 range")
        if not (type(value) is float and -_INF < value < _INF):
            raise ValueError(f"value {value!r} is not a finite float")
        if not (type(code) is int and 0 <= code < self._key_count):
            raise ValueError(f"code {code!r} is not one this sink gave")
        self.records.pending += (timestamp, code, value)
        self._room -= 1
        if not self._room:
            self.records.spill()
            self._room = _SPILL_RECORDS

    def append(self, record: TimeSeriesRecord) -> None:
        """Keep one record, refused as ``code`` and ``add`` refuse it."""
        stamp, site, node_uid, transect, channel, value, unit = record
        self.add(stamp, self.code(site, node_uid, transect, channel, unit),
                 value)

    def close(self) -> None:
        """Write the rows not yet written and close the file; the
        records stay readable."""
        if self._closed:
            return
        self._closed = True
        self.records.spill()
        if self.records.handle is not None:
            self.records.handle.close()


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
        self._sink = sink if sink is not None else CsvSink()
        self.quarantine: list[QuarantineEntry] = []
        self.late_answers = 0
        self.ingested = 0
        self._dialogs = itertools.count(1)
        self._pending: dict[int, _PendingRequest] = {}
        self._transport: Simulator | None = None
        #: (site, uid, transect, kind) -> its sink key code per channel
        self._channel_codes: dict[tuple, tuple[int, ...]] = {}
        self.bus.subscribe("site/+/gw/+/up", self.ingest)

    @property
    def sink(self) -> CsvSink:
        """The sink the backend was built with: the channel codes the
        backend keeps are this sink's, so it is not swapped."""
        return self._sink

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
            elif (action.opcode is OP_RETURN
                  and action.file_id == SENSOR_DATA_FILE):
                self._decode_reading(envelope, action)
            elif action.opcode is not OP_STATUS:
                self.quarantine.append(QuarantineEntry(
                    envelope, payload,
                    f"unexpected uplink opcode {action.opcode.name}"
                    f" for file 0x{action.file_id:02X}",
                ))

    def _decode_reading(self, envelope: Envelope, action: AlpAction) -> None:
        try:
            timestamp, kind, values_milli = unpack_reading(action.payload)
        except ValueError as exc:
            self.quarantine.append(
                QuarantineEntry(envelope, action.payload, str(exc))
            )
            return
        uid = envelope.node_uid
        key = (envelope.site_id, uid, self.directory.get(uid, ""), kind)
        try:
            codes = self._channel_codes[key]
        except KeyError:
            codes = self._channel_codes[key] = self._code_channels(*key)
        add = self._sink.add
        for code, milli in zip(codes, values_milli):
            add(timestamp, code, milli / 1000.0)

    def _code_channels(self, site: str, uid: int, transect: str,
                       kind: SensorKind) -> tuple[int, ...]:
        """The sink's key code for each channel of a node's readings."""
        code = self._sink.code
        return tuple([code(site, uid, transect, spec.name, spec.unit)
                      for spec in CHANNELS[kind]])

    def _resolve(self, dialog: int, answer: AlpAction) -> None:
        """Hand an answer to the request pending in its dialog: returned
        data answers a read, a status echoing a write answers the write.
        Anything else in the dialog answers nothing."""
        request = self._pending.get(dialog)
        if request is None:
            return
        asked = request.action
        if asked.opcode is OP_READ:
            if answer.opcode is not OP_RETURN:
                return
            request.result = answer.payload
        elif answer.opcode is OP_STATUS and (
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
        The command's TTL is the timeout, so one still queued then never runs.
        """
        if not 0 < timeout_s < float("inf"):
            raise ValueError(f"timeout_s {timeout_s!r} is not finite and > 0")
        transport = self._transport
        if transport is None:
            raise BackendError("remote file access needs an attached transport")
        dialog = next(self._dialogs)
        try:
            transport.queue_downlink(node_uid, encode_command((action,)),
                                     ttl_s=timeout_s, dialog=dialog)
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
