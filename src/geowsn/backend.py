"""Backend side of the split stack: bus, ingestion and remote file access.

Gateways are deliberately dumb.  They wrap the raw bytes a node sent in
an envelope and publish them on ``site/<site>/gw/<gw>/up``; all protocol
decoding happens here, behind the bus.  The bus itself is a small
publish/subscribe protocol (topic wildcards ``+`` and ``#``), shipped
with an in-process implementation; any broker client with the same two
methods can replace it.

Decoded sensor readings land in an append-only CSV sink.  Anything that
does not decode is quarantined with its envelope rather than dropped.
Remote reads and writes of node files ride the same bus downlink, each
in a dialog of its own: the node's answers carry the dialog id back, so
an answer resolves its own request and no other.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

from .alp import (
    SENSOR_DATA_FILE,
    AlpAction,
    AlpCommand,
    DecodeError,
    Opcode,
    decode_command,
    encode_command,
)
from .netsim import PayloadTooLargeError
from .node import SensorReading

SINK_HEADER = ("timestamp", "site", "node_uid", "transect", "channel",
               "value", "unit")


class BackendError(Exception):
    pass


class NodeUnknownError(BackendError):
    def __init__(self, node_uid: int):
        super().__init__(f"node {node_uid} is not in the directory")
        self.node_uid = node_uid


class RequestTimeoutError(BackendError):
    pass


class DownlinkTooLargeError(BackendError):
    """A command too large for the target node's link."""


@dataclass(frozen=True)
class Envelope:
    """Transport metadata a gateway attaches to forwarded bytes;
    ``dialog`` ties a request to its answers (None on anything else)."""

    node_uid: int
    gateway_id: str
    site_id: str
    rx_timestamp: float
    dialog: int | None = None


@dataclass(frozen=True)
class BusMessage:
    topic: str
    payload: bytes
    envelope: Envelope


def up_topic(site_id: str, gateway_id: str) -> str:
    return f"site/{site_id}/gw/{gateway_id}/up"


def down_topic(site_id: str, gateway_id: str) -> str:
    return f"site/{site_id}/gw/{gateway_id}/down"


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


class BusClient(Protocol):
    """What the backend requires of a broker client."""

    def publish(self, topic: str, payload: bytes, envelope: Envelope) -> None: ...

    def subscribe(self, pattern: str,
                  callback: Callable[[BusMessage], None]) -> None: ...


class InProcessBus:
    """Synchronous in-process bus: publish order is delivery order, so
    messages on one topic arrive strictly FIFO."""

    def __init__(self) -> None:
        self._subscriptions: list[tuple[str, Callable[[BusMessage], None]]] = []
        self.published: int = 0

    def subscribe(self, pattern: str,
                  callback: Callable[[BusMessage], None]) -> None:
        self._subscriptions.append((pattern, callback))

    def publish(self, topic: str, payload: bytes, envelope: Envelope) -> None:
        self.published += 1
        message = BusMessage(topic, bytes(payload), envelope)
        for pattern, callback in list(self._subscriptions):
            if topic_matches(pattern, topic):
                callback(message)


def gateway_forward(bus: BusClient, raw: bytes, envelope: Envelope) -> None:
    """What a gateway does with node bytes: wrap and publish, bit for
    bit, without looking inside."""
    bus.publish(up_topic(envelope.site_id, envelope.gateway_id), raw, envelope)


@dataclass(frozen=True)
class TimeSeriesRecord:
    """One channel of one decoded reading."""

    timestamp: int
    site: str
    node_uid: int
    transect: str
    channel: str
    value: float
    unit: str

    def as_row(self) -> tuple:
        return (self.timestamp, self.site, self.node_uid, self.transect,
                self.channel, self.value, self.unit)


@dataclass
class QuarantineEntry:
    envelope: Envelope
    payload: bytes
    reason: str


class CsvSink:
    """Append-only readings sink; also keeps records in memory."""

    def __init__(self, path: str | Path | None = None):
        self.records: list[TimeSeriesRecord] = []
        self._writer = None
        self._handle = None
        if path is not None:
            path = Path(path)
            new_file = not path.exists() or path.stat().st_size == 0
            self._handle = open(path, "a", newline="")
            self._writer = csv.writer(self._handle)
            if new_file:
                self._writer.writerow(SINK_HEADER)

    def append(self, record: TimeSeriesRecord) -> None:
        self.records.append(record)
        if self._writer is not None:
            self._writer.writerow(record.as_row())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._writer = None


@dataclass
class _PendingRequest:
    action: AlpAction
    result: object = None


class SimTransport(Protocol):
    """What the backend needs from an attached network to drive remote
    operations to completion."""

    now_ms: int
    sites: dict

    def set_forwarder(self, site_id: str, forwarder) -> None: ...

    def queue_downlink(self, node_uid: int, payload: bytes, ttl_s: float = ...,
                       dialog: int | None = None): ...

    def run_until(self, predicate, deadline_ms: int | None = None) -> bool: ...


class Backend:
    """Application layer: decodes uplinks, answers nothing it cannot
    parse silently, and drives remote file access."""

    def __init__(self, bus: BusClient | None = None,
                 directory: dict[int, dict] | None = None,
                 sink: CsvSink | None = None):
        self.bus = bus if bus is not None else InProcessBus()
        self.directory = dict(directory or {})
        self.sink = sink if sink is not None else CsvSink()
        self.status_log: list[tuple[Envelope, AlpAction]] = []
        self.quarantine: list[QuarantineEntry] = []
        self.late_answers = 0
        self.ingested = 0
        self._dialogs = itertools.count(1)
        self._pending: dict[int, _PendingRequest] = {}
        self._transport: SimTransport | None = None
        self.bus.subscribe("site/+/gw/+/up", self.ingest)

    # -- wiring ---------------------------------------------------------

    def attach_transport(self, sim: SimTransport) -> None:
        """Wire a simulated network to the bus: its gateways publish
        uplinks here and downlink messages feed its gateway queues."""
        self._transport = sim
        for site_id in sim.sites:
            sim.set_forwarder(site_id, self._forward)
        self.bus.subscribe("site/+/gw/+/down", self._on_down)

    def _forward(self, payload: bytes, node_uid: int, gateway_id: str,
                 site_id: str, rx_timestamp_s: float,
                 dialog: int | None) -> None:
        gateway_forward(
            self.bus, payload,
            Envelope(node_uid, gateway_id, site_id, rx_timestamp_s, dialog),
        )

    def _on_down(self, message: BusMessage) -> None:
        node_uid = message.envelope.node_uid
        try:
            self._transport.queue_downlink(node_uid, message.payload,
                                           dialog=message.envelope.dialog)
        except PayloadTooLargeError as exc:
            raise DownlinkTooLargeError(f"node {node_uid}: {exc}") from exc

    # -- ingestion ---------------------------------------------------------

    def ingest(self, message: BusMessage) -> list[TimeSeriesRecord]:
        """Decode one uplink message into time-series records.

        Statuses go to the status log.  A frame stamped with a dialog
        only answers that dialog's request.  In an unstamped frame,
        sensor data becomes one record per channel (milli-units scaled
        back exactly); anything else undecodable or unasked for is
        quarantined with its envelope.
        """
        self.ingested += 1
        envelope = message.envelope
        try:
            command = decode_command(message.payload)
        except DecodeError as exc:
            self.quarantine.append(
                QuarantineEntry(envelope, message.payload, str(exc))
            )
            return []
        dialog = envelope.dialog
        if dialog is not None and dialog not in self._pending:
            self.late_answers += 1  # its request timed out or is answered
        records: list[TimeSeriesRecord] = []
        for action in command:
            if action.opcode is Opcode.STATUS:
                self.status_log.append((envelope, action))
            if dialog is not None:
                self._resolve(dialog, action)
            elif (action.opcode is Opcode.RETURN_FILE_DATA
                  and action.file_id == SENSOR_DATA_FILE):
                records.extend(self._decode_reading(envelope, action))
            elif action.opcode is not Opcode.STATUS:
                self.quarantine.append(QuarantineEntry(
                    envelope, message.payload,
                    f"unexpected uplink opcode {action.opcode.name}"
                    f" for file 0x{action.file_id:02X}",
                ))
        return records

    def _decode_reading(self, envelope: Envelope,
                        action: AlpAction) -> list[TimeSeriesRecord]:
        try:
            reading = SensorReading.from_bytes(action.payload)
        except ValueError as exc:
            self.quarantine.append(
                QuarantineEntry(envelope, action.payload, str(exc))
            )
            return []
        entry = self.directory.get(envelope.node_uid, {})
        records = []
        for name, unit, value in reading.channel_values():
            record = TimeSeriesRecord(
                timestamp=reading.timestamp,
                site=entry.get("site_id", envelope.site_id),
                node_uid=envelope.node_uid,
                transect=entry.get("transect", ""),
                channel=name,
                value=value,
                unit=unit,
            )
            self.sink.append(record)
            records.append(record)
        return records

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
        """Send one action to a node over the air in a dialog of its own,
        and drive the attached network until the node answers in that
        dialog or the timeout lapses.

        Requests to the same file range need not wait for one another:
        an answer resolves only the request whose dialog it carries.
        """
        try:
            entry = self.directory[node_uid]
        except KeyError:
            raise NodeUnknownError(node_uid) from None
        transport = self._transport
        if transport is None:
            raise BackendError("remote file access needs an attached transport")
        dialog = next(self._dialogs)
        request = self._pending[dialog] = _PendingRequest(action)
        site_id = entry["site_id"]
        gateway_id = entry.get("gateway_id", f"gw-{site_id}")
        envelope = Envelope(node_uid, gateway_id, site_id,
                            transport.now_ms / 1000, dialog)
        try:
            self.bus.publish(down_topic(site_id, gateway_id),
                             encode_command(AlpCommand((action,))), envelope)
            transport.run_until(lambda: dialog not in self._pending,
                                transport.now_ms + round(timeout_s * 1000))
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
