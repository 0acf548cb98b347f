"""Firmware model of a buried sensor node.

A node is a small file server with a sensor attached.  Its behaviour
is driven entirely by file accesses, whose side effects the node runs
itself once an access has succeeded: writing the configuration file
reconfigures it (and byte 3 doubles as a remote-command slot), a write
to the sensor-data file is echoed uplink, a read of it wakes the sensor
for a fresh reading, and a periodic timer samples the bound sensor
driver.  The node never talks to a network directly; it appends
ready-to-send byte strings to an outbox that a transport (the
simulator) drains, and the transport reports each uplink's fate back
so the node can spool undelivered readings through its flash buffer.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from itertools import islice
from math import isfinite, sin, tau
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .alp import (
    ACTION_HEADER_SIZE,
    NODE_CONFIG_FILE,
    SENSOR_DATA_FILE,
    STATUS_DRIVER_FAULT,
    STATUS_FILE_ACCESS_ERROR,
    STATUS_MALFORMED_COMMAND,
    STATUS_OK,
    STATUS_RESERVED_ACTION_CODE,
    STATUS_UNKNOWN_SENSOR_TYPE,
    AlpAction,
    DecodeError,
    FileAccessError,
    FileHeader,
    FileStore,
    OP_READ,
    OP_RETURN,
    OP_WRITE,
    decode_command,
    encode_command,
)

NODE_CONFIG_SIZE = 12
#: the sensor-data file is sized for the largest reading record
DATA_FILE_SIZE = 32

#: sensor_type u8, sensor_address u16, sensor_action u8,
#: sampling_rate u32 (seconds), rtc_time u32 (unix seconds)
_CONFIG = struct.Struct("<BHBII")
_RECORD_HEAD = struct.Struct("<IBB")

#: writing this to config byte 3 makes the node measure and transmit now
ACTION_MEASURE_AND_TRANSMIT = 0xAA
ACTION_NONE = 0x00

FLASH_CAPACITY_RECORDS = 256
#: the largest frame a node sends until a simulator gives it its
#: site's link limit, and a link's limit unless its site sets one
MAX_PAYLOAD_BYTES = 256
#: the largest node uid: a DASH7 UID is 64 bits
MAX_UID = 2**64 - 1
FLUSH_BATCH_RECORDS = 8
WATCHDOG_PERIOD_S = 120.0


class ConfigError(ValueError):
    """Raised for malformed node configuration images."""


class SensorKind(IntEnum):
    """Sensor classes a node can host, as carried in config byte 0."""

    SOIL_TEMPERATURE = 0x01
    SOIL_WATER_CONTENT = 0x02
    WEATHER_STATION = 0x03


@dataclass(frozen=True)
class ChannelSpec:
    name: str
    unit: str


CHANNELS: dict[SensorKind, tuple[ChannelSpec, ...]] = {
    SensorKind.SOIL_TEMPERATURE: (ChannelSpec("t_soil", "°C"),),
    SensorKind.SOIL_WATER_CONTENT: (ChannelSpec("vwc", "%"),),
    SensorKind.WEATHER_STATION: (
        ChannelSpec("t_air", "°C"),
        ChannelSpec("rh", "%"),
        ChannelSpec("wind", "m/s"),
    ),
}

#: kind code -> member, without ``Enum.__call__`` on every record
_KINDS = {int(kind): kind for kind in SensorKind}
#: one whole record per kind: the head, then an i32 per channel
_RECORDS = {kind: struct.Struct(f"{_RECORD_HEAD.format}{len(specs)}i")
            for kind, specs in CHANNELS.items()}

#: a status frame, one action header and its status byte: the only
#: frame a node sends whatever its link's limit
STATUS_FRAME_BYTES = ACTION_HEADER_SIZE + 1
#: a single reading's frame per kind, one action header and its record
READING_FRAME_BYTES = {kind: ACTION_HEADER_SIZE + record.size
                       for kind, record in _RECORDS.items()}


@dataclass(frozen=True)
class NodeConfig:
    """The 12-byte packed configuration image.

    ``sampling_rate`` is in seconds; ``rtc_time`` is a unix timestamp
    (0 leaves the node on its power-on clock).
    """

    sensor_type: int = 0
    sensor_address: int = 0
    sensor_action: int = 0
    sampling_rate: int = 600
    rtc_time: int = 0

    def to_bytes(self) -> bytes:
        try:
            return _CONFIG.pack(
                self.sensor_type,
                self.sensor_address,
                self.sensor_action,
                self.sampling_rate,
                self.rtc_time,
            )
        except struct.error as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def from_bytes(cls, data: bytes) -> "NodeConfig":
        if len(data) != NODE_CONFIG_SIZE:
            raise ConfigError(
                f"config image is {len(data)} bytes, expected {NODE_CONFIG_SIZE}"
            )
        sensor_type, address, action, rate, rtc = _CONFIG.unpack(data)
        return cls(sensor_type, address, action, rate, rtc)


def _pack_reading(timestamp: int, kind: SensorKind, values_milli) -> bytes:
    """A reading's wire record; the wrong number of values raises struct.error."""
    return _RECORDS[kind].pack(timestamp, kind, len(values_milli), *values_milli)


class SensorReading(NamedTuple):
    """One measurement as stored in the data file and sent uplink.

    Wire layout: u32 LE timestamp, u8 sensor kind, u8 channel count,
    then one i32 LE milli-unit value per channel.  The count is checked
    where bytes are decoded; packing the wrong number of values raises
    ``struct.error``.
    """

    timestamp: int
    kind: SensorKind
    values_milli: tuple[int, ...]

    def to_bytes(self) -> bytes:
        return _pack_reading(self.timestamp, self.kind, self.values_milli)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SensorReading":
        size = len(data)
        if size < _RECORD_HEAD.size:
            raise ValueError(f"reading record of {size} bytes is too short")
        timestamp, kind_code, count = _RECORD_HEAD.unpack_from(data)
        kind = _KINDS.get(kind_code)
        if kind is None:
            raise ValueError(f"unknown sensor kind 0x{kind_code:02X}")
        if count != len(CHANNELS[kind]):
            raise ValueError(
                f"{kind.name} record declares {count} channels,"
                f" expected {len(CHANNELS[kind])}"
            )
        record = _RECORDS[kind]
        if size != record.size:
            raise ValueError(f"reading record is {size} bytes,"
                             f" expected {record.size}")
        return cls(timestamp, kind, record.unpack(data)[3:])


class SensorDriver(ABC):
    """Virtual sensor hardware behind one sensor-type code."""

    kind: SensorKind

    @abstractmethod
    def measure(self, address: int, at_s: float) -> tuple[float, ...]:
        """Return one engineering-unit value per channel.

        An empty tuple means the hardware produced no data (a driver
        fault); the node reports it as a status uplink, as it does the
        wrong number of values, a value no reading can hold (NaN,
        infinite, beyond i32 milli-units) and a ``ValueError`` or
        ``OverflowError`` the driver raises.
        """


class ChannelSignal(ABC):
    @abstractmethod
    def value(self, at_s: float) -> float: ...


@dataclass(frozen=True)
class ConstantSignal(ChannelSignal):
    level: float

    def value(self, at_s: float) -> float:
        return self.level


@dataclass(frozen=True)
class SineSignal(ChannelSignal):
    mean: float
    amplitude: float
    period_s: float
    phase_rad: float = 0.0

    def value(self, at_s: float) -> float:
        return self.mean + self.amplitude * sin(tau * at_s / self.period_s + self.phase_rad)


class SignalDriver(SensorDriver):
    """A sensor of one signal per channel, synthetic or a ``TraceSignal``."""

    def __init__(self, kind: SensorKind, signals: tuple[ChannelSignal, ...]):
        if len(signals) != len(CHANNELS[kind]):
            raise ValueError(
                f"{kind.name} needs {len(CHANNELS[kind])} signals, got {len(signals)}"
            )
        self.kind = kind
        self.signals = signals

    def measure(self, address: int, at_s: float) -> tuple[float, ...]:
        return tuple([signal.value(at_s) for signal in self.signals])


class TraceSignal(ChannelSignal):
    """Replays one recorded channel, interpolating between samples; the
    edge values hold outside the trace."""

    def __init__(self, times_s, values):
        self.times = np.asarray(times_s, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.size == 0:
            raise ValueError("empty sensor trace")
        if self.values.shape != self.times.shape:
            raise ValueError("trace column lengths differ")

    def value(self, at_s: float) -> float:
        return float(np.interp(at_s, self.times, self.values))


def load_sensor_trace(path: str | Path, kind: SensorKind) -> SignalDriver:
    """Load a per-node sensor trace CSV: timestamp_unix plus one
    column per channel of the given sensor kind, each column replayed
    by a ``TraceSignal``.  A malformed or empty file, a timestamp that is
    not finite or goes backwards, a record csv cannot read and bytes that
    are not UTF-8 raise ``ValueError`` naming the file, and the first
    line at fault if any."""
    import csv

    want = len(CHANNELS[kind])
    times: list[float] = []
    columns: list[list[float]] = [[] for _ in range(want)]
    with open(path, newline="", encoding="utf-8",
              errors="surrogateescape") as handle:
        reader = csv.reader(handle)
        try:
            for index, row in enumerate(reader):
                where = f"{path}: line {reader.line_num}"
                try:
                    "".join(row).encode("utf-8")
                except UnicodeEncodeError:  # an escaped byte, not UTF-8
                    raise ValueError(f"{where}: not UTF-8 text") from None
                if index == 0:
                    if len(row) != want + 1 or row[0] != "timestamp_unix":
                        raise ValueError(f"{path}: expected header timestamp_unix"
                                         f" plus {want} channel columns")
                    continue
                if not row:
                    continue
                if len(row) != want + 1:
                    raise ValueError(
                        f"{where}: expected {want + 1} fields, got {len(row)}")
                try:
                    values = [float(field) for field in row]
                except ValueError:
                    raise ValueError(f"{where}: not a number in {row!r}") from None
                if not isfinite(values[0]):
                    raise ValueError(f"{where}: timestamp {row[0]} is not finite")
                if times and values[0] < times[-1]:
                    raise ValueError(f"{where}: timestamp {row[0]} goes backwards")
                times.append(values[0])
                for i in range(want):
                    columns[i].append(values[i + 1])
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not times:
        raise ValueError(f"{path}: empty sensor trace, no rows after the header")
    return SignalDriver(kind, tuple(TraceSignal(times, column)
                                    for column in columns))


class UplinkKind(Enum):
    """What an uplink frame carries; the value is its run-log name."""

    READING = "reading"
    RESPONSE = "response"
    STATUS = "status"
    FLUSH = "flush"


#: each member bound once, as ``alp`` binds the opcodes
_READING = UplinkKind.READING
_RESPONSE = UplinkKind.RESPONSE
_STATUS = UplinkKind.STATUS
_FLUSH = UplinkKind.FLUSH


@dataclass
class Uplink:
    """One outbound radio frame waiting in the node's outbox."""

    payload: bytes
    records: tuple[bytes, ...] = ()
    kind: UplinkKind = UplinkKind.STATUS


@dataclass
class NodeCounters:
    samples_produced: int = 0
    records_delivered: int = 0
    records_overwritten: int = 0
    status_uplinks: int = 0
    driver_faults: int = 0
    command_errors: int = 0
    resets: int = 0
    #: driver measurements per sensor kind, whatever triggered them
    measurements: Counter = field(default_factory=Counter)


class SensorNode:
    """One node: file registry, sensor binding, outbox and flash spool.

    All entry points take the current virtual time in seconds; the
    node holds no clock of its own beyond an RTC offset.
    """

    def __init__(
        self,
        uid: int,
        config: NodeConfig,
        drivers: dict[int, SensorDriver],
    ):
        if config.sampling_rate < 1:
            raise ConfigError("sampling_rate must be at least 1 s")
        self.uid = uid
        self.drivers = dict(drivers)
        # a simulator sets this to the link limit of the node's site
        self.max_uplink_bytes = MAX_PAYLOAD_BYTES
        self.files = FileStore()
        # reading records in external flash, oldest first; a full flash
        # evicts its oldest record, and a watchdog reset keeps them all
        self.buffer: deque[bytes] = deque(maxlen=FLASH_CAPACITY_RECORDS)
        self.outbox: deque[Uplink] = deque()
        self.counters = NodeCounters()
        self.hung = False
        self._config = config
        self._active_driver: SensorDriver | None = None
        self._active_address = 0
        self._rtc_base = 0
        self._rtc_set_ms = 0
        self._now = 0.0
        #: sampling cadence in s; ``_reload`` floors the config's at 1 s so
        #: that a zero written over the air cannot wedge the timer
        self.effective_rate = config.sampling_rate
        self.next_sample_at = 0.0
        self.watchdog_deadline = 0.0
        self._booted = False

    # -- lifecycle ---------------------------------------------------

    def boot(self, now_s: float) -> None:
        """Power-on: create files, load the stored config."""
        if self._booted:
            raise RuntimeError("node already booted")
        self._booted = True
        self._now = now_s
        self.files.create(
            FileHeader(SENSOR_DATA_FILE, DATA_FILE_SIZE, persistent=False)
        )
        self.files.create(
            FileHeader(NODE_CONFIG_FILE, NODE_CONFIG_SIZE, persistent=True),
            self._config.to_bytes(),
        )
        if self._config.rtc_time:
            self._rtc_base = self._config.rtc_time
            self._rtc_set_ms = round(now_s * 1000)
        self._reload()
        self.next_sample_at = now_s + self.effective_rate
        self.watchdog_deadline = now_s + WATCHDOG_PERIOD_S

    def reset(self, now_s: float) -> None:
        """Watchdog reset: volatile files zeroed, config and flash kept."""
        self._now = now_s
        self.hung = False
        self.outbox.clear()
        self.files.reset()
        self._config = NodeConfig.from_bytes(self.files.raw(NODE_CONFIG_FILE))
        self._reload()
        self.next_sample_at = now_s + self.effective_rate
        self.watchdog_deadline = now_s + WATCHDOG_PERIOD_S
        self.counters.resets += 1

    def inject_hang(self) -> None:
        """Freeze the firmware: no sampling, no listening, no petting."""
        self.hung = True

    def notify_activity(self, now_s: float) -> None:
        """Healthy activity pets the watchdog."""
        if not self.hung:
            self.watchdog_deadline = now_s + WATCHDOG_PERIOD_S

    # -- properties --------------------------------------------------

    @property
    def config(self) -> NodeConfig:
        return self._config

    def clock(self, now_s: float) -> int:
        """The node's idea of the current timestamp: a u32 RTC, which
        wraps past its top.  It counts whole seconds of integer ms: a
        difference of float seconds can fall just short of one."""
        elapsed_ms = round(now_s * 1000) - self._rtc_set_ms
        return (self._rtc_base + elapsed_ms // 1000) % 2**32

    # -- timer and radio entry points ---------------------------------

    def on_sample_timer(self, now_s: float) -> None:
        """Periodic wake: pet the watchdog, sample, store, queue the uplink."""
        self._now = now_s
        if not self.hung:
            self.watchdog_deadline = now_s + WATCHDOG_PERIOD_S
        self._sample_and_store(now_s)
        self.next_sample_at = now_s + self.effective_rate

    def on_downlink(self, data: bytes, now_s: float) -> None:
        """Execute a command received during a listen window."""
        self._now = now_s
        self.notify_activity(now_s)
        try:
            actions = decode_command(data)
        except DecodeError:
            self.counters.command_errors += 1
            self._queue_status(STATUS_MALFORMED_COMMAND)
            return
        for action in actions:
            self._execute(action)

    def on_uplink_result(self, uplink: Uplink, delivered: bool, now_s: float) -> None:
        """Learn an uplink's fate; spool or flush the buffer accordingly."""
        self._now = now_s
        buffer = self.buffer
        kind = uplink.kind
        if delivered:
            for record in uplink.records:
                if kind is _FLUSH:
                    # only the very record flushed: after an eviction an
                    # equal one at the head is a different reading
                    if buffer and buffer[0] is record:
                        buffer.popleft()
                        self.counters.records_delivered += 1
                else:
                    self.counters.records_delivered += 1
            # a delivered fresh reading means the link is up: spool
            if kind is _READING and buffer:
                self._queue_flush()
        elif kind is not _FLUSH:
            for record in uplink.records:
                if len(buffer) == FLASH_CAPACITY_RECORDS:
                    self.counters.records_overwritten += 1
                buffer.append(record)

    def drain_outbox(self) -> list[Uplink]:
        drained = list(self.outbox)
        self.outbox.clear()
        return drained

    # -- command execution ---------------------------------------------

    def _execute(self, action: AlpAction) -> None:
        """Carry out one action, then the side effect its file has."""
        file_id, offset = action.file_id, action.offset
        if action.opcode is OP_READ:
            try:
                data = self.files.read(file_id, offset, action.length)
            except FileAccessError:
                self._queue_status(STATUS_FILE_ACCESS_ERROR, action)
                return
            # reading the data file wakes the sensor; the fresh reading
            # goes out first, the answer holds the bytes read before it
            if file_id == SENSOR_DATA_FILE:
                self._sample_and_store(self._now)
            self._queue_uplink(
                (AlpAction.return_data(file_id, offset, data),),
                kind=_RESPONSE,
            )
        elif action.opcode is OP_WRITE:
            try:
                self.files.write(file_id, offset, action.payload)
            except FileAccessError:
                self._queue_status(STATUS_FILE_ACCESS_ERROR, action)
                return
            if file_id == NODE_CONFIG_FILE:
                self._apply_config()
            elif file_id == SENSOR_DATA_FILE:
                # a remote write to the data file goes straight back out
                self._queue_uplink(
                    (AlpAction.return_data(file_id, offset, action.payload),),
                    kind=_RESPONSE,
                )
            self._queue_status(STATUS_OK, action)
        # returned data or status sent *to* a node is not meaningful;
        # ignore it rather than answer an answer.

    def _apply_config(self) -> None:
        """Take up the config file's new content."""
        old = self._config
        new = NodeConfig.from_bytes(self.files.raw(NODE_CONFIG_FILE))
        self._config = new
        # every config write reloads the sensor interface
        self._reload()
        if new.rtc_time != old.rtc_time:
            self._rtc_base = new.rtc_time
            self._rtc_set_ms = round(self._now * 1000)
        if new.sampling_rate != old.sampling_rate:
            self.next_sample_at = self._now + self.effective_rate
        if new.sensor_action != old.sensor_action:
            self._handle_sensor_action(new.sensor_action)

    def _handle_sensor_action(self, code: int) -> None:
        if code == ACTION_NONE:
            return
        if code == ACTION_MEASURE_AND_TRANSMIT:
            self._sample_and_store(self._now)
            return
        self._queue_status(STATUS_RESERVED_ACTION_CODE)

    # -- internals -------------------------------------------------------

    def _reload(self) -> None:
        """Bind the driver named by the config; keep the old binding and
        report a status error if the type code has no driver."""
        self.effective_rate = max(1, self._config.sampling_rate)
        driver = self.drivers.get(self._config.sensor_type)
        if driver is None:
            self._queue_status(STATUS_UNKNOWN_SENSOR_TYPE)
            return
        self._active_driver = driver
        self._active_address = self._config.sensor_address

    def _sample_and_store(self, now_s: float) -> None:
        driver = self._active_driver
        if driver is None:
            self._queue_status(STATUS_UNKNOWN_SENSOR_TYPE)
            return
        self.counters.measurements[driver.kind] += 1
        try:
            # a failing driver, the wrong number of values, or one no i32
            # milli-unit holds (NaN, infinite or too large) leaves no
            # record: a driver fault
            values = driver.measure(self._active_address, now_s)
            record = _pack_reading(self.clock(now_s), driver.kind,
                                   [int(round(v * 1000.0)) for v in values])
        except (ValueError, OverflowError, struct.error):
            self.counters.driver_faults += 1
            self._queue_status(STATUS_DRIVER_FAULT)
            return
        self.files.write(SENSOR_DATA_FILE, 0, record)
        action = AlpAction(OP_RETURN, SENSOR_DATA_FILE, 0, len(record), record)
        self._queue_uplink((action,), (record,), _READING)
        self.counters.samples_produced += 1

    def _queue_uplink(
        self,
        actions: tuple[AlpAction, ...],
        records: tuple[bytes, ...] = (),
        kind: UplinkKind = UplinkKind.STATUS,
    ) -> None:
        payload = encode_command(actions)
        uplink = Uplink(payload, records, kind)
        if len(payload) > self.max_uplink_bytes and kind is not _STATUS:
            # the link cannot carry the frame: it counts as undelivered,
            # and a status echoing what it answered goes in its place
            self.on_uplink_result(uplink, False, self._now)
            self._queue_status(STATUS_FILE_ACCESS_ERROR, actions[0])
            return
        self.outbox.append(uplink)

    def _queue_status(self, code: int, echo: AlpAction | None = None) -> None:
        if echo is not None:
            action = AlpAction.status(code, echo.file_id, echo.offset, echo.length)
        else:
            action = AlpAction.status(code, NODE_CONFIG_FILE, 0, 0)
        self.counters.status_uplinks += 1
        self._queue_uplink((action,))

    def _queue_flush(self) -> None:
        """Spool buffered records uplink, oldest first, one frame."""
        actions: list[AlpAction] = []
        records: list[bytes] = []
        size = 0
        for record in islice(self.buffer, FLUSH_BATCH_RECORDS):
            action = AlpAction.return_data(SENSOR_DATA_FILE, 0, record)
            frame = ACTION_HEADER_SIZE + len(record)
            if actions and size + frame > self.max_uplink_bytes:
                break
            actions.append(action)
            records.append(record)
            size += frame
        if actions:
            self._queue_uplink(tuple(actions), tuple(records), _FLUSH)
