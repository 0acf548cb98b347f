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
from math import sin, tau
from pathlib import Path

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
    AlpCommand,
    DecodeError,
    FileAccessError,
    FileHeader,
    FileStore,
    Opcode,
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


@dataclass(frozen=True)
class SensorReading:
    """One measurement as stored in the data file and sent uplink.

    Wire layout: u32 LE timestamp, u8 sensor kind, u8 channel count,
    then one i32 LE milli-unit value per channel.
    """

    timestamp: int
    kind: SensorKind
    values_milli: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = len(CHANNELS[self.kind])
        if len(self.values_milli) != expected:
            raise ValueError(
                f"{self.kind.name} reading needs {expected} values,"
                f" got {len(self.values_milli)}"
            )

    def to_bytes(self) -> bytes:
        head = _RECORD_HEAD.pack(self.timestamp, self.kind, len(self.values_milli))
        body = struct.pack(f"<{len(self.values_milli)}i", *self.values_milli)
        return head + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "SensorReading":
        if len(data) < _RECORD_HEAD.size:
            raise ValueError(f"reading record of {len(data)} bytes is too short")
        timestamp, kind_code, count = _RECORD_HEAD.unpack_from(data)
        try:
            kind = SensorKind(kind_code)
        except ValueError:
            raise ValueError(f"unknown sensor kind 0x{kind_code:02X}") from None
        if count != len(CHANNELS[kind]):
            raise ValueError(
                f"{kind.name} record declares {count} channels,"
                f" expected {len(CHANNELS[kind])}"
            )
        expected = _RECORD_HEAD.size + 4 * count
        if len(data) != expected:
            raise ValueError(
                f"reading record is {len(data)} bytes, expected {expected}"
            )
        values = struct.unpack_from(f"<{count}i", data, _RECORD_HEAD.size)
        return cls(timestamp, kind, tuple(values))

    def channel_values(self) -> tuple[tuple[str, str, float], ...]:
        """Named engineering-unit values: (name, unit, value)."""
        specs = CHANNELS[self.kind]
        return tuple(
            (spec.name, spec.unit, milli / 1000.0)
            for spec, milli in zip(specs, self.values_milli)
        )


class SensorDriver(ABC):
    """Virtual sensor hardware behind one sensor-type code."""

    kind: SensorKind

    @abstractmethod
    def measure(self, address: int, at_s: float) -> tuple[float, ...]:
        """Return one engineering-unit value per channel.

        An empty tuple means the hardware produced no data (a driver
        fault); the node reports it as a status uplink.
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
    """Deterministic synthetic sensor: one signal per channel."""

    def __init__(self, kind: SensorKind, signals: tuple[ChannelSignal, ...]):
        if len(signals) != len(CHANNELS[kind]):
            raise ValueError(
                f"{kind.name} needs {len(CHANNELS[kind])} signals, got {len(signals)}"
            )
        self.kind = kind
        self.signals = signals

    def measure(self, address: int, at_s: float) -> tuple[float, ...]:
        return tuple(signal.value(at_s) for signal in self.signals)


class TraceDriver(SensorDriver):
    """Replays a recorded time series, interpolating between samples."""

    def __init__(self, kind: SensorKind, times_s, channels):
        self.kind = kind
        self.times = np.asarray(times_s, dtype=float)
        self.channels = [np.asarray(ch, dtype=float) for ch in channels]
        if len(self.channels) != len(CHANNELS[kind]):
            raise ValueError(
                f"{kind.name} needs {len(CHANNELS[kind])} trace columns,"
                f" got {len(self.channels)}"
            )
        if self.times.size == 0:
            raise ValueError("empty sensor trace")
        for ch in self.channels:
            if ch.shape != self.times.shape:
                raise ValueError("trace column lengths differ")

    def measure(self, address: int, at_s: float) -> tuple[float, ...]:
        return tuple(float(np.interp(at_s, self.times, ch)) for ch in self.channels)


def load_sensor_trace(path: str | Path, kind: SensorKind) -> TraceDriver:
    """Load a per-node sensor trace CSV: timestamp_unix plus one
    column per channel of the given sensor kind.  A malformed file raises
    ``ValueError`` naming its line."""
    import csv

    want = len(CHANNELS[kind])
    times: list[float] = []
    columns: list[list[float]] = [[] for _ in range(want)]
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or len(header) != want + 1 or header[0] != "timestamp_unix":
            raise ValueError(
                f"{path}: expected header timestamp_unix plus {want} channel columns"
            )
        for row in reader:
            if not row:
                continue
            where = f"{path}: line {reader.line_num}"
            if len(row) != want + 1:
                raise ValueError(
                    f"{where}: expected {want + 1} fields, got {len(row)}")
            try:
                values = [float(field) for field in row]
            except ValueError:
                raise ValueError(f"{where}: not a number in {row!r}") from None
            times.append(values[0])
            for i in range(want):
                columns[i].append(values[i + 1])
    return TraceDriver(kind, times, columns)


class FlashBuffer:
    """Ring buffer of reading records in the node's external flash.

    Oldest records are evicted when a new one arrives at capacity.
    Flash survives a watchdog reset, so the buffer is untouched by one.
    """

    def __init__(self, capacity: int = FLASH_CAPACITY_RECORDS):
        if capacity < 1:
            raise ValueError("capacity must be at least one record")
        self.capacity = capacity
        self._records: deque[bytes] = deque()

    def __len__(self) -> int:
        return len(self._records)

    def append(self, record: bytes) -> bytes | None:
        """Store a record; return the evicted oldest one if full."""
        evicted = None
        if len(self._records) >= self.capacity:
            evicted = self._records.popleft()
        self._records.append(record)
        return evicted

    def peek(self, count: int) -> list[bytes]:
        return list(islice(self._records, count))

    def pop_head_if(self, record: bytes) -> bool:
        """Drop the oldest record if it is this exact object."""
        if self._records and self._records[0] is record:
            self._records.popleft()
            return True
        return False


class UplinkKind(Enum):
    """What an uplink frame carries; the value is its run-log name."""

    READING = "reading"
    RESPONSE = "response"
    STATUS = "status"
    FLUSH = "flush"


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
    commands_received: int = 0
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
        *,
        flash_capacity: int = FLASH_CAPACITY_RECORDS,
        flush_batch: int = FLUSH_BATCH_RECORDS,
        watchdog_period_s: float = WATCHDOG_PERIOD_S,
        max_uplink_bytes: int = 256,
    ):
        if config.sampling_rate < 1:
            raise ConfigError("sampling_rate must be at least 1 s")
        self.uid = uid
        self.drivers = dict(drivers)
        self.flush_batch = flush_batch
        self.watchdog_period_s = watchdog_period_s
        self.max_uplink_bytes = max_uplink_bytes
        self.files = FileStore()
        self.buffer = FlashBuffer(flash_capacity)
        self.outbox: deque[Uplink] = deque()
        self.counters = NodeCounters()
        self.hung = False
        self._config = config
        self._active_driver: SensorDriver | None = None
        self._active_kind: SensorKind | None = None
        self._active_address = 0
        self._rtc_base = 0.0
        self._rtc_set_at = 0.0
        self._now = 0.0
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
            self._rtc_base = float(self._config.rtc_time)
            self._rtc_set_at = now_s
        self._reload()
        self.next_sample_at = now_s + self.effective_rate
        self.watchdog_deadline = now_s + self.watchdog_period_s

    def reset(self, now_s: float) -> None:
        """Watchdog reset: volatile files zeroed, config and flash kept."""
        self._now = now_s
        self.hung = False
        self.outbox.clear()
        self.files.reset()
        self._config = NodeConfig.from_bytes(self.files.raw(NODE_CONFIG_FILE))
        self._reload()
        self.next_sample_at = now_s + self.effective_rate
        self.watchdog_deadline = now_s + self.watchdog_period_s
        self.counters.resets += 1

    def inject_hang(self) -> None:
        """Freeze the firmware: no sampling, no listening, no petting."""
        self.hung = True

    def notify_activity(self, now_s: float) -> None:
        """Healthy activity pets the watchdog."""
        if not self.hung:
            self.watchdog_deadline = now_s + self.watchdog_period_s

    # -- properties --------------------------------------------------

    @property
    def config(self) -> NodeConfig:
        return self._config

    @property
    def effective_rate(self) -> int:
        """Sampling cadence in seconds, floored at one second so a
        zero written over the air cannot wedge the timer."""
        return max(1, self._config.sampling_rate)

    def clock(self, now_s: float) -> int:
        """The node's idea of the current timestamp."""
        return int(self._rtc_base + (now_s - self._rtc_set_at))

    # -- timer and radio entry points ---------------------------------

    def on_sample_timer(self, now_s: float) -> None:
        """Periodic wake: sample, store, queue the uplink."""
        self._now = now_s
        self.notify_activity(now_s)
        self._sample_and_store(now_s)
        self.next_sample_at = now_s + self.effective_rate

    def on_downlink(self, data: bytes, now_s: float) -> None:
        """Execute a command received during a listen window."""
        self._now = now_s
        self.notify_activity(now_s)
        self.counters.commands_received += 1
        try:
            command = decode_command(data)
        except DecodeError:
            self.counters.command_errors += 1
            self._queue_status(STATUS_MALFORMED_COMMAND)
            return
        for action in command:
            self._execute(action)

    def on_uplink_result(self, uplink: Uplink, delivered: bool, now_s: float) -> None:
        """Learn an uplink's fate; spool or flush the buffer accordingly."""
        self._now = now_s
        if delivered:
            for record in uplink.records:
                if uplink.kind is UplinkKind.FLUSH:
                    if self.buffer.pop_head_if(record):
                        self.counters.records_delivered += 1
                else:
                    self.counters.records_delivered += 1
            # a delivered fresh reading means the link is up: spool
            if uplink.kind is UplinkKind.READING and len(self.buffer):
                self._queue_flush()
        else:
            if uplink.kind is not UplinkKind.FLUSH:
                for record in uplink.records:
                    evicted = self.buffer.append(record)
                    if evicted is not None:
                        self.counters.records_overwritten += 1

    def drain_outbox(self) -> list[Uplink]:
        drained = list(self.outbox)
        self.outbox.clear()
        return drained

    # -- command execution ---------------------------------------------

    def _execute(self, action: AlpAction) -> None:
        """Carry out one action, then the side effect its file has."""
        file_id, offset = action.file_id, action.offset
        if action.opcode is Opcode.READ_FILE_DATA:
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
                [AlpAction.return_data(file_id, offset, data)],
                kind=UplinkKind.RESPONSE,
            )
        elif action.opcode is Opcode.WRITE_FILE_DATA:
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
                    [AlpAction.return_data(file_id, offset, action.payload)],
                    kind=UplinkKind.RESPONSE,
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
            self._rtc_base = float(new.rtc_time)
            self._rtc_set_at = self._now
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
        driver = self.drivers.get(self._config.sensor_type)
        if driver is None:
            self._queue_status(STATUS_UNKNOWN_SENSOR_TYPE)
            return
        self._active_driver = driver
        self._active_kind = driver.kind
        self._active_address = self._config.sensor_address

    def _sample_and_store(self, now_s: float) -> None:
        if self._active_driver is None:
            self._queue_status(STATUS_UNKNOWN_SENSOR_TYPE)
            return
        values = self._active_driver.measure(self._active_address, now_s)
        self.counters.measurements[self._active_kind] += 1
        if not values:
            self.counters.driver_faults += 1
            self._queue_status(STATUS_DRIVER_FAULT)
            return
        reading = SensorReading(
            self.clock(now_s),
            self._active_kind,
            tuple(int(round(v * 1000.0)) for v in values),
        )
        record = reading.to_bytes()
        self.files.write(SENSOR_DATA_FILE, 0, record)
        self._queue_uplink(
            [AlpAction.return_data(SENSOR_DATA_FILE, 0, record)],
            records=(record,),
            kind=UplinkKind.READING,
        )
        self.counters.samples_produced += 1

    def _queue_uplink(
        self,
        actions: list[AlpAction],
        records: tuple[bytes, ...] = (),
        kind: UplinkKind = UplinkKind.STATUS,
    ) -> None:
        payload = encode_command(AlpCommand(tuple(actions)))
        uplink = Uplink(payload, records, kind)
        if len(payload) > self.max_uplink_bytes and kind is not UplinkKind.STATUS:
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
        self._queue_uplink([action])

    def _queue_flush(self) -> None:
        """Spool buffered records uplink, oldest first, one frame."""
        candidates = self.buffer.peek(self.flush_batch)
        actions: list[AlpAction] = []
        records: list[bytes] = []
        size = 0
        for record in candidates:
            action = AlpAction.return_data(SENSOR_DATA_FILE, 0, record)
            frame = ACTION_HEADER_SIZE + len(record)
            if actions and size + frame > self.max_uplink_bytes:
                break
            actions.append(action)
            records.append(record)
            size += frame
        if actions:
            self._queue_uplink(actions, tuple(records), UplinkKind.FLUSH)
