"""Discrete-event simulator for duty-cycled star networks.

Time is a virtual clock of whole ms, the one unit from the heap to a
node's RTC.  Every scheduled occurrence is an event on a single heap
ordered by ``(time, sequence number)``, which makes a run a pure
function of its scenario and seed: two runs of the same scenario
produce byte-identical logs.  Each site is a star of nodes around one
gateway; uplinks suffer one loss draw and a fixed latency, downlinks
wait at the gateway until the target node's next listen window.
Per-node RNG streams are split from the scenario seed by hashing, so
adding a node never perturbs the others' draws.  A handler hands its
event's ms to the node as is; seconds enter only at the edges (a run's
duration and listen interval, a hang's time, a downlink's TTL), each
rounded to ms once.

The heap holds only what waits for its time: sample timers, uplink
arrivals, listen windows, watchdog resets and injected hangs, each as
``(at_ms, seq, handler, runtime, payload)``: the handler to call and
the node runtime it acts on.  ``Simulator.sites`` maps a site to its
link.  Within one ms a node finishes its own interaction before the
next event: it transmits what it queued, and what their results
queue, inline.  The energy ledger and the run totals, one per name in
``_TOTALS``, are built when the run closes.

The run log is a ``geowsn.store.Store`` of ints: a row is ``time_ms``,
a row code and one number.  The code indexes the run's row table of
``(event kind, node uid, detail template)``, whose entries a node adds
on the first use of each shape of ``_SHAPES``; a template holds the
number as ``%d``, or no number.  Handlers extend the store's pending
list with a row's slots, with no call, and ``step`` spills it every
``_SPILL_EVENTS`` events.  A detail is an optional bare word (the
outcome) and ``key=value`` fields.  The energy ledger is kept as
numbers, ``RunLog.ledger``, and its ``EnergyCharge`` rows are rendered
from them; ``book_problems``, the one statement of the identities a
finished run's books keep, reads the summary and that ledger, no row.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

from .node import (
    MAX_PAYLOAD_BYTES,
    MS_PER_S,
    STATUS_FRAME_BYTES,
    WATCHDOG_PERIOD_MS,
    SensorKind,
    SensorNode,
    UplinkKind,
)
from .store import Store

DEFAULT_LISTEN_INTERVAL_S = 1.0
DEFAULT_DOWNLINK_TTL_S = 60.0
#: characters a site id must not hold: the id is one level of its
#: gateway's bus topic, where ``/`` ends a level and ``+`` and ``#`` are
#: wildcards
SITE_ID_RESERVED = "/+#"


class SimulationError(Exception):
    pass


class NoSuchNodeError(SimulationError):
    def __init__(self, node_uid: int):
        super().__init__(f"no node with uid {node_uid}")
        self.node_uid = node_uid


class PayloadTooLargeError(SimulationError):
    def __init__(self, size: int, limit: int):
        super().__init__(f"payload of {size} bytes exceeds link maximum {limit}")


ENERGY_ROW_KIND = "EnergyCharge"

#: events between two spills of the logged rows into the run log
_SPILL_EVENTS = 1024
#: the largest simulated time, in ms: the run log's slots are signed
#: 64-bit ints
MAX_TIME_MS = 2**63 - 1

#: each run-log row shape: its event kind and detail template, in which
#: ``%d`` stands for the row's number
_SHAPES: list[tuple[str, str]] = []


def _shape(kind: str, template: str) -> int:
    _SHAPES.append((kind, template))
    return len(_SHAPES) - 1


_SAMPLE_STALE = _shape("SampleTimer", "stale")
_SAMPLE_HUNG = _shape("SampleTimer", "hung")
_SAMPLE_OK = _shape("SampleTimer", "ok")
#: an uplink's shape by the value of its kind: delivered, then dropped
_TX_SHAPES = {kind.value: (_shape("UplinkTx", f"delivered len=%d kind={kind.value}"),
                           _shape("UplinkTx", f"dropped len=%d kind={kind.value}"))
              for kind in UplinkKind}
_ARRIVAL = _shape("UplinkArrival", "len=%d")
_WINDOW_EXPIRED = _shape("ListenWindow", "expired ticket=%d")
_WINDOW_HUNG = _shape("ListenWindow", "hung")
_WINDOW_RETRY = _shape("ListenWindow", "retry ticket=%d")
_WINDOW_DELIVERED = _shape("ListenWindow", "delivered ticket=%d")
_WATCHDOG_RESET = _shape("WatchdogCheck", "reset")
_RESET_BOOT = _shape("ResetDone", "boot")
_HANG = _shape("HangInjection", "hang")
#: a ``DownlinkQueue`` row of n payload bytes has shape
#: ``_DOWNLINK_QUEUED + n``; its number is the ticket
_DOWNLINK_QUEUED = len(_SHAPES)

#: the run totals of the summary, in summary order
_TOTALS = ("uplinks_attempted", "uplinks_delivered", "uplinks_dropped",
           "downlinks_queued", "downlinks_delivered", "downlinks_expired",
           "downlinks_pending", "records_produced", "records_delivered",
           "records_buffered", "records_overwritten", "resets")
#: each conserved total and the totals it splits into
_BOOKS = (("records_produced", ("records_delivered", "records_buffered",
                                "records_overwritten")),
          ("uplinks_attempted", ("uplinks_delivered", "uplinks_dropped")),
          ("downlinks_queued", ("downlinks_delivered", "downlinks_expired",
                                "downlinks_pending")))
#: the modes of a node's energy ledger, in ledger order
_MODES = ("Sleep", "Sampling", "Transmitting", "Listening")


@dataclass(frozen=True)
class LinkModel:
    """Per-site radio link parameters.

    ``latency_ms`` may be given as a whole-number float; it is stored as
    an ``int`` so that event times stay integer milliseconds.
    """

    loss_probability: float = 0.0
    latency_ms: int = 0
    max_payload: int = MAX_PAYLOAD_BYTES

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must lie in [0, 1]")
        if self.latency_ms < 0:
            raise ValueError("latency_ms must not be negative")
        # NaN and infinity leave a NaN remainder, which is true
        if self.latency_ms % 1:
            raise ValueError("latency_ms must be a whole number of ms")
        object.__setattr__(self, "latency_ms", int(self.latency_ms))
        if self.max_payload < 1:
            raise ValueError("max_payload must be positive")


@dataclass(frozen=True)
class PowerProfile:
    """Current draw per activity; defaults are plausible figures for a
    sub-GHz class node and can be overridden per scenario."""

    sleep_current_a: float = 10e-6
    tx_current_a: float = 45e-3
    tx_duration_ms: float = 60.0
    listen_current_a: float = 5e-3
    sniff_duration_ms: float = 2.0
    sample_current_a: float = 3e-3
    sample_duration_ms: dict = field(
        default_factory=lambda: {
            SensorKind.SOIL_TEMPERATURE: 750.0,
            SensorKind.SOIL_WATER_CONTENT: 1000.0,
            SensorKind.WEATHER_STATION: 1000.0,
        }
    )

    def sample_ms(self, kind: SensorKind) -> float:
        return self.sample_duration_ms.get(kind, 1000.0)


class DownlinkTicket(NamedTuple):
    """One queued downlink command waiting at a gateway."""

    ticket_id: int
    payload: bytes
    expires_at_ms: int
    dialog: int | None = None


class Envelope(NamedTuple):
    """Transport metadata a gateway attaches to forwarded bytes;
    ``dialog`` ties a request to its answers (None on anything else)."""

    node_uid: int
    gateway_id: str
    site_id: str
    rx_ms: int
    dialog: int | None = None


#: forwarder(payload, envelope): what a gateway does with node bytes
Forwarder = Callable[[bytes, Envelope], None]

#: the uplinks that carry the dialog of the command they answer
_ANSWER_KINDS = (UplinkKind.RESPONSE, UplinkKind.STATUS)


@dataclass
class NodeRuntime:
    node: SensorNode
    site_id: str
    #: the id its site's gateway stamps on every envelope
    gateway_id: str
    link: LinkModel
    rng: random.Random
    #: its run-log row code for each shape
    codes: _RowCodes
    pending: deque[DownlinkTicket] = field(default_factory=deque)
    window_scheduled: bool = False
    timer_event_ms: int = -1
    #: boot or last watchdog reset, from which the periodic pets count
    anchor_ms: int = 0
    uplinks_attempted: int = 0
    uplinks_delivered: int = 0
    uplinks_dropped: int = 0
    downlinks_queued: int = 0
    downlinks_delivered: int = 0
    downlinks_expired: int = 0
    open_hang_ms: int | None = None
    #: listen boundaries slept through hung
    missed_sniffs: int = 0
    #: the run's total charge, summed when the run closes
    charge_c: float = 0.0


def node_stream_seed(scenario_seed: int, site_id: str, node_uid: int) -> int:
    """Derive a per-node RNG seed that is stable across runs and
    insensitive to process hash randomization."""
    digest = hashlib.sha256(
        f"{scenario_seed}:{site_id}:{node_uid}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "little")


class _RowCodes(dict):
    """One node's row code for each shape it has logged: the code of
    its ``(kind, uid, template)`` entry in the run log, added on the
    shape's first use."""

    def __init__(self, log: Store, uid: int):
        self.entries = log.entries
        self.uid = uid

    def __missing__(self, shape: int) -> int:
        if shape < _DOWNLINK_QUEUED:
            kind, template = _SHAPES[shape]
        else:
            kind, template = ("DownlinkQueue",
                              f"ticket=%d len={shape - _DOWNLINK_QUEUED}")
        code = self[shape] = len(self.entries)
        self.entries += ((kind, self.uid, template),)
        return code


def _row_line(entry: tuple[str, int, str]) -> bytes:
    """A row's line format; a plain template swallows the number with
    ``%.0a``."""
    kind, uid, template = entry
    return (f"%d,{kind},{uid},{template}{'' if '%d' in template else '%.0a'}\n"
            .encode())


def _row(at: int, entry: tuple[str, int, str], number: int) -> tuple:
    kind, uid, template = entry
    return at, kind, uid, template % number if "%d" in template else template


class RunLog:
    """The ordered record of everything a run did.

    ``rows`` is the run log's store (``geowsn.store``), which yields
    each row as a ``(time_ms, event_kind, node_uid, detail)`` tuple.
    ``ledger`` maps each node uid to its ``(mode, time_ms, charge_c)``
    per mode of ``_MODES``, the numbers its ``EnergyCharge`` rows render.
    Rows serialize as ``time_ms,event_kind,node_uid,detail`` lines
    followed by a ``# summary`` block; the stable hash is the SHA-256 of
    that text.  The text is produced a spill's block of rows at a time,
    so writing and hashing a long log never hold more than one block's.
    """

    def __init__(self, rows: Store, summary: dict, ledger: dict[int, tuple]):
        self.rows = rows
        self.summary = summary
        self.ledger = ledger

    def _chunks(self) -> Iterator[bytes]:
        """The log's UTF-8 text: the rows a block at a time, then the
        summary; every line ends in a newline."""
        yield from self.rows.chunks()
        yield ("# summary\n" + "".join(
            [f"# {key}={value}\n" for key, value in self.summary.items()])).encode()

    def _digest(self, handle=None) -> str:
        """SHA-256 of the UTF-8 log text, copied to ``handle`` if given."""
        digest = hashlib.sha256()
        for data in self._chunks():
            digest.update(data)
            if handle is not None:
                handle.write(data)
        return digest.hexdigest()

    def to_text(self) -> str:
        return b"".join(self._chunks()).decode()

    def stable_hash(self) -> str:
        return self._digest()

    def write(self, path) -> str:
        """Write the log text; return its stable hash, of the same bytes."""
        with open(path, "wb") as handle:
            return self._digest(handle)


def book_problems(log: RunLog) -> list[str]:
    """Each identity of a finished run's books that the run breaks, in
    words; none for balanced books.  Records, uplinks and downlinks are
    conserved (``_BOOKS``), and every node the summary names, and no
    other, has a ledger entry per mode, with no negative time or charge,
    whose times sum to the run's duration.  No row is read."""
    s = log.summary
    problems = [f"{total} {s[total]} != {' + '.join(parts)}"
                f" = {sum(s[part] for part in parts)}"
                for total, parts in _BOOKS
                if s[total] != sum(s[part] for part in parts)]
    named = {int(key.split(".")[1]) for key in s if key.startswith("node.")}
    if len(named) != s["nodes"]:
        problems.append(f"the summary names {len(named)} nodes, not {s['nodes']}")
    for uid in sorted(named | log.ledger.keys()):
        modes = log.ledger.get(uid, ())
        expected = len(_MODES) if uid in named else 0
        if len(modes) != expected:
            problems.append(f"node {uid} has {len(modes)} {ENERGY_ROW_KIND}"
                            f" rows, not {expected}")
            continue
        for mode, time_ms, charge_c in modes:
            # a negative time makes a negative charge: name the cause once
            if time_ms < 0:
                problems.append(f"node {uid} {mode} time_ms {time_ms!r} < 0")
            elif charge_c < 0:
                problems.append(f"node {uid} {mode} charge_c {charge_c!r} < 0")
        total_ms = sum(time_ms for _, time_ms, _ in modes)
        if not math.isclose(total_ms, s["duration_ms"], rel_tol=1e-9):
            problems.append(f"node {uid} mode times sum to {total_ms!r} ms,"
                            f" not {s['duration_ms']}")
    return problems


class Simulator:
    """Event-driven network of sensor nodes, one gateway per site."""

    def __init__(
        self,
        *,
        seed: int = 0,
        duration_s: float,
        listen_interval_s: float = DEFAULT_LISTEN_INTERVAL_S,
        power_profile: PowerProfile | None = None,
    ):
        # neither infinity nor NaN rounds to a whole number of ms
        if not (math.isfinite(duration_s) and duration_s > 0):
            raise ValueError(f"duration_s {duration_s!r} must be positive and finite")
        if not math.isfinite(listen_interval_s):
            raise ValueError(f"listen_interval_s {listen_interval_s!r} must be finite")
        self.seed = seed
        self.duration_ms = round(duration_s * MS_PER_S)
        if self.duration_ms > MAX_TIME_MS:
            raise ValueError(f"duration_s {duration_s!r} exceeds {MAX_TIME_MS} ms")
        self.listen_interval_ms = round(listen_interval_s * MS_PER_S)
        if self.listen_interval_ms < 1:
            raise ValueError("listen interval must be at least 1 ms")
        self.profile = power_profile or PowerProfile()
        self.now_ms = 0
        self.sites: dict[str, LinkModel] = {}
        #: what every gateway does with the uplinks that reach it
        self.forwarder: Forwarder | None = None
        self._by_uid: dict[int, NodeRuntime] = {}
        self._heap: list = []
        #: heap tie-break: (at_ms, seq) is unique, so no handlers are compared
        self._seq = itertools.count()
        self._ticket_seq = 0
        self._log = Store("q", _row_line, _row)
        self._spill_in = _SPILL_EVENTS
        self._started = False
        self._finished = False

    # -- construction ---------------------------------------------------

    def add_site(self, site_id: str, link: LinkModel) -> None:
        if self._started:
            raise SimulationError("cannot add sites after start")
        if site_id in self.sites:
            raise ValueError(f"duplicate site {site_id!r}")
        if any(char in site_id for char in SITE_ID_RESERVED):
            raise ValueError(
                f"site {site_id!r} must not hold any of {SITE_ID_RESERVED!r}")
        self.sites[site_id] = link

    def add_node(self, site_id: str, node: SensorNode) -> NodeRuntime:
        """Place a node at a site; the site's link sets the largest frame
        the node may send.  The node caps every frame at that size but a
        status, so the link must carry a status frame."""
        if self._started:
            raise SimulationError("cannot add nodes after start")
        link = self.sites[site_id]
        if link.max_payload < STATUS_FRAME_BYTES:
            raise ValueError(
                f"site {site_id!r} max_payload {link.max_payload} is below"
                f" the {STATUS_FRAME_BYTES}-byte status frame")
        if node.uid in self._by_uid:
            raise ValueError(f"duplicate node uid {node.uid}")
        node.max_uplink_bytes = link.max_payload
        runtime = NodeRuntime(
            node,
            site_id,
            f"gw-{site_id}",
            link,
            random.Random(node_stream_seed(self.seed, site_id, node.uid)),
            _RowCodes(self._log, node.uid),
        )
        self._by_uid[node.uid] = runtime
        return runtime

    def runtime(self, node_uid: int) -> NodeRuntime:
        try:
            return self._by_uid[node_uid]
        except KeyError:
            raise NoSuchNodeError(node_uid) from None

    @property
    def node_uids(self) -> tuple[int, ...]:
        return tuple(self._by_uid)

    # -- core loop --------------------------------------------------------

    def inject_hang(self, node_uid: int, at_s: float) -> None:
        """Schedule a firmware hang: the node stops sampling, listening
        and petting its watchdog until the watchdog resets it.

        Healthy nodes log no watchdog checks.  The hang freezes the
        deadline the node held under a watchdog that also petted itself
        every period from boot or its last reset, and the node resets at
        that deadline.  A hang at the same ms as such a pet comes first.
        The hang must be finite, and neither before the clock nor after
        the run has finished.
        """
        rt = self.runtime(node_uid)
        if not math.isfinite(at_s):
            raise ValueError(f"at_s {at_s!r} must be finite")
        if self._finished:
            raise SimulationError("run already finished")
        at_ms = round(at_s * MS_PER_S)
        if at_ms < self.now_ms:
            raise ValueError(
                f"at_s {at_s!r} lies before the clock at {self.now_ms} ms")
        heapq.heappush(self._heap, (at_ms, next(self._seq),
                                    self._handle_hang_injection, rt, None))

    def start(self) -> None:
        """Boot every node at t=0, in the order added, and arm its timers."""
        if self._started:
            return
        self._started = True
        for runtime in self._by_uid.values():
            runtime.node.boot(0)
            self._settle(runtime, 0)

    def step(self) -> bool:
        """Process one event; False when none remain within duration."""
        if not self._heap or self._heap[0][0] > self.duration_ms:
            return False
        at_ms, _, handler, runtime, payload = heapq.heappop(self._heap)
        self.now_ms = at_ms
        handler(runtime, at_ms, payload)
        self._spill_in -= 1
        if not self._spill_in:
            self._log.spill()
            self._spill_in = _SPILL_EVENTS
        return True

    def run_until(self, predicate: Callable[[], bool],
                  deadline_ms: int | None = None) -> bool:
        """Process events until the predicate holds, the deadline or the
        scenario duration passes, or the heap empties.  Waiting out the
        limit takes simulated time: the clock then reads the limit.  A
        deadline is a whole number of ms, and may be given as a float."""
        if deadline_ms is None:
            deadline_ms = self.duration_ms
        elif deadline_ms % 1:  # NaN and infinity leave a NaN remainder
            raise ValueError(f"deadline_ms {deadline_ms!r} must be a whole number of ms")
        limit = min(int(deadline_ms), self.duration_ms)
        if not self._started:  # no call per remote op once started
            self.start()
        while not predicate():
            if not self._heap or self._heap[0][0] > limit:
                self.now_ms = max(self.now_ms, limit)
                return predicate()
            self.step()
        return True

    def run(self) -> RunLog:
        """Run the scenario to its full duration and close the books."""
        self.start()
        while self.step():
            pass
        self.now_ms = self.duration_ms
        self._finish()
        return self.run_log()

    def run_log(self) -> RunLog:
        if not self._finished:
            raise SimulationError("run log is available after run() completes")
        self._log.spill()
        return self._run_log

    # -- event handlers -----------------------------------------------------

    def _handle_sample_timer(self, rt: NodeRuntime, at: int, payload) -> None:
        node = rt.node
        if at != rt.timer_event_ms:
            self._log.pending += (at, rt.codes[_SAMPLE_STALE], 0)
            return
        rt.timer_event_ms = -1
        if node.hung:
            self._log.pending += (at, rt.codes[_SAMPLE_HUNG], 0)
            return
        node.on_sample_timer(at)
        self._log.pending += (at, rt.codes[_SAMPLE_OK], 0)
        self._settle(rt, at)

    def _deliver(self, rt: NodeRuntime, at: int, payload: bytes,
                 kind: str, dialog: int | None) -> bool:
        link = rt.link
        rt.uplinks_attempted += 1
        dropped = rt.rng.random() < link.loss_probability
        self._log.pending += (at, rt.codes[_TX_SHAPES[kind][dropped]], len(payload))
        if dropped:
            rt.uplinks_dropped += 1
            return False
        rt.uplinks_delivered += 1
        heapq.heappush(self._heap, (at + link.latency_ms, next(self._seq),
                                    self._handle_uplink_arrival, rt, (payload, dialog)))
        return True

    def _handle_uplink_arrival(self, rt: NodeRuntime, at: int,
                               arrival: tuple[bytes, int | None]) -> None:
        payload, dialog = arrival
        self._log.pending += (at, rt.codes[_ARRIVAL], len(payload))
        if self.forwarder is not None:
            self.forwarder(payload, Envelope(rt.node.uid, rt.gateway_id,
                                             rt.site_id, at, dialog))

    def queue_downlink(self, node_uid: int, payload: bytes,
                       ttl_s: float = DEFAULT_DOWNLINK_TTL_S,
                       dialog: int | None = None) -> DownlinkTicket:
        """Hand a command to the target node's gateway.  It waits there
        and is offered at each of the node's listen windows until it is
        delivered or its TTL lapses, which must be finite and > 0.  The
        node's answers to it carry ``dialog`` up to the forwarder."""
        rt = self.runtime(node_uid)
        if not 0 < ttl_s < math.inf:
            raise ValueError(f"ttl_s {ttl_s!r} must be finite and > 0")
        if len(payload) > rt.link.max_payload:
            raise PayloadTooLargeError(len(payload), rt.link.max_payload)
        if self._finished:
            raise SimulationError("run already finished")
        ticket = DownlinkTicket(self._ticket_seq, bytes(payload),
                                self.now_ms + round(ttl_s * MS_PER_S), dialog)
        self._ticket_seq += 1
        rt.pending.append(ticket)
        rt.downlinks_queued += 1
        self._log.pending += (self.now_ms,
                              rt.codes[_DOWNLINK_QUEUED + len(ticket.payload)],
                              ticket.ticket_id)
        self._ensure_window(rt, self.now_ms)
        return ticket

    def _ensure_window(self, rt: NodeRuntime, at: int) -> None:
        if rt.window_scheduled:
            return
        interval = self.listen_interval_ms
        boundary = (at // interval + 1) * interval
        heapq.heappush(self._heap, (boundary, next(self._seq), self._handle_listen_window,
                                    rt, None))
        rt.window_scheduled = True

    def _handle_listen_window(self, rt: NodeRuntime, at: int, payload) -> None:
        rt.window_scheduled = False
        node = rt.node
        # a window is only scheduled while commands wait for the node;
        # the gateway ages out stale ones whether or not the node hears
        for ticket in rt.pending:
            if at >= ticket.expires_at_ms:
                self._expire(rt, at)
                break
        if node.hung:
            if rt.pending:
                self._log.pending += (at, rt.codes[_WINDOW_HUNG], 0)
        elif rt.pending:
            ticket = rt.pending[0]
            if rt.rng.random() < rt.link.loss_probability:
                self._log.pending += (at, rt.codes[_WINDOW_RETRY], ticket.ticket_id)
            else:
                rt.pending.popleft()
                rt.downlinks_delivered += 1
                self._log.pending += (at, rt.codes[_WINDOW_DELIVERED],
                                      ticket.ticket_id)
                node.on_downlink(ticket.payload, at)
                self._settle(rt, at, ticket.dialog)
        if rt.pending:
            self._ensure_window(rt, at)

    def _expire(self, rt: NodeRuntime, at: int) -> None:
        """Drop the commands whose TTL has lapsed by ``at``, in queue order."""
        for ticket in [t for t in rt.pending if at >= t.expires_at_ms]:
            rt.pending.remove(ticket)
            rt.downlinks_expired += 1
            self._log.pending += (at, rt.codes[_WINDOW_EXPIRED], ticket.ticket_id)

    def _handle_watchdog_check(self, rt: NodeRuntime, at: int, payload) -> None:
        """Reset a hung node at the deadline its hang froze.  This is the
        only check a node ever gets: healthy nodes log none."""
        node = rt.node
        node.reset(at)
        rt.anchor_ms = at
        self._close_hang(rt, at)
        self._log.pending += (at, rt.codes[_WATCHDOG_RESET], 0,
                              at, rt.codes[_RESET_BOOT], 0)
        self._settle(rt, at)

    def _handle_hang_injection(self, rt: NodeRuntime, at: int, payload) -> None:
        node = rt.node
        if not node.hung:
            node.inject_hang()
            rt.open_hang_ms = at
            # the first periodic pet at or after the hang comes too late
            # and finds it hung; the reset waits for the frozen deadline
            pet_ms = at + (rt.anchor_ms - at) % WATCHDOG_PERIOD_MS
            deadline_ms = max(node.watchdog_deadline_ms, pet_ms)
            heapq.heappush(self._heap, (deadline_ms, next(self._seq),
                                        self._handle_watchdog_check, rt, None))
        self._log.pending += (at, rt.codes[_HANG], 0)

    # -- plumbing ----------------------------------------------------------

    def _settle(self, rt: NodeRuntime, at: int,
                dialog: int | None = None) -> None:
        """Finish the node's interaction at this ms: transmit what it
        queued, and what the results of those transmissions queue in
        turn, then line the heap up with the node's own idea of its next
        sample (it can move under remote commands).  Answers carry the
        dialog of the command delivered at this ms, if any."""
        node = rt.node
        # oldest first, so what a result queues follows what was queued
        while node.outbox:
            uplink = node.outbox.popleft()
            # the member's stored value, without the ``value``
            # property's two Python calls per uplink
            delivered = self._deliver(
                rt, at, uplink.payload, uplink.kind._value_,
                dialog if uplink.kind in _ANSWER_KINDS else None)
            node.on_uplink_result(uplink, delivered)
        want = node.next_sample_ms
        if want != rt.timer_event_ms and want > at and not node.hung:
            heapq.heappush(self._heap, (want, next(self._seq),
                                        self._handle_sample_timer, rt, None))
            rt.timer_event_ms = want

    def _close_hang(self, rt: NodeRuntime, end_ms: int) -> None:
        interval = self.listen_interval_ms
        rt.missed_sniffs += end_ms // interval - rt.open_hang_ms // interval
        rt.open_hang_ms = None

    # -- accounting ----------------------------------------------------------

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        summary: dict[str, object] = {
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "sites": len(self.sites),
            "nodes": len(self._by_uid),
        }
        totals = dict.fromkeys(_TOTALS, 0)
        per_node_lines: list[tuple[int, dict]] = []
        ledger: dict[int, tuple] = {}
        profile = self.profile
        currents = (profile.sleep_current_a, profile.sample_current_a,
                    profile.tx_current_a, profile.listen_current_a)
        entries = self._log.entries
        code = len(entries)
        for rt in self._by_uid.values():
            if rt.node.hung:
                self._close_hang(rt, self.duration_ms)
            counters = rt.node.counters
            # one listen boundary per interval, less those slept through hung
            sniffs = self.duration_ms // self.listen_interval_ms - rt.missed_sniffs
            # one sample duration per driver measurement, whatever triggered it
            sample_ms = sum(profile.sample_ms(kind) * count
                            for kind, count in counters.measurements.items())
            # every send is one transmission, delivered or dropped
            tx_ms = rt.uplinks_attempted * profile.tx_duration_ms
            listen_ms = sniffs * profile.sniff_duration_ms
            sleep_ms = self.duration_ms - tx_ms - sample_ms - listen_ms
            uid = rt.node.uid
            modes = ()
            for mode, ms, current_a in zip(
                    _MODES, (sleep_ms, sample_ms, tx_ms, listen_ms), currents):
                charge = current_a * (ms / MS_PER_S)
                rt.charge_c += charge
                modes += ((mode, ms, charge),)
                # the row renders the same numbers: a code of its own, no number
                entries += ((ENERGY_ROW_KIND, uid,
                             f"mode={mode} time_ms={ms!r} charge_c={charge!r}"),)
                self._log.pending += (self.duration_ms, code, 0)
                code += 1
            ledger[uid] = modes
            # this node's count of each total, in ``_TOTALS`` order
            for key, count in zip(_TOTALS, (
                    rt.uplinks_attempted, rt.uplinks_delivered, rt.uplinks_dropped,
                    rt.downlinks_queued, rt.downlinks_delivered, rt.downlinks_expired,
                    len(rt.pending), counters.samples_produced,
                    counters.records_delivered, len(rt.node.buffer),
                    counters.records_overwritten, counters.resets)):
                totals[key] += count
            per_node_lines.append((uid, {
                "site": rt.site_id,
                "produced": counters.samples_produced,
                "delivered_records": counters.records_delivered,
                "buffered": len(rt.node.buffer),
                "overwritten": counters.records_overwritten,
                "uplinks": f"{rt.uplinks_delivered}/{rt.uplinks_attempted}",
                "sniffs": sniffs,
                "resets": counters.resets,
                "charge_c": repr(rt.charge_c),
                "mean_current_a": repr(self.mean_current_a(uid)),
            }))
        summary.update(totals)
        for uid, fields in sorted(per_node_lines):
            for key, value in fields.items():
                summary[f"node.{uid}.{key}"] = value
        self._run_log = RunLog(self._log, summary, ledger)

    # -- convenience -------------------------------------------------------

    def mean_current_a(self, node_uid: int) -> float:
        """Mean supply current of one node over the finished run."""
        rt = self.runtime(node_uid)
        if not self._finished:
            raise SimulationError("energy totals exist after run() completes")
        return rt.charge_c / (self.duration_ms / MS_PER_S)
