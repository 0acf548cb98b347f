"""Discrete-event simulator for duty-cycled star networks.

Time is a virtual millisecond clock.  Every scheduled occurrence is an
event on a single heap ordered by ``(time, sequence number)``, which
makes a run a pure function of its scenario and seed: two runs of the
same scenario produce byte-identical logs.  Each site is a star of
nodes around one gateway; uplinks suffer one loss draw and a fixed
latency, downlinks wait at the gateway until the target node's next
listen window.  Per-node RNG streams are split from the scenario seed
by hashing, so adding a node never perturbs the others' draws.

The heap holds only what waits for its time: sample timers, uplink
arrivals, listen windows, watchdog resets and injected hangs.  Within
one ms a node finishes its own interaction before the next event: it
transmits what it queued, and what their results queue, inline.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable

from .node import SensorKind, SensorNode, UplinkKind

MS_PER_S = 1000

DEFAULT_LISTEN_INTERVAL_S = 1.0
DEFAULT_DOWNLINK_TTL_S = 60.0


class SimulationError(Exception):
    pass


class NoSuchNodeError(SimulationError):
    def __init__(self, node_uid: int):
        super().__init__(f"no node with uid {node_uid}")
        self.node_uid = node_uid


class PayloadTooLargeError(SimulationError):
    def __init__(self, size: int, limit: int):
        super().__init__(f"payload of {size} bytes exceeds link maximum {limit}")
        self.size = size
        self.limit = limit


class EventKind(IntEnum):
    SAMPLE_TIMER = 0
    UPLINK_ARRIVAL = 1
    LISTEN_WINDOW = 2
    WATCHDOG_CHECK = 3
    HANG_INJECTION = 4


ENERGY_ROW_KIND = "EnergyCharge"


@dataclass(frozen=True)
class LinkModel:
    """Per-site radio link parameters.

    ``latency_ms`` may be given as a whole-number float; it is stored as
    an ``int`` so that event times stay integer milliseconds.
    """

    loss_probability: float = 0.0
    latency_ms: int = 0
    max_payload: int = 256

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


@dataclass(frozen=True)
class DownlinkTicket:
    """One queued downlink command waiting at a gateway."""

    ticket_id: int
    payload: bytes
    expires_at_ms: int
    dialog: int | None = None


#: forwarder(payload, node_uid, gateway_id, site_id, rx_timestamp_s, dialog)
Forwarder = Callable[[bytes, int, str, str, float, int | None], None]

#: the uplinks that carry the dialog of the command they answer
_ANSWER_KINDS = (UplinkKind.RESPONSE, UplinkKind.STATUS)


@dataclass
class SiteRuntime:
    site_id: str
    gateway_id: str
    link: LinkModel
    nodes: dict[int, "NodeRuntime"] = field(default_factory=dict)
    forwarder: Forwarder | None = None


@dataclass
class NodeRuntime:
    node: SensorNode
    site: SiteRuntime
    rng: random.Random
    pending: deque[DownlinkTicket] = field(default_factory=deque)
    window_scheduled: bool = False
    timer_event_ms: int = -1
    #: boot or last watchdog reset, from which the periodic pets count
    anchor_ms: int = 0
    tx_ms: float = 0.0
    sample_ms: float = 0.0
    uplinks_attempted: int = 0
    uplinks_delivered: int = 0
    uplinks_dropped: int = 0
    downlinks_queued: int = 0
    downlinks_delivered: int = 0
    downlinks_expired: int = 0
    hang_intervals: list[tuple[int, int]] = field(default_factory=list)
    open_hang_ms: int | None = None
    sniffs: int = 0
    charges_c: dict[str, float] = field(default_factory=dict)


def node_stream_seed(scenario_seed: int, site_id: str, node_uid: int) -> int:
    """Derive a per-node RNG seed that is stable across runs and
    insensitive to process hash randomization."""
    digest = hashlib.sha256(
        f"{scenario_seed}:{site_id}:{node_uid}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "little")


class RunLog:
    """The ordered record of everything a run did.

    Rows serialize as ``time_ms,event_kind,node_uid,detail`` lines
    followed by a ``# summary`` block; the stable hash is the SHA-256
    of that text.
    """

    def __init__(self, rows: list[tuple[int, str, int, str]], summary: dict):
        self.rows = rows
        self.summary = summary

    def to_text(self) -> str:
        lines = [f"{at},{kind},{uid},{detail}" for at, kind, uid, detail in self.rows]
        lines.append("# summary")
        lines.extend(f"# {key}={value}" for key, value in self.summary.items())
        lines.append("")
        return "\n".join(lines)

    def stable_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_text())

    def count(self, kind: str, uid: int | None = None,
              detail_prefix: str = "") -> int:
        return sum(
            1
            for _, k, u, d in self.rows
            if k == kind
            and (uid is None or u == uid)
            and d.startswith(detail_prefix)
        )


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
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        self.seed = seed
        self.duration_ms = round(duration_s * MS_PER_S)
        self.listen_interval_ms = round(listen_interval_s * MS_PER_S)
        if self.listen_interval_ms < 1:
            raise ValueError("listen interval must be at least 1 ms")
        self.profile = power_profile or PowerProfile()
        self.now_ms = 0
        self.sites: dict[str, SiteRuntime] = {}
        self._by_uid: dict[int, NodeRuntime] = {}
        self._heap: list = []
        self._seq = 0
        self._ticket_seq = 0
        self._rows: list[tuple[int, str, int, str]] = []
        self._started = False
        self._finished = False

    # -- construction ---------------------------------------------------

    def add_site(self, site_id: str, link: LinkModel,
                 gateway_id: str | None = None) -> SiteRuntime:
        if self._started:
            raise SimulationError("cannot add sites after start")
        if site_id in self.sites:
            raise ValueError(f"duplicate site {site_id!r}")
        site = SiteRuntime(site_id, gateway_id or f"gw-{site_id}", link)
        self.sites[site_id] = site
        return site

    def add_node(self, site_id: str, node: SensorNode) -> NodeRuntime:
        if self._started:
            raise SimulationError("cannot add nodes after start")
        site = self.sites[site_id]
        if node.uid in self._by_uid:
            raise ValueError(f"duplicate node uid {node.uid}")
        runtime = NodeRuntime(
            node,
            site,
            random.Random(node_stream_seed(self.seed, site_id, node.uid)),
        )
        site.nodes[node.uid] = runtime
        self._by_uid[node.uid] = runtime
        return runtime

    def set_forwarder(self, site_id: str, forwarder: Forwarder) -> None:
        self.sites[site_id].forwarder = forwarder

    def runtime(self, node_uid: int) -> NodeRuntime:
        try:
            return self._by_uid[node_uid]
        except KeyError:
            raise NoSuchNodeError(node_uid) from None

    @property
    def node_uids(self) -> tuple[int, ...]:
        return tuple(self._by_uid)

    @property
    def now_s(self) -> float:
        return self.now_ms / MS_PER_S

    # -- core loop --------------------------------------------------------

    def _push(self, at_ms: int, kind: EventKind, uid: int, payload=None) -> None:
        heapq.heappush(self._heap, (at_ms, self._seq, int(kind), uid, payload))
        self._seq += 1

    def _log(self, at_ms: int, kind: str, uid: int, detail: str) -> None:
        self._rows.append((at_ms, kind, uid, detail))

    def inject_hang(self, node_uid: int, at_s: float) -> None:
        """Schedule a firmware hang: the node stops sampling, listening
        and petting its watchdog until the watchdog resets it.

        Healthy nodes log no watchdog checks.  The hang freezes the
        deadline the node held under a watchdog that also petted itself
        every period from boot or its last reset, and the node resets at
        that deadline.  A hang at the same ms as such a pet comes first.
        """
        self.runtime(node_uid)
        self._push(round(at_s * MS_PER_S), EventKind.HANG_INJECTION, node_uid)

    def start(self) -> None:
        """Boot every node at t=0 and arm its timers."""
        if self._started:
            return
        self._started = True
        for site in self.sites.values():
            for runtime in site.nodes.values():
                runtime.node.boot(0.0)
                self._settle(runtime, 0)

    def step(self) -> bool:
        """Process one event; False when none remain within duration."""
        if not self._heap or self._heap[0][0] > self.duration_ms:
            return False
        at_ms, _, kind, uid, payload = heapq.heappop(self._heap)
        self.now_ms = at_ms
        runtime = self._by_uid[uid]
        handler = self._HANDLERS[kind]
        handler(self, runtime, at_ms, payload)
        return True

    def run_until(self, predicate: Callable[[], bool],
                  deadline_ms: int | None = None) -> bool:
        """Process events until the predicate holds, the deadline or the
        scenario duration passes, or the heap empties.  Waiting out the
        limit takes simulated time: the clock then reads the limit."""
        self.start()
        limit = self.duration_ms if deadline_ms is None else min(
            deadline_ms, self.duration_ms
        )
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
        return RunLog(self._rows, self._summary)

    # -- event handlers -----------------------------------------------------

    def _handle_sample_timer(self, rt: NodeRuntime, at: int, payload) -> None:
        node = rt.node
        if at != rt.timer_event_ms:
            self._log(at, "SampleTimer", node.uid, "stale")
            return
        rt.timer_event_ms = -1
        if node.hung:
            self._log(at, "SampleTimer", node.uid, "hung")
            return
        node.on_sample_timer(at / MS_PER_S)
        self._log(at, "SampleTimer", node.uid, "ok")
        self._settle(rt, at)

    def _deliver(self, rt: NodeRuntime, at: int, payload: bytes,
                 kind: str, dialog: int | None) -> bool:
        link = rt.site.link
        if len(payload) > link.max_payload:
            raise PayloadTooLargeError(len(payload), link.max_payload)
        rt.uplinks_attempted += 1
        if rt.rng.random() < link.loss_probability:
            rt.uplinks_dropped += 1
            self._log(at, "UplinkTx", rt.node.uid,
                      f"dropped len={len(payload)} kind={kind}")
            return False
        rt.uplinks_delivered += 1
        self._log(at, "UplinkTx", rt.node.uid,
                  f"delivered len={len(payload)} kind={kind}")
        self._push(at + link.latency_ms, EventKind.UPLINK_ARRIVAL,
                   rt.node.uid, (payload, dialog))
        return True

    def _handle_uplink_arrival(self, rt: NodeRuntime, at: int,
                               arrival: tuple[bytes, int | None]) -> None:
        payload, dialog = arrival
        site = rt.site
        self._log(at, "UplinkArrival", rt.node.uid, f"len={len(payload)}")
        if site.forwarder is not None:
            site.forwarder(payload, rt.node.uid, site.gateway_id,
                           site.site_id, at / MS_PER_S, dialog)

    def queue_downlink(self, node_uid: int, payload: bytes,
                       ttl_s: float = DEFAULT_DOWNLINK_TTL_S,
                       dialog: int | None = None) -> DownlinkTicket:
        """Hand a command to the target node's gateway.  It waits there
        and is offered at each of the node's listen windows until it is
        delivered or its TTL lapses.  The node's answers to it carry
        ``dialog`` up to the forwarder."""
        rt = self.runtime(node_uid)
        if len(payload) > rt.site.link.max_payload:
            raise PayloadTooLargeError(len(payload), rt.site.link.max_payload)
        if self._finished:
            raise SimulationError("run already finished")
        ticket = DownlinkTicket(self._ticket_seq, bytes(payload),
                                self.now_ms + round(ttl_s * MS_PER_S), dialog)
        self._ticket_seq += 1
        rt.pending.append(ticket)
        rt.downlinks_queued += 1
        self._log(self.now_ms, "DownlinkQueue", node_uid,
                  f"ticket={ticket.ticket_id} len={len(ticket.payload)}")
        self._ensure_window(rt, self.now_ms)
        return ticket

    def _ensure_window(self, rt: NodeRuntime, at: int) -> None:
        if rt.window_scheduled:
            return
        interval = self.listen_interval_ms
        boundary = (at // interval + 1) * interval
        self._push(boundary, EventKind.LISTEN_WINDOW, rt.node.uid)
        rt.window_scheduled = True

    def _handle_listen_window(self, rt: NodeRuntime, at: int, payload) -> None:
        rt.window_scheduled = False
        node = rt.node
        # a window is only scheduled while commands wait for the node;
        # the gateway ages out stale ones whether or not the node hears
        for ticket in [t for t in rt.pending if at >= t.expires_at_ms]:
            rt.pending.remove(ticket)
            rt.downlinks_expired += 1
            self._log(at, "ListenWindow", node.uid,
                      f"expired ticket={ticket.ticket_id}")
        if node.hung:
            if rt.pending:
                self._log(at, "ListenWindow", node.uid, "hung")
        elif rt.pending:
            ticket = rt.pending[0]
            if rt.rng.random() < rt.site.link.loss_probability:
                self._log(at, "ListenWindow", node.uid,
                          f"retry ticket={ticket.ticket_id}")
            else:
                rt.pending.popleft()
                rt.downlinks_delivered += 1
                self._log(at, "ListenWindow", node.uid,
                          f"delivered ticket={ticket.ticket_id}")
                node.on_downlink(ticket.payload, at / MS_PER_S)
                self._settle(rt, at, ticket.dialog)
        if rt.pending:
            self._ensure_window(rt, at)

    def _handle_watchdog_check(self, rt: NodeRuntime, at: int, payload) -> None:
        """Reset a hung node at the deadline its hang froze.  This is the
        only check a node ever gets: healthy nodes log none."""
        node = rt.node
        node.reset(at / MS_PER_S)
        rt.anchor_ms = at
        self._close_hang(rt, at)
        self._log(at, "WatchdogCheck", node.uid, "reset")
        self._log(at, "ResetDone", node.uid, "boot")
        self._settle(rt, at)

    def _handle_hang_injection(self, rt: NodeRuntime, at: int, payload) -> None:
        node = rt.node
        if not node.hung:
            node.inject_hang()
            rt.open_hang_ms = at
            # the first periodic pet at or after the hang comes too late
            # and finds it hung; the reset waits for the frozen deadline
            period = round(node.watchdog_period_s * MS_PER_S)
            pet_ms = at + (rt.anchor_ms - at) % period
            deadline_ms = max(round(node.watchdog_deadline * MS_PER_S), pet_ms)
            self._push(deadline_ms, EventKind.WATCHDOG_CHECK, node.uid)
        self._log(at, "HangInjection", node.uid, "hang")

    _HANDLERS = {
        EventKind.SAMPLE_TIMER: _handle_sample_timer,
        EventKind.UPLINK_ARRIVAL: _handle_uplink_arrival,
        EventKind.LISTEN_WINDOW: _handle_listen_window,
        EventKind.WATCHDOG_CHECK: _handle_watchdog_check,
        EventKind.HANG_INJECTION: _handle_hang_injection,
    }

    # -- plumbing ----------------------------------------------------------

    def _settle(self, rt: NodeRuntime, at: int,
                dialog: int | None = None) -> None:
        """Finish the node's interaction at this ms: transmit what it
        queued, and what the results of those transmissions queue in
        turn, then line the heap up with the node's own idea of its next
        sample (it can move under remote commands).  Answers carry the
        dialog of the command delivered at this ms, if any."""
        node = rt.node
        now_s = at / MS_PER_S
        while node.outbox:
            for uplink in node.drain_outbox():
                rt.tx_ms += self.profile.tx_duration_ms
                delivered = self._deliver(
                    rt, at, uplink.payload, uplink.kind.value,
                    dialog if uplink.kind in _ANSWER_KINDS else None)
                node.on_uplink_result(uplink, delivered, now_s)
                node.notify_activity(now_s)
        want = round(node.next_sample_at * MS_PER_S)
        if want != rt.timer_event_ms and want > at and not node.hung:
            self._push(want, EventKind.SAMPLE_TIMER, node.uid)
            rt.timer_event_ms = want

    def _close_hang(self, rt: NodeRuntime, end_ms: int) -> None:
        if rt.open_hang_ms is not None:
            rt.hang_intervals.append((rt.open_hang_ms, end_ms))
            rt.open_hang_ms = None

    # -- accounting ----------------------------------------------------------

    def _sniff_count(self, rt: NodeRuntime) -> int:
        """Listen boundaries the node actually woke for: one per listen
        interval over the run, minus those spent hung."""
        interval = self.listen_interval_ms
        count = self.duration_ms // interval
        for start, end in rt.hang_intervals:
            count -= end // interval - start // interval
        return count

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        duration_s = self.duration_ms / MS_PER_S
        summary: dict[str, object] = {
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "sites": len(self.sites),
            "nodes": len(self._by_uid),
        }
        totals = {
            "uplinks_attempted": 0,
            "uplinks_delivered": 0,
            "uplinks_dropped": 0,
            "downlinks_queued": 0,
            "downlinks_delivered": 0,
            "downlinks_expired": 0,
            "downlinks_pending": 0,
            "records_produced": 0,
            "records_delivered": 0,
            "records_buffered": 0,
            "records_overwritten": 0,
            "resets": 0,
        }
        per_node_lines: list[tuple[int, dict]] = []
        for rt in self._by_uid.values():
            if rt.node.hung:
                self._close_hang(rt, self.duration_ms)
            profile = self.profile
            counters = rt.node.counters
            rt.sniffs = self._sniff_count(rt)
            # one sample duration per driver measurement, whatever triggered it
            rt.sample_ms = sum(profile.sample_ms(kind) * count
                               for kind, count in counters.measurements.items())
            listen_ms = rt.sniffs * profile.sniff_duration_ms
            sleep_ms = self.duration_ms - rt.tx_ms - rt.sample_ms - listen_ms
            rt.charges_c = {}
            for mode, ms, current_a in (
                ("Sleep", sleep_ms, profile.sleep_current_a),
                ("Sampling", rt.sample_ms, profile.sample_current_a),
                ("Transmitting", rt.tx_ms, profile.tx_current_a),
                ("Listening", listen_ms, profile.listen_current_a),
            ):
                charge = current_a * (ms / MS_PER_S)
                rt.charges_c[mode] = charge
                self._log(
                    self.duration_ms, ENERGY_ROW_KIND, rt.node.uid,
                    f"mode={mode} time_ms={ms!r} charge_c={charge!r}",
                )
            totals["uplinks_attempted"] += rt.uplinks_attempted
            totals["uplinks_delivered"] += rt.uplinks_delivered
            totals["uplinks_dropped"] += rt.uplinks_dropped
            totals["downlinks_queued"] += rt.downlinks_queued
            totals["downlinks_delivered"] += rt.downlinks_delivered
            totals["downlinks_expired"] += rt.downlinks_expired
            totals["downlinks_pending"] += len(rt.pending)
            totals["records_produced"] += counters.samples_produced
            totals["records_delivered"] += counters.records_delivered
            totals["records_buffered"] += len(rt.node.buffer)
            totals["records_overwritten"] += counters.records_overwritten
            totals["resets"] += counters.resets
            per_node_lines.append((rt.node.uid, {
                "site": rt.site.site_id,
                "produced": counters.samples_produced,
                "delivered_records": counters.records_delivered,
                "buffered": len(rt.node.buffer),
                "overwritten": counters.records_overwritten,
                "uplinks": f"{rt.uplinks_delivered}/{rt.uplinks_attempted}",
                "sniffs": rt.sniffs,
                "resets": counters.resets,
                "charge_c": repr(sum(rt.charges_c.values())),
                "mean_current_a": repr(sum(rt.charges_c.values()) / duration_s),
            }))
        summary.update(totals)
        for uid, fields in sorted(per_node_lines):
            for key, value in fields.items():
                summary[f"node.{uid}.{key}"] = value
        self._summary = summary

    # -- convenience -------------------------------------------------------

    def mean_current_a(self, node_uid: int) -> float:
        """Mean supply current of one node over the finished run."""
        rt = self.runtime(node_uid)
        if not self._finished:
            raise SimulationError("energy totals exist after run() completes")
        return sum(rt.charges_c.values()) / (self.duration_ms / MS_PER_S)
