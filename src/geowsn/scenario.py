"""Scenario files: a JSON description of a whole deployment.

A scenario names the seed, the run duration, the per-site radio links
and every node with its sensor feed.  A sensor feed (``trace``) is
either a path to a recorded CSV (relative to the scenario file) or an
inline deterministic generator, so a scenario can be fully
self-contained.  ``parse_scenario`` checks everything, the sensor feeds
included, and resolves each feed into its driver; ``build_simulator``
turns a parsed scenario into a ready-to-run network and cannot fail.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Collection
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .netsim import (
    DEFAULT_LISTEN_INTERVAL_S,
    MAX_TIME_MS,
    MS_PER_S,
    SITE_ID_RESERVED,
    LinkModel,
    PowerProfile,
    Simulator,
)
from .node import (
    CHANNELS,
    MAX_UID,
    READING_FRAME_BYTES,
    ChannelSignal,
    ConfigError,
    ConstantSignal,
    NodeConfig,
    SensorDriver,
    SensorKind,
    SensorNode,
    SignalDriver,
    SineSignal,
    load_sensor_trace,
)

SENSOR_TYPE_NAMES = {kind.name.lower(): kind for kind in SensorKind}

#: each link key, with the bounds of its number; an absent key takes
#: ``LinkModel``'s default
_LINK_NUMBERS = {
    "loss_probability": {"minimum": 0.0},
    "latency_ms": {"minimum": 0, "integer": True},
    "max_payload": {"minimum": 1, "integer": True},
}


class InvalidScenarioError(ValueError):
    """Raised with a message naming the first rule a scenario violates."""


@dataclass(frozen=True)
class NodeSpec:
    uid: int
    transect: str
    sensor_type: int
    sampling_rate_s: int
    driver: SensorDriver


@dataclass(frozen=True)
class SiteSpec:
    site_id: str
    link: LinkModel
    nodes: tuple[NodeSpec, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    duration_s: float
    listen_interval_s: float
    sites: tuple[SiteSpec, ...]
    power_profile: PowerProfile

    def with_duration(self, duration_s: float) -> "ScenarioConfig":
        return replace(self, duration_s=duration_s)

    @property
    def node_count(self) -> int:
        return sum(len(site.nodes) for site in self.sites)


def _sensor_kind(value, where: str) -> SensorKind:
    try:
        if isinstance(value, str):
            return SENSOR_TYPE_NAMES[value]
        if not isinstance(value, bool):  # true is not sensor type 1
            return SensorKind(value)
    except (KeyError, ValueError, TypeError):
        pass
    raise InvalidScenarioError(f"{where}: unknown sensor_type {value!r}")


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise InvalidScenarioError(f"{where}: missing key {key!r}")
    return doc[key]


def _object(doc, where: str) -> None:
    if not isinstance(doc, dict):
        raise InvalidScenarioError(f"{where} must be an object")


def _list(doc, where: str) -> list:
    if not isinstance(doc, list):
        raise InvalidScenarioError(f"{where} must be a list")
    return doc


def _check_keys(doc: dict, allowed: Collection[str], where: str) -> None:
    """Name the first key, in document order, that is not allowed."""
    _object(doc, where)
    for key in doc:
        if key not in allowed:
            raise InvalidScenarioError(f"{where}: unknown key {key!r}")


def _number(value, where: str, *, minimum: float, integer: bool = False):
    """A finite JSON number of at least ``minimum``, as a ``float``; with
    ``integer``, a whole number, as an ``int``."""
    if type(value) not in (int, float):  # bool is not a number here
        raise InvalidScenarioError(f"{where} must be a number, got {value!r}")
    # NaN fails the first test; an integer no float holds, the second
    if not (minimum <= value and abs(value) <= sys.float_info.max):
        raise InvalidScenarioError(
            f"{where} must be finite and at least {minimum:g}")
    if not integer:
        return float(value)
    if value % 1:
        raise InvalidScenarioError(f"{where} must be a whole number")
    return int(value)


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise InvalidScenarioError(f"{where} must be a string, got {value!r}")
    try:
        value.encode()
    except UnicodeEncodeError:
        raise InvalidScenarioError(
            f"{where} must be UTF-8 text, got {value!r}") from None
    return value


def parse_seed(value, where: str = "scenario: seed") -> int:
    """A run's seed: a whole number of at least 0."""
    return _number(value, where, minimum=0, integer=True)


def parse_time_s(value, where: str) -> float:
    """A positive time in s that stays at least 1 ms, and at most the
    simulator's ``MAX_TIME_MS``, once the simulator rounds it to whole ms."""
    seconds = _number(value, where, minimum=0.0)
    ms = round(seconds * MS_PER_S)
    if ms < 1:
        raise InvalidScenarioError(f"{where} must be at least 1 ms")
    if ms > MAX_TIME_MS:
        raise InvalidScenarioError(f"{where} must be at most {MAX_TIME_MS} ms")
    return seconds


def parse_power_profile(doc: dict) -> PowerProfile:
    """Every ``PowerProfile`` field is a key; the values are checked in
    document order, so the first bad one is named."""
    _check_keys(doc, {f.name for f in fields(PowerProfile)}, "power_profile")
    kwargs = {}
    for key, value in doc.items():
        if key == "sample_duration_ms":
            where = "power_profile.sample_duration_ms"
            _object(value, where)
            durations = dict(PowerProfile().sample_duration_ms)
            for name, ms in value.items():
                kind = _sensor_kind(name, where)
                durations[kind] = _number(ms, f"{where}: {name}", minimum=0.0)
            kwargs[key] = durations
        else:
            kwargs[key] = _number(value, f"power_profile: {key}", minimum=0.0)
    return PowerProfile(**kwargs)


def _parse_signal(doc: dict, where: str) -> ChannelSignal:
    _object(doc, where)
    kind = _require(doc, "kind", where)
    if kind == "constant":
        _check_keys(doc, {"kind", "value"}, where)
        return ConstantSignal(_number(_require(doc, "value", where),
                                      f"{where}: value", minimum=-math.inf))
    if kind == "sine":
        _check_keys(doc, {"kind", "mean", "amplitude", "period_s", "phase_rad"},
                    where)
        period = _number(_require(doc, "period_s", where),
                         f"{where}: period_s", minimum=0.0)
        if not period:
            raise InvalidScenarioError(f"{where}: period_s must be positive")
        return SineSignal(
            _number(_require(doc, "mean", where), f"{where}: mean",
                    minimum=-math.inf),
            _number(_require(doc, "amplitude", where), f"{where}: amplitude",
                    minimum=-math.inf),
            period,
            _number(doc.get("phase_rad", 0.0), f"{where}: phase_rad",
                    minimum=-math.inf),
        )
    raise InvalidScenarioError(f"{where}: unknown signal kind {kind!r}")


def _parse_driver(trace, kind: SensorKind, where: str,
                  base_dir: Path) -> SensorDriver:
    """Turn a node's ``trace`` entry into a sensor driver."""
    channels = CHANNELS[kind]
    if isinstance(trace, str):
        path = base_dir / trace
        try:
            return load_sensor_trace(path, kind)
        except OSError as exc:
            raise InvalidScenarioError(
                f"{where}: cannot read {path}: {exc.strerror or exc}") from None
        except ValueError as exc:
            raise InvalidScenarioError(f"{where}: {exc}") from None
    if not isinstance(trace, dict):
        raise InvalidScenarioError(f"{where}: expected a path or an object")
    if trace.get("kind") == "multi":
        _check_keys(trace, {"kind", "channels"}, where)
        specs = _list(_require(trace, "channels", where), f"{where}: channels")
        if len(specs) != len(channels):
            raise InvalidScenarioError(
                f"{where}: {len(specs)} channel signals for"
                f" {len(channels)}-channel sensor"
            )
        signals = tuple(
            _parse_signal(ch, f"{where}.channels[{i}]")
            for i, ch in enumerate(specs)
        )
    else:
        signal = _parse_signal(trace, where)
        signals = (signal,) * len(channels)
    return SignalDriver(kind, signals)


def _parse_node(doc: dict, where: str, base_dir: Path) -> NodeSpec:
    _check_keys(doc, {"uid", "transect", "sensor_type", "sampling_rate_s",
                      "trace"}, where)
    uid = _number(_require(doc, "uid", where), f"{where}: uid",
                  minimum=0, integer=True)
    if uid > MAX_UID:
        raise InvalidScenarioError(
            f"{where}: uid {uid} exceeds {MAX_UID}, the largest 64-bit DASH7 UID")
    kind = _sensor_kind(_require(doc, "sensor_type", where), where)
    rate = _number(_require(doc, "sampling_rate_s", where),
                   f"{where}: sampling_rate_s", minimum=1, integer=True)
    try:  # the node config image must hold the rate
        NodeConfig(sampling_rate=rate).to_bytes()
    except ConfigError as exc:
        raise InvalidScenarioError(f"{where}: sampling_rate_s: {exc}") from None
    return NodeSpec(
        uid=uid,
        transect=_string(doc.get("transect", ""), f"{where}: transect"),
        sensor_type=int(kind),
        sampling_rate_s=rate,
        driver=_parse_driver(_require(doc, "trace", where), kind,
                             f"node {uid} trace", base_dir),
    )


def _parse_link(doc: dict, where: str) -> LinkModel:
    _check_keys(doc, _LINK_NUMBERS, where)
    kwargs = {key: _number(value, f"{where}: {key}", **_LINK_NUMBERS[key])
              for key, value in doc.items()}
    try:
        return LinkModel(**kwargs)
    except ValueError as exc:
        raise InvalidScenarioError(f"{where}: {exc}") from None


def parse_scenario(doc: dict, base_dir: Path | str = ".") -> ScenarioConfig:
    """Validate a scenario document; the first violated rule raises
    :class:`InvalidScenarioError` naming the offending element."""
    base_dir = Path(base_dir)
    if not isinstance(doc, dict):
        raise InvalidScenarioError("scenario root must be an object")
    _check_keys(doc, {"seed", "duration_s", "listen_interval_s", "sites",
                      "power_profile"}, "scenario")
    seed = parse_seed(_require(doc, "seed", "scenario"))
    duration = parse_time_s(_require(doc, "duration_s", "scenario"),
                            "scenario: duration_s")
    listen = parse_time_s(
        doc.get("listen_interval_s", DEFAULT_LISTEN_INTERVAL_S),
        "scenario: listen_interval_s")
    sites_doc = _require(doc, "sites", "scenario")
    if not isinstance(sites_doc, list) or not sites_doc:
        raise InvalidScenarioError("scenario: sites must be a non-empty list")
    profile = parse_power_profile(doc.get("power_profile", {}))
    listen_ms = round(listen * MS_PER_S)  # as the simulator rounds it

    sites: list[SiteSpec] = []
    seen_sites: set[str] = set()
    seen_uids: dict[int, str] = {}
    for s_index, site_doc in enumerate(sites_doc):
        where = f"sites[{s_index}]"
        _check_keys(site_doc, {"site_id", "link", "nodes"}, where)
        site_id = _string(_require(site_doc, "site_id", where), f"{where}: site_id")
        if not site_id:
            raise InvalidScenarioError(f"{where}: site_id must not be empty")
        if any(char in site_id for char in SITE_ID_RESERVED):
            raise InvalidScenarioError(
                f"{where}: site_id {site_id!r} must not hold any of"
                f" {SITE_ID_RESERVED!r}")
        if site_id in seen_sites:
            raise InvalidScenarioError(f"{where}: duplicate site_id {site_id!r}")
        seen_sites.add(site_id)
        link = _parse_link(site_doc.get("link", {}), f"{where}.link")
        nodes: list[NodeSpec] = []
        nodes_doc = _list(_require(site_doc, "nodes", where), f"{where}: nodes")
        for n_index, node_doc in enumerate(nodes_doc):
            node_where = f"{where}.nodes[{n_index}]"
            spec = _parse_node(node_doc, node_where, base_dir)
            if spec.uid in seen_uids:
                raise InvalidScenarioError(
                    f"{node_where}: duplicate node uid {spec.uid}"
                )
            seen_uids[spec.uid] = site_id
            kind = SensorKind(spec.sensor_type)
            frame = READING_FRAME_BYTES[kind]
            if frame > link.max_payload:
                raise InvalidScenarioError(
                    f"{node_where}: a single reading frame of {frame} bytes"
                    f" exceeds max_payload {link.max_payload}"
                )
            # at worst a period holds one sample, its reading and a flush,
            # and each listen interval a sniff: the node must have time
            busy = ((profile.sample_ms(kind) + 2 * profile.tx_duration_ms)
                    / (spec.sampling_rate_s * MS_PER_S)
                    + profile.sniff_duration_ms / listen_ms)
            if busy > 1:
                raise InvalidScenarioError(
                    f"{node_where}: node {spec.uid} would be busy {busy:.0%}"
                    f" of the time sampling every {spec.sampling_rate_s} s,"
                    f" sending a reading and a flush, and sniffing"
                )
            nodes.append(spec)
        sites.append(SiteSpec(site_id, link, tuple(nodes)))
    if not seen_uids:
        raise InvalidScenarioError("scenario: no nodes defined")
    return ScenarioConfig(
        seed=seed,
        duration_s=duration,
        listen_interval_s=listen,
        sites=tuple(sites),
        power_profile=profile,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Parse a UTF-8 JSON scenario file; every error names the file."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        return parse_scenario(doc, path.parent)
    except (UnicodeDecodeError, json.JSONDecodeError, InvalidScenarioError) as exc:
        raise InvalidScenarioError(f"{path}: {exc}") from None


def build_node(spec: NodeSpec) -> SensorNode:
    config = NodeConfig(sensor_type=spec.sensor_type,
                        sampling_rate=spec.sampling_rate_s)
    return SensorNode(spec.uid, config, {spec.sensor_type: spec.driver})


def build_simulator(config: ScenarioConfig) -> Simulator:
    """Instantiate the whole network a scenario describes (not started);
    a parsed scenario always builds."""
    sim = Simulator(
        seed=config.seed,
        duration_s=config.duration_s,
        listen_interval_s=config.listen_interval_s,
        power_profile=config.power_profile,
    )
    for site in config.sites:
        sim.add_site(site.site_id, site.link)
        for spec in site.nodes:
            sim.add_node(site.site_id, build_node(spec))
    return sim


def node_directory(config: ScenarioConfig) -> dict[int, str]:
    """uid -> transect lookup the backend labels sink records with; the
    site comes from the gateway that forwarded the reading."""
    return {spec.uid: spec.transect
            for site in config.sites for spec in site.nodes}


def default_scenario_path() -> Path:
    return Path(__file__).parent / "data" / "forhot.json"


def default_scenario() -> ScenarioConfig:
    """The bundled reference deployment: 58 nodes across three sites."""
    return load_scenario(default_scenario_path())


def make_reference_deployment() -> dict:
    """The document behind the bundled scenario file."""
    return json.loads(default_scenario_path().read_text(encoding="utf-8"))
