"""Scenario files: a JSON description of a whole deployment.

A scenario names the seed, the run duration, the per-site radio links
and every node with its sensor feed.  A sensor feed (``trace``) is
either a path to a recorded CSV (relative to the scenario file) or an
inline deterministic generator, so a scenario can be fully
self-contained.  ``build_simulator`` turns a parsed scenario into a
ready-to-run network.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .alp import ACTION_HEADER_SIZE
from .netsim import (
    DEFAULT_LISTEN_INTERVAL_S,
    MS_PER_S,
    LinkModel,
    PowerProfile,
    Simulator,
)
from .node import (
    CHANNELS,
    ChannelSignal,
    ConstantSignal,
    NodeConfig,
    SensorDriver,
    SensorKind,
    SensorNode,
    SensorReading,
    SignalDriver,
    SineSignal,
    load_sensor_trace,
)

SENSOR_TYPE_NAMES = {
    "soil_temperature": SensorKind.SOIL_TEMPERATURE,
    "soil_water_content": SensorKind.SOIL_WATER_CONTENT,
    "weather_station": SensorKind.WEATHER_STATION,
}

_PROFILE_SCALAR_KEYS = {
    "sleep_current_a",
    "tx_current_a",
    "tx_duration_ms",
    "listen_current_a",
    "sniff_duration_ms",
    "sample_current_a",
}


class InvalidScenarioError(ValueError):
    """Raised with a message naming the first rule a scenario violates."""


@dataclass(frozen=True)
class NodeSpec:
    uid: int
    transect: str
    sensor_type: int
    sampling_rate_s: int
    trace: object


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
    base_dir: Path

    def with_duration(self, duration_s: float) -> "ScenarioConfig":
        return replace(self, duration_s=duration_s)

    @property
    def node_count(self) -> int:
        return sum(len(site.nodes) for site in self.sites)


def _sensor_kind(value, where: str) -> SensorKind:
    if isinstance(value, str):
        try:
            return SENSOR_TYPE_NAMES[value]
        except KeyError:
            raise InvalidScenarioError(
                f"{where}: unknown sensor_type {value!r}"
            ) from None
    try:
        return SensorKind(value)
    except (ValueError, TypeError):
        raise InvalidScenarioError(
            f"{where}: unknown sensor_type {value!r}"
        ) from None


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


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    _object(doc, where)
    unknown = set(doc) - allowed
    if unknown:
        raise InvalidScenarioError(
            f"{where}: unknown key {sorted(unknown)[0]!r}"
        )


def _number(value, where: str, *, minimum: float, integer: bool = False):
    """A finite JSON number of at least ``minimum``, as a ``float``; with
    ``integer``, a whole number, as an ``int``."""
    if type(value) not in (int, float):  # bool is not a number here
        raise InvalidScenarioError(f"{where} must be a number, got {value!r}")
    if not (minimum <= value and -math.inf < value < math.inf):
        raise InvalidScenarioError(
            f"{where} must be finite and at least {minimum:g}")
    if not integer:
        return float(value)
    if value % 1:
        raise InvalidScenarioError(f"{where} must be a whole number")
    return int(value)


def _whole_ms(value, where: str) -> float:
    """A positive time in s that stays at least 1 ms once the simulator
    rounds it to whole ms."""
    seconds = _number(value, where, minimum=0.0)
    if round(seconds * MS_PER_S) < 1:
        raise InvalidScenarioError(f"{where} must be at least 1 ms")
    return seconds


def parse_power_profile(doc: dict) -> PowerProfile:
    _check_keys(doc, _PROFILE_SCALAR_KEYS | {"sample_duration_ms"},
                "power_profile")
    kwargs = {key: _number(doc[key], f"power_profile: {key}", minimum=0.0)
              for key in _PROFILE_SCALAR_KEYS if key in doc}
    if "sample_duration_ms" in doc:
        where = "power_profile.sample_duration_ms"
        _object(doc["sample_duration_ms"], where)
        durations = dict(PowerProfile().sample_duration_ms)
        for name, ms in doc["sample_duration_ms"].items():
            kind = _sensor_kind(name, where)
            durations[kind] = _number(ms, f"{where}: {name}", minimum=0.0)
        kwargs["sample_duration_ms"] = durations
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


def build_driver(spec: NodeSpec, base_dir: Path) -> SensorDriver:
    """Turn a node's ``trace`` entry into a sensor driver."""
    kind = SensorKind(spec.sensor_type)
    channels = CHANNELS[kind]
    where = f"node {spec.uid} trace"
    trace = spec.trace
    if isinstance(trace, str):
        path = base_dir / trace
        try:
            return load_sensor_trace(path, kind)
        except OSError as exc:
            raise InvalidScenarioError(
                f"{where}: cannot read {path}: {exc.strerror or exc}") from None
        except ValueError as exc:
            raise InvalidScenarioError(f"{where}: {exc}") from None
        except csv.Error as exc:
            raise InvalidScenarioError(f"{where}: {path}: {exc}") from None
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


def _parse_node(doc: dict, where: str) -> NodeSpec:
    _check_keys(doc, {"uid", "transect", "sensor_type", "sampling_rate_s",
                      "trace"}, where)
    uid = _number(_require(doc, "uid", where), f"{where}: uid",
                  minimum=0, integer=True)
    kind = _sensor_kind(_require(doc, "sensor_type", where), where)
    rate = _number(_require(doc, "sampling_rate_s", where),
                   f"{where}: sampling_rate_s", minimum=1, integer=True)
    return NodeSpec(
        uid=uid,
        transect=str(doc.get("transect", "")),
        sensor_type=int(kind),
        sampling_rate_s=rate,
        trace=_require(doc, "trace", where),
    )


def _parse_link(doc: dict, where: str) -> LinkModel:
    _check_keys(doc, {"loss_probability", "latency_ms", "max_payload"}, where)
    loss = _number(doc.get("loss_probability", 0.0),
                   f"{where}: loss_probability", minimum=0.0)
    latency = _number(doc.get("latency_ms", 0), f"{where}: latency_ms",
                      minimum=0, integer=True)
    payload = _number(doc.get("max_payload", 256), f"{where}: max_payload",
                      minimum=1, integer=True)
    try:
        return LinkModel(loss, latency, payload)
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
    seed = _number(_require(doc, "seed", "scenario"), "scenario: seed",
                   minimum=0, integer=True)
    duration = _whole_ms(_require(doc, "duration_s", "scenario"),
                         "scenario: duration_s")
    listen = _whole_ms(doc.get("listen_interval_s", DEFAULT_LISTEN_INTERVAL_S),
                       "scenario: listen_interval_s")
    sites_doc = _require(doc, "sites", "scenario")
    if not isinstance(sites_doc, list) or not sites_doc:
        raise InvalidScenarioError("scenario: sites must be a non-empty list")
    profile = parse_power_profile(doc.get("power_profile", {}))

    sites: list[SiteSpec] = []
    seen_sites: set[str] = set()
    seen_uids: dict[int, str] = {}
    for s_index, site_doc in enumerate(sites_doc):
        where = f"sites[{s_index}]"
        _check_keys(site_doc, {"site_id", "link", "nodes"}, where)
        site_id = str(_require(site_doc, "site_id", where))
        if not site_id:
            raise InvalidScenarioError(f"{where}: site_id must not be empty")
        if site_id in seen_sites:
            raise InvalidScenarioError(f"{where}: duplicate site_id {site_id!r}")
        seen_sites.add(site_id)
        link = _parse_link(site_doc.get("link", {}), f"{where}.link")
        nodes: list[NodeSpec] = []
        nodes_doc = _list(_require(site_doc, "nodes", where), f"{where}: nodes")
        for n_index, node_doc in enumerate(nodes_doc):
            node_where = f"{where}.nodes[{n_index}]"
            spec = _parse_node(node_doc, node_where)
            if spec.uid in seen_uids:
                raise InvalidScenarioError(
                    f"{node_where}: duplicate node uid {spec.uid}"
                )
            seen_uids[spec.uid] = site_id
            kind = SensorKind(spec.sensor_type)
            reading = SensorReading(0, kind, (0,) * len(CHANNELS[kind]))
            frame = ACTION_HEADER_SIZE + len(reading.to_bytes())
            if frame > link.max_payload:
                raise InvalidScenarioError(
                    f"{node_where}: a single reading frame of {frame} bytes"
                    f" exceeds max_payload {link.max_payload}"
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
        base_dir=base_dir,
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise InvalidScenarioError(f"{path}: not valid JSON: {exc}") from None
    return parse_scenario(doc, path.parent)


def build_node(spec: NodeSpec, base_dir: Path, link: LinkModel) -> SensorNode:
    driver = build_driver(spec, base_dir)
    config = NodeConfig(
        sensor_type=spec.sensor_type,
        sampling_rate=spec.sampling_rate_s,
    )
    return SensorNode(
        spec.uid,
        config,
        {spec.sensor_type: driver},
        max_uplink_bytes=link.max_payload,
    )


def build_simulator(config: ScenarioConfig) -> Simulator:
    """Instantiate the whole network a scenario describes (not started)."""
    sim = Simulator(
        seed=config.seed,
        duration_s=config.duration_s,
        listen_interval_s=config.listen_interval_s,
        power_profile=config.power_profile,
    )
    for site in config.sites:
        sim.add_site(site.site_id, site.link)
        for spec in site.nodes:
            sim.add_node(site.site_id, build_node(spec, config.base_dir, site.link))
    return sim


def node_directory(config: ScenarioConfig) -> dict[int, dict]:
    """uid -> site/transect/kind lookup used by the backend and sinks."""
    directory: dict[int, dict] = {}
    for site in config.sites:
        for spec in site.nodes:
            directory[spec.uid] = {
                "site_id": site.site_id,
                "transect": spec.transect,
                "sensor_type": spec.sensor_type,
            }
    return directory


def default_scenario_path() -> Path:
    return Path(__file__).parent / "data" / "forhot.json"


def default_scenario() -> ScenarioConfig:
    """The bundled reference deployment: 58 nodes across three sites."""
    return load_scenario(default_scenario_path())


# -- reference deployment ----------------------------------------------------

#: warming treatment (degC above ambient) by transect letter; soils at
#: the unwarmed transect sit near the site's background temperature
_WARMING_BY_TRANSECT = {"A": 0.0, "B": 1.0, "C": 3.0, "D": 5.0, "E": 8.0,
                        "F": 10.0}
_TRANSECT_LETTERS = "ABCDEF"


def _soil_node(uid: int, plot: str, letter: str, index: int) -> dict:
    mean = 3.0 + _WARMING_BY_TRANSECT[letter]
    return {
        "uid": uid,
        "transect": f"{plot}-{letter}",
        "sensor_type": "soil_temperature",
        "sampling_rate_s": 600,
        "trace": {
            "kind": "sine",
            "mean": round(mean, 4),
            "amplitude": 1.5,
            "period_s": 86400,
            "phase_rad": round((index * 0.39) % 6.2832, 4),
        },
    }


def _water_node(uid: int, plot: str) -> dict:
    return {
        "uid": uid,
        "transect": f"{plot}-W",
        "sensor_type": "soil_water_content",
        "sampling_rate_s": 600,
        "trace": {"kind": "constant", "value": 31.5},
    }


def _weather_node(uid: int, plot: str) -> dict:
    return {
        "uid": uid,
        "transect": f"{plot}-WS",
        "sensor_type": "weather_station",
        "sampling_rate_s": 600,
        "trace": {
            "kind": "multi",
            "channels": [
                {"kind": "sine", "mean": 1.5, "amplitude": 5.0,
                 "period_s": 86400, "phase_rad": 0.0},
                {"kind": "sine", "mean": 82.0, "amplitude": 8.0,
                 "period_s": 86400, "phase_rad": 3.1416},
                {"kind": "sine", "mean": 4.5, "amplitude": 3.0,
                 "period_s": 86400, "phase_rad": 1.2},
            ],
        },
    }


def make_reference_deployment() -> dict:
    """Build the document behind the bundled scenario file.

    Three sites, 58 nodes: two warming grids of six transects per plot
    (GN 1-3 with 18 soil nodes, GN 4-5 with 12) and an older grid of 24
    soil nodes (GO), plus one water-content node per site and a weather
    station at GO.
    """
    index = 0

    def soil_nodes(first_uid: int, plots: list[str]) -> list[dict]:
        nonlocal index
        nodes = []
        uid = first_uid
        for plot in plots:
            for letter in _TRANSECT_LETTERS:
                nodes.append(_soil_node(uid, plot, letter, index))
                uid += 1
                index += 1
        return nodes

    gn13 = soil_nodes(1001, ["GN1", "GN2", "GN3"])
    gn13.append(_water_node(1019, "GN3"))
    gn45 = soil_nodes(2001, ["GN4", "GN5"])
    gn45.append(_water_node(2013, "GN5"))
    go = soil_nodes(3001, ["GO1", "GO2", "GO3", "GO4"])
    go.append(_water_node(3025, "GO2"))
    go.append(_weather_node(3026, "GO"))

    return {
        "seed": 4021,
        "duration_s": 86400,
        "listen_interval_s": 1.0,
        "sites": [
            {
                "site_id": "GN13",
                "link": {"loss_probability": 0.05, "latency_ms": 18,
                         "max_payload": 256},
                "nodes": gn13,
            },
            {
                "site_id": "GN45",
                "link": {"loss_probability": 0.06, "latency_ms": 22,
                         "max_payload": 256},
                "nodes": gn45,
            },
            {
                "site_id": "GO",
                "link": {"loss_probability": 0.04, "latency_ms": 15,
                         "max_payload": 256},
                "nodes": go,
            },
        ],
        "power_profile": {},
    }
