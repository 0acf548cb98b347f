"""Scenario file validation and the bundled reference deployment."""

import math

import pytest

from geowsn.node import SensorKind, TraceDriver
from geowsn.scenario import (
    InvalidScenarioError,
    ScenarioConfig,
    build_driver,
    build_simulator,
    default_scenario,
    default_scenario_path,
    load_scenario,
    node_directory,
    parse_scenario,
)


def minimal_doc(**node_overrides) -> dict:
    node = {
        "uid": 1,
        "transect": "E",
        "sensor_type": 1,
        "sampling_rate_s": 60,
        "trace": {"kind": "constant", "value": 4.0},
    }
    node.update(node_overrides)
    return {
        "seed": 3,
        "duration_s": 600,
        "listen_interval_s": 1.0,
        "sites": [
            {
                "site_id": "north",
                "link": {"loss_probability": 0.0, "latency_ms": 20,
                         "max_payload": 256},
                "nodes": [node],
            }
        ],
    }


def test_minimal_scenario_parses():
    config = parse_scenario(minimal_doc())
    assert config.seed == 3
    assert config.duration_s == 600
    assert config.node_count == 1
    site = config.sites[0]
    assert site.site_id == "north"
    assert site.link.latency_ms == 20
    assert site.nodes[0].sensor_type == SensorKind.SOIL_TEMPERATURE


def test_sensor_type_accepts_names():
    config = parse_scenario(minimal_doc(sensor_type="weather_station"))
    assert config.sites[0].nodes[0].sensor_type == SensorKind.WEATHER_STATION


def test_unknown_top_level_key_is_named():
    doc = minimal_doc()
    doc["surprise"] = 1
    with pytest.raises(InvalidScenarioError, match="surprise"):
        parse_scenario(doc)


def test_unknown_node_key_is_named():
    doc = minimal_doc(color="green")
    with pytest.raises(InvalidScenarioError, match="color"):
        parse_scenario(doc)


def test_missing_required_key_is_named():
    doc = minimal_doc()
    del doc["sites"][0]["nodes"][0]["sampling_rate_s"]
    with pytest.raises(InvalidScenarioError, match="sampling_rate_s"):
        parse_scenario(doc)


def test_omitted_link_gets_lossless_defaults():
    doc = minimal_doc()
    del doc["sites"][0]["link"]
    config = parse_scenario(doc)
    link = config.sites[0].link
    assert link.loss_probability == 0.0
    assert link.latency_ms == 0


def test_duplicate_uid_is_named():
    doc = minimal_doc()
    twin = dict(doc["sites"][0]["nodes"][0])
    doc["sites"][0]["nodes"].append(twin)
    with pytest.raises(InvalidScenarioError, match="1"):
        parse_scenario(doc)


def _set(doc: dict, path: str, value) -> dict:
    """Set the dotted ``path`` in ``doc``; digits index lists."""
    *parents, key = path.split(".")
    target = doc
    for name in parents:
        if isinstance(target, list):
            target = target[int(name)]
        else:
            target = target.setdefault(name, {})
    target[key] = value
    return doc


@pytest.mark.parametrize("path, value", [
    ("duration_s", math.inf),
    ("duration_s", math.nan),
    ("listen_interval_s", math.inf),
    ("listen_interval_s", math.nan),
    ("sites.0.link.latency_ms", math.inf),
    ("sites.0.link.max_payload", math.inf),
    ("power_profile.tx_current_a", math.nan),
    ("power_profile.sleep_current_a", math.inf),
    ("power_profile.sleep_current_a", -1.0),
    ("power_profile.sample_duration_ms.soil_temperature", math.nan),
])
def test_non_finite_numbers_rejected(path, value):
    with pytest.raises(InvalidScenarioError):
        parse_scenario(_set(minimal_doc(), path, value))


@pytest.mark.parametrize("path, value", [
    ("seed", True),
    ("duration_s", 0.0004),
    ("listen_interval_s", 0.0004),
    ("listen_interval_s", "1.0"),
    ("sites.0.link.latency_ms", None),
    ("sites.0.link.latency_ms", 2.5),
    ("sites.0.link.loss_probability", 1.5),
    ("sites.0.link.max_payload", 0),
    ("sites.0.nodes.0.uid", -1),
    ("sites.0.nodes.0.sampling_rate_s", 1.5),
    ("power_profile.tx_current_a", "abc"),
    ("power_profile.listen_current_a", False),
])
def test_numbers_the_simulator_cannot_use_are_rejected(path, value):
    with pytest.raises(InvalidScenarioError, match=path.split(".")[-1]):
        parse_scenario(_set(minimal_doc(), path, value))


def test_whole_number_floats_are_accepted():
    doc = _set(minimal_doc(), "sites.0.link.latency_ms", 20.0)
    link = parse_scenario(doc).sites[0].link
    assert link.latency_ms == 20 and isinstance(link.latency_ms, int)


@pytest.mark.parametrize("trace", [
    {"kind": "constant", "value": "warm"},
    {"kind": "sine", "mean": 1.0, "amplitude": 1.0, "period_s": 0},
    {"kind": "sine", "mean": None, "amplitude": 1.0, "period_s": 60},
])
def test_signal_numbers_are_checked(trace):
    config = parse_scenario(minimal_doc(trace=trace))
    with pytest.raises(InvalidScenarioError):
        build_simulator(config)


def test_zero_sampling_rate_rejected():
    with pytest.raises(InvalidScenarioError):
        parse_scenario(minimal_doc(sampling_rate_s=0))


def test_unknown_sensor_name_rejected():
    with pytest.raises(InvalidScenarioError):
        parse_scenario(minimal_doc(sensor_type="barometer"))


def test_reading_frame_must_fit_link_payload():
    doc = minimal_doc(sensor_type="weather_station",
                      trace={"kind": "constant", "value": 1.0})
    doc["sites"][0]["link"]["max_payload"] = 20
    with pytest.raises(InvalidScenarioError, match="max_payload"):
        parse_scenario(doc)


def test_trace_file_driver(tmp_path):
    trace = tmp_path / "soil.csv"
    trace.write_text(
        "timestamp_unix,t_soil_c\n"
        "0,2.0\n"
        "600,4.0\n"
    )
    doc = minimal_doc(trace="soil.csv")
    config = parse_scenario(doc, base_dir=tmp_path)
    driver = build_driver(config.sites[0].nodes[0], tmp_path)
    assert isinstance(driver, TraceDriver)
    assert driver.measure(0, 300.0) == (3.0,)
    # outside the trace the edge value holds
    assert driver.measure(0, 10_000.0) == (4.0,)


def test_sine_signal_driver():
    doc = minimal_doc(trace={"kind": "sine", "mean": 10.0, "amplitude": 2.0,
                             "period_s": 86400.0})
    config = parse_scenario(doc)
    driver = build_driver(config.sites[0].nodes[0], ".")
    assert driver.measure(0, 0.0)[0] == pytest.approx(10.0)
    assert driver.measure(0, 86400.0 / 4)[0] == pytest.approx(12.0)


def test_with_duration_changes_only_duration():
    config = parse_scenario(minimal_doc())
    week = config.with_duration(7 * 86400)
    assert week.duration_s == 7 * 86400
    assert week.seed == config.seed
    assert week.sites == config.sites
    assert isinstance(week, ScenarioConfig)


def test_node_directory_lists_every_node():
    config = parse_scenario(minimal_doc())
    directory = node_directory(config)
    assert directory[1]["site_id"] == "north"
    assert directory[1]["transect"] == "E"
    assert directory[1]["sensor_type"] == SensorKind.SOIL_TEMPERATURE


def test_build_simulator_registers_all_nodes():
    config = parse_scenario(minimal_doc())
    sim = build_simulator(config)
    assert sim.node_uids == (1,)
    assert sim.seed == 3
    assert "north" in sim.sites


def test_bundled_scenario_shape():
    config = default_scenario()
    assert config.seed == 4021
    assert config.node_count == 58
    assert len(config.sites) == 3
    by_site = {site.site_id: len(site.nodes) for site in config.sites}
    assert sum(by_site.values()) == 58
    uids = [node.uid for site in config.sites for node in site.nodes]
    assert len(set(uids)) == 58
    kinds = [node.sensor_type for site in config.sites for node in site.nodes]
    assert kinds.count(SensorKind.WEATHER_STATION) == 1
    assert kinds.count(SensorKind.SOIL_WATER_CONTENT) == 3
    assert kinds.count(SensorKind.SOIL_TEMPERATURE) == 54
    soil_labels = [node.transect for site in config.sites
                   for node in site.nodes
                   if node.sensor_type == SensorKind.SOIL_TEMPERATURE]
    suffixes = [label.rsplit("-", 1)[1] for label in soil_labels]
    assert set(suffixes) == set("ABCDEF")
    assert all(suffixes.count(letter) == 9 for letter in "ABCDEF")


def test_bundled_scenario_builds_and_steps():
    config = default_scenario().with_duration(60.0)
    sim = build_simulator(config)
    log = sim.run()
    assert log.summary["nodes"] == 58
    assert log.summary["duration_ms"] == 60_000


def test_load_scenario_reads_the_bundled_file():
    config = load_scenario(default_scenario_path())
    assert config.node_count == 58
