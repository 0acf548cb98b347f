"""Scenario file validation and the bundled reference deployment."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from geowsn.netsim import LinkModel, book_problems
from geowsn.node import SensorKind, SignalDriver, TraceSignal, load_sensor_trace
from geowsn.scenario import (
    SENSOR_TYPE_NAMES,
    InvalidScenarioError,
    ScenarioConfig,
    build_simulator,
    default_scenario,
    default_scenario_path,
    load_scenario,
    node_directory,
    parse_scenario,
)

SRC = Path(__file__).resolve().parent.parent / "src"


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
    pytest.param("duration_s", 10**400, id="integer beyond any float"),
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
    pytest.param("sites.0.nodes.0.uid", 2**64, id="uid-2**64"),
    pytest.param("sites.0.nodes.0.uid", 2**80, id="uid-2**80"),
    pytest.param("duration_s", 2**63 / 1000, id="duration_s-2**63-ms"),
    ("sites.0.nodes.0.sampling_rate_s", 1.5),
    ("power_profile.tx_current_a", "abc"),
    ("power_profile.listen_current_a", False),
])
def test_numbers_the_simulator_cannot_use_are_rejected(path, value):
    with pytest.raises(InvalidScenarioError, match=path.split(".")[-1]):
        parse_scenario(_set(minimal_doc(), path, value))


def test_the_largest_uid_and_a_duration_near_the_int64_ms_limit_parse():
    doc = _set(minimal_doc(uid=2**64 - 1), "duration_s", 9.2e15)
    config = parse_scenario(doc)
    assert config.sites[0].nodes[0].uid == 2**64 - 1
    assert 9.1e18 < build_simulator(config).duration_ms <= 2**63 - 1


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
    with pytest.raises(InvalidScenarioError, match="node 1 trace"):
        parse_scenario(minimal_doc(trace=trace))


def test_zero_sampling_rate_rejected():
    with pytest.raises(InvalidScenarioError):
        parse_scenario(minimal_doc(sampling_rate_s=0))


def test_unknown_sensor_name_rejected():
    with pytest.raises(InvalidScenarioError):
        parse_scenario(minimal_doc(sensor_type="barometer"))


@pytest.mark.parametrize("site_id", ["a/b", "north+", "#"])
def test_site_id_must_be_one_bus_topic_level(site_id):
    # the Backend subscribes to site/+/gw/+/up: a '/' in the id adds a
    # level that no subscription matches, and '+' or '#' are wildcards
    doc = minimal_doc()
    doc["sites"][0]["site_id"] = site_id
    with pytest.raises(InvalidScenarioError,
                       match=r"sites\[0\]: site_id .* must not hold"):
        parse_scenario(doc)


@pytest.mark.parametrize("value", [None, {"a": 1}, ["north"], 3.5],
                         ids=["null", "object", "list", "number"])
@pytest.mark.parametrize("path, where", [
    ("sites.0.site_id", "sites[0]: site_id"),
    ("sites.0.nodes.0.transect", "sites[0].nodes[0]: transect"),
], ids=["site_id", "transect"])
def test_a_label_must_be_a_json_string(path, where, value):
    with pytest.raises(InvalidScenarioError) as excinfo:
        parse_scenario(_set(minimal_doc(), path, value))
    assert str(excinfo.value) == f"{where} must be a string, got {value!r}"


@pytest.mark.parametrize("path, where", [
    ("sites.0.site_id", "sites[0]: site_id"),
    ("sites.0.nodes.0.transect", "sites[0].nodes[0]: transect"),
], ids=["site_id", "transect"])
def test_a_label_must_be_text_utf8_can_encode(path, where):
    # JSON "\udc80x" parses to a lone surrogate, which no UTF-8 text holds
    with pytest.raises(InvalidScenarioError) as excinfo:
        parse_scenario(_set(minimal_doc(), path, "\udc80x"))
    assert str(excinfo.value) == f"{where} must be UTF-8 text, got '\\udc80x'"


def _duplicate_site(doc: dict) -> dict:
    doc["sites"].append({"site_id": "north", "nodes": []})
    return doc


@pytest.mark.parametrize("edit, message", [
    (lambda doc: _set(doc, "sites.0.nodes.0.trace", 5),
     "node 1 trace: expected a path or an object"),
    (lambda doc: _set(doc, "sites.0.nodes.0.trace",
                      {"kind": "multi",
                       "channels": [{"kind": "constant", "value": 1.0}] * 2}),
     "node 1 trace: 2 channel signals for 1-channel sensor"),
    (lambda doc: _set(doc, "sites", []),
     "scenario: sites must be a non-empty list"),
    (lambda doc: _set(doc, "sites.0.site_id", ""),
     "sites[0]: site_id must not be empty"),
    (_duplicate_site, "sites[1]: duplicate site_id 'north'"),
    (lambda doc: _set(doc, "sites.0.nodes", []), "scenario: no nodes defined"),
], ids=["trace not a path or object", "multi channel count", "no sites",
        "empty site_id", "duplicate site_id", "no nodes"])
def test_a_scenario_refusal_names_its_rule(edit, message):
    with pytest.raises(InvalidScenarioError) as excinfo:
        parse_scenario(edit(minimal_doc()))
    assert str(excinfo.value) == message


def test_an_absent_link_key_takes_the_link_models_default():
    doc = minimal_doc()
    doc["sites"][0]["link"] = {"latency_ms": 20}
    assert parse_scenario(doc).sites[0].link == LinkModel(latency_ms=20)


def test_a_bad_power_profile_names_its_first_bad_key_under_any_hash_seed():
    profile = {"tx_duration_ms": -1, "sleep_current_a": -1,
               "tx_current_a": -1, "listen_current_a": -1,
               "sniff_duration_ms": -1, "sample_current_a": -1}
    script = ("from geowsn.scenario import parse_power_profile\n"
              "try:\n"
              f"    parse_power_profile({profile!r})\n"
              "except ValueError as exc:\n"
              "    print(exc)\n")
    messages = {
        subprocess.run([sys.executable, "-c", script], check=True,
                       capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC),
                                PYTHONHASHSEED=seed)).stdout
        for seed in ("1", "2")
    }
    assert messages == {
        "power_profile: tx_duration_ms must be finite and at least 0\n"}


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
    driver = config.sites[0].nodes[0].driver
    assert isinstance(driver, SignalDriver)
    assert all(isinstance(signal, TraceSignal) for signal in driver.signals)
    assert driver.measure(0, 300.0) == (3.0,)
    # outside the trace the edge value holds
    assert driver.measure(0, 10_000.0) == (4.0,)


def test_header_only_trace_file_is_rejected(tmp_path):
    (tmp_path / "soil.csv").write_text("timestamp_unix,t_soil_c\n")
    with pytest.raises(InvalidScenarioError,
                       match="node 1 trace: .*soil.csv: empty sensor trace"):
        parse_scenario(minimal_doc(trace="soil.csv"), base_dir=tmp_path)


def test_trace_driver_refuses_an_empty_trace():
    with pytest.raises(ValueError, match="empty sensor trace"):
        TraceSignal([], [])


@pytest.mark.parametrize("rows, named", [
    ("0,2.0\n1200,6.0\n600,4.0\n", "line 4: timestamp 600 goes backwards"),
    ("0,2.0\nnan,4.0\n1200,6.0\n", "line 3: timestamp nan is not finite"),
    ("0,2.0\ninf,4.0\n", "line 3: timestamp inf is not finite"),
    ("-inf,2.0\n0,4.0\n", "line 2: timestamp -inf is not finite"),
], ids=["backwards", "nan", "inf", "-inf"])
def test_a_trace_whose_timestamps_go_backwards_or_are_not_finite_is_refused(
        tmp_path, rows, named):
    # np.interp does not check order: the 1200 s row would be lost, and
    # a NaN time would make every later sample NaN
    (tmp_path / "soil.csv").write_text("timestamp_unix,t_soil_c\n" + rows)
    with pytest.raises(InvalidScenarioError) as excinfo:
        parse_scenario(minimal_doc(trace="soil.csv"), base_dir=tmp_path)
    assert str(excinfo.value) == (
        f"node 1 trace: {tmp_path / 'soil.csv'}: {named}")


def test_equal_trace_timestamps_are_legal(tmp_path):
    path = tmp_path / "soil.csv"
    path.write_text("timestamp_unix,t_soil_c\n"
                    "0,2.0\n600,4.0\n600,5.0\n1200,6.0\n")
    driver = load_sensor_trace(path, SensorKind.SOIL_TEMPERATURE)
    assert driver.measure(0, 300.0) == (3.0,)
    assert driver.measure(0, 900.0) == (5.5,)


def test_sine_signal_driver():
    doc = minimal_doc(trace={"kind": "sine", "mean": 10.0, "amplitude": 2.0,
                             "period_s": 86400.0})
    config = parse_scenario(doc)
    driver = config.sites[0].nodes[0].driver
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
    assert node_directory(config) == {1: "E"}


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


# -- parse fuzz: a scenario is rejected, or it runs ---------------------------

def two_node_doc() -> dict:
    """A valid scenario: a soil node on a sine, a weather node on a mix."""
    doc = minimal_doc(trace={"kind": "sine", "mean": 8.0, "amplitude": 3.0,
                             "period_s": 86400.0, "phase_rad": 0.5})
    doc["sites"][0]["nodes"].append({
        "uid": 2, "transect": "", "sensor_type": "weather_station",
        "sampling_rate_s": 300,
        "trace": {"kind": "multi", "channels": [
            {"kind": "sine", "mean": 2.0, "amplitude": 6.0,
             "period_s": 86400.0},
            {"kind": "constant", "value": 80.0},
            {"kind": "constant", "value": 3.0},
        ]},
    })
    doc["power_profile"] = {"tx_current_a": 0.045,
                            "sample_duration_ms": {"weather_station": 900.0}}
    return doc


def _paths(doc, prefix=()):
    """Every path in ``doc``, and one more per key name under each object,
    so that omitted keys get written too."""
    yield prefix
    if isinstance(doc, dict):
        for key in _KEY_NAMES:
            if key not in doc:
                yield prefix + (key,)
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


_KEY_NAMES = ("seed", "duration_s", "listen_interval_s", "sites",
              "power_profile", "site_id", "link", "nodes", "uid", "transect",
              "sensor_type", "sampling_rate_s", "trace", "loss_probability",
              "latency_ms", "max_payload", "kind", "value", "mean",
              "amplitude", "period_s", "phase_rad", "channels",
              "sample_duration_ms", "sleep_current_a", "tx_duration_ms",
              "surprise")
_PATHS = tuple(_paths(two_node_doc()))

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
_EDGE_VALUES = st.sampled_from([
    0, 1, -1, 0.0004, 2**31, 2**32 - 1, 2**32, 10**400, 1e-306, 1e300,
    math.inf, math.nan, True, False, None, "", "multi", "sine", "constant",
    "weather_station", "soil.csv", [], {},
])


def _write(doc, path, value):
    """``doc`` with ``value`` written at ``path``, if the path still
    leads somewhere after earlier writes."""
    if not path:
        return value
    target = doc
    for key in path[:-1]:
        try:
            target = target[key]
        except (KeyError, IndexError, TypeError):
            return doc
    if isinstance(target, dict) or (
            isinstance(target, list) and isinstance(path[-1], int)
            and path[-1] < len(target)):
        target[path[-1]] = value
    return doc


_NODE_0 = ("sites", 0, "nodes", 0)
_NODE_1 = ("sites", 0, "nodes", 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(writes=st.lists(st.tuples(st.sampled_from(_PATHS),
                                 _EDGE_VALUES | _JSON),
                       min_size=1, max_size=3))
@example(writes=[(_NODE_0 + ("sampling_rate_s",), 2**32)])
@example(writes=[(_NODE_0 + ("trace", "period_s"), 1e-306)])
@example(writes=[(_NODE_0 + ("trace",), {"kind": "constant",
                                         "value": "warm"})])
# busier than the period allows: the ledger's Sleep went negative
@example(writes=[(("power_profile", "tx_duration_ms"), 1e9)])
@example(writes=[(_NODE_1 + ("sampling_rate_s",), 1),
                 (("power_profile", "sample_duration_ms", "weather_station"),
                  1000.0)])
def test_a_scenario_is_rejected_or_runs(writes):
    doc = two_node_doc()
    for path, value in writes:
        doc = _write(doc, path, value)
    try:
        config = parse_scenario(doc, Path(__file__).parent / "absent")
    except InvalidScenarioError:
        return
    log = build_simulator(
        config.with_duration(min(config.duration_s, 600.0))).run()
    assert book_problems(log) == []


# -- the books against a closed form -------------------------------------------

#: records a node's flash holds before it overwrites the oldest
FLASH_RECORDS = 256
#: the most samples a generated run gives one node: enough to fill the
#: flash, few enough to keep each run fast
MAX_SAMPLES = 400


@st.composite
def star_docs(draw) -> dict:
    """A scenario of 1-3 sites of 1-4 nodes each, every site's link
    lossless or a black hole, run until its fastest node has taken at
    most ``MAX_SAMPLES`` samples."""
    uids = itertools.count(1)
    sites = [{
        "site_id": f"site{index}",
        "link": {"loss_probability": draw(st.sampled_from([0.0, 1.0])),
                 "latency_ms": draw(st.integers(0, 250))},
        "nodes": [{"uid": next(uids),
                   "sensor_type": draw(st.sampled_from(sorted(SENSOR_TYPE_NAMES))),
                   "sampling_rate_s": draw(st.integers(1, 3600)),
                   "trace": {"kind": "constant", "value": 4.0}}
                  for _ in range(draw(st.integers(1, 4)))],
    } for index in range(draw(st.integers(1, 3)))]
    # the fastest node takes a drawn number of samples, and the run
    # ends anywhere in the period after the last
    fastest_ms = 1000 * min(node["sampling_rate_s"]
                            for site in sites for node in site["nodes"])
    duration_ms = max(1, draw(st.integers(0, MAX_SAMPLES)) * fastest_ms
                      + draw(st.integers(0, fastest_ms - 1)))
    return {"seed": draw(st.integers(0, 2**32)),
            "duration_s": duration_ms / 1000,
            "listen_interval_s": draw(st.sampled_from([0.5, 1.0, 2.0])),
            "sites": sites}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(doc=star_docs())
# a black-hole link and a full flash: 400 samples, 144 overwritten
@example(doc={"seed": 1, "duration_s": 24000.0, "listen_interval_s": 1.0,
              "sites": [{"site_id": "north", "link": {"loss_probability": 1.0},
                         "nodes": [{"uid": 1, "sensor_type": 1,
                                    "sampling_rate_s": 60,
                                    "trace": {"kind": "constant",
                                              "value": 4.0}}]}]})
def test_the_books_of_a_star_match_their_closed_form(doc):
    """With no Backend, a node with period r in a run of D ms takes
    N = floor(D / r) samples and sends each reading once, and sniffs
    floor(D / L) times.  A lossless link delivers every reading; a black
    hole keeps the last 256 in flash and overwrites the rest."""
    try:
        config = parse_scenario(doc)
    except InvalidScenarioError:
        return
    log = build_simulator(config).run()
    s = log.summary
    duration_ms = round(doc["duration_s"] * 1000)
    sniffs = duration_ms // round(doc["listen_interval_s"] * 1000)
    for site in doc["sites"]:
        lost = site["link"]["loss_probability"] == 1.0
        for node in site["nodes"]:
            n = duration_ms // (node["sampling_rate_s"] * 1000)
            stored = (min(n, FLASH_RECORDS), max(0, n - FLASH_RECORDS))
            key = f"node.{node['uid']}."
            assert s[key + "produced"] == n
            assert s[key + "uplinks"] == f"{0 if lost else n}/{n}"
            assert s[key + "sniffs"] == sniffs
            assert (s[key + "buffered"], s[key + "overwritten"]) == (
                stored if lost else (0, 0))
    assert book_problems(log) == []
