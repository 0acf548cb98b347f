"""Tests of the benchmark's own machinery: input generators, span
tracing and the metric list in BENCHMARK.json."""

import json
from array import array
from pathlib import Path

import numpy as np
import pytest

import bench_inputs as inputs
import run as bench_run
from bench_trace import Tracer, patched, self_times
from geowsn.feasibility import load_temperature_trace
from geowsn.scenario import default_scenario_path, make_reference_deployment

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_scenario_is_the_bundled_deployment_with_seed_and_duration():
    doc = inputs.scenario_doc(4021, 7)
    bundled = json.loads(default_scenario_path().read_text())
    assert doc["duration_s"] == 7 * 86400
    assert {**doc, "duration_s": bundled["duration_s"]} == bundled
    assert inputs.scenario_doc(5, 1)["seed"] == 5
    assert len(inputs.scenario_uids(make_reference_deployment())) == 58


def test_op_script_is_deterministic_per_seed():
    uids = inputs.scenario_uids(make_reference_deployment())
    first = inputs.op_script(7, uids, 2000)
    assert first == inputs.op_script(7, uids, 2000)
    assert first != inputs.op_script(8, uids, 2000)
    assert first[:4] == inputs.session(first[0].uid)


def test_op_script_visits_every_node_once_per_round():
    uids = inputs.scenario_uids(make_reference_deployment())
    script = inputs.op_script(5, uids, 3 * 4 * len(uids))
    sessions = [script[i:i + 4] for i in range(0, len(script), 4)]
    assert all(s == inputs.session(s[0].uid) for s in sessions)
    rounds = [sessions[i:i + len(uids)] for i in range(0, len(sessions),
                                                     len(uids))]
    orders = [[s[0].uid for s in r] for r in rounds]
    assert all(sorted(order) == sorted(uids) for order in orders)
    assert orders[0] != orders[1]


def test_op_script_alternates_write_values_per_node():
    uids = inputs.scenario_uids(make_reference_deployment())
    last: dict[int, int] = {}
    for op in inputs.op_script(3, uids, 3000):
        if op.kind == "config_write":
            expected = inputs.ACTION_NONE if last.get(op.uid) == \
                inputs.MEASURE_NOW else inputs.MEASURE_NOW
            assert op.value == expected
            last[op.uid] = op.value


def test_trace_is_deterministic_per_seed_and_survives_the_csv(tmp_path):
    a = inputs.temperature_trace(11, transects=3, days=2)
    b = inputs.temperature_trace(11, transects=3, days=2)
    c = inputs.temperature_trace(12, transects=3, days=2)
    assert a.rows == 3 * 2 * 144
    for name in a.t_soil_c:
        assert np.array_equal(a.t_soil_c[name], b.t_soil_c[name])
        assert np.array_equal(a.t_air_c[name], b.t_air_c[name])
    assert not np.array_equal(a.t_air_c["T1"], c.t_air_c["T1"])

    path_a = inputs.write_trace_csv(tmp_path / "a.csv", a)
    path_b = inputs.write_trace_csv(tmp_path / "b.csv", b)
    assert path_a.read_bytes() == path_b.read_bytes()
    loaded = load_temperature_trace(path_a)
    assert set(loaded) == set(a.t_soil_c)
    for name, series in loaded.items():
        assert np.array_equal(series.timestamps, a.timestamps)
        assert np.array_equal(series.t_soil_c, a.t_soil_c[name])
        assert np.array_equal(series.t_air_c, a.t_air_c[name])


def test_self_time_of_a_hand_built_span_tree():
    #   A [0,100]
    #   +- B [10,40]
    #   |  +- C [15,25]
    #   +- B [50,70]
    #   +- D [80,90]
    names = ["A", "B", "C", "D"]
    spans = [(0, -1, 0, 100), (1, 0, 10, 40), (2, 1, 15, 25),
             (1, 0, 50, 70), (3, 0, 80, 90)]
    name_id, parent, start, end = (array("q", col) for col in zip(*spans))
    stats = self_times(names, name_id, parent, start, end)
    assert {n: s.calls for n, s in stats.items()} == \
        {"A": 1, "B": 2, "C": 1, "D": 1}
    assert {n: round(s.total_s * 1e9) for n, s in stats.items()} == \
        {"A": 100, "B": 50, "C": 10, "D": 10}
    assert {n: round(s.self_s * 1e9) for n, s in stats.items()} == \
        {"A": 40, "B": 40, "C": 10, "D": 10}


class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_wrappers_nest_spans_and_are_removed_afterwards():
    tracer = Tracer()
    outer, inner = _Layer.__dict__["outer"], _Layer.__dict__["inner"]
    with patched([(_Layer, "outer", tracer.span("outer", outer)),
                  (_Layer, "inner", tracer.span("inner", inner))]):
        assert _Layer().outer(3) == 7          # inactive: nothing recorded
        tracer.active = True
        assert _Layer().outer(3) == 7
        assert _Layer().inner(1) == 2
    assert _Layer.__dict__["outer"] is outer
    assert _Layer.__dict__["inner"] is inner
    stats = tracer.stats()
    assert stats["outer"].calls == 1 and stats["inner"].calls == 2
    assert list(tracer.parent) == [-1, 0, -1]
    pairs = {(row["span"], row["parent"]): row["calls"]
             for row in tracer.by_parent()}
    assert pairs == {("outer", None): 1, ("inner", "outer"): 1,
                     ("inner", None): 1}


def test_open_span_is_rejected():
    with pytest.raises(ValueError):
        self_times(["A"], [0], [-1], [5], [0])


def test_benchmark_json_lists_what_run_py_reports():
    spec = json.loads(BENCHMARK.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench_run.PER_LAYER
    from bench_workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
