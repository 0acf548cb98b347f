"""Exit codes and printed output of the command-line tool."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from geowsn.cli import main
from geowsn.feasibility import AVERAGING_NOTE, CONVEXITY_CAVEAT

WRITE_HEX = "04 41 03000000 01000000 AA"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decode_write_action(capsys):
    code, out, err = run_cli(capsys, "proto-decode", "--hex", WRITE_HEX)
    assert code == 0
    assert out.splitlines() == [
        "WriteFileData file=0x41 offset=3 len=1 payload=AA"
    ]
    assert err == ""


def test_decode_read_action(capsys):
    code, out, _ = run_cli(capsys, "proto-decode", "--hex",
                           "0141000000000C000000")
    assert code == 0
    assert out.splitlines() == ["ReadFileData file=0x41 offset=0 len=12"]


def test_decode_multi_action_listing(capsys):
    code, out, _ = run_cli(
        capsys, "proto-decode", "--hex",
        "04410300000001000000AA" + "0141000000000C000000")
    assert code == 0
    assert out.splitlines() == [
        "WriteFileData file=0x41 offset=3 len=1 payload=AA",
        "ReadFileData file=0x41 offset=0 len=12",
    ]


def test_decode_truncated_input_fails_with_offset(capsys):
    code, out, err = run_cli(capsys, "proto-decode", "--hex", "044103")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_decode_rejects_bad_hex(capsys):
    code, _, err = run_cli(capsys, "proto-decode", "--hex", "zz")
    assert code == 2
    assert "hex" in err


def test_encode_matches_decode(capsys):
    code, out, _ = run_cli(capsys, "proto-encode",
                           "write:0x41:3:AA", "read:0x41:0:12")
    assert code == 0
    wire = out.strip()
    assert wire == "04410300000001000000AA" + "0141000000000C000000".upper()
    code, out, _ = run_cli(capsys, "proto-decode", "--hex", wire)
    assert code == 0
    assert len(out.splitlines()) == 2


def test_encode_status_spec(capsys):
    code, out, _ = run_cli(capsys, "proto-encode", "status:0:0x41:3:1")
    assert code == 0
    assert out.strip() == "7F41030000000100000000"


def test_encode_rejects_bad_spec(capsys):
    code, _, err = run_cli(capsys, "proto-encode", "poke:0x41:3")
    assert code == 2
    assert "poke" in err


def test_encode_describes_grammar(capsys):
    code, out, _ = run_cli(capsys, "proto-encode", "--describe")
    assert code == 0
    assert "read:FILE:OFFSET:LENGTH" in out


def test_decode_describes_grammar(capsys):
    code, out, _ = run_cli(capsys, "proto-decode", "--describe")
    assert code == 0
    assert "read:FILE:OFFSET:LENGTH" in out


def test_decode_without_hex_fails(capsys):
    code, out, err = run_cli(capsys, "proto-decode")
    assert (code, out) == (2, "")
    assert err == "error: --hex is required (or --describe)\n"


def test_encode_without_actions_fails(capsys):
    code, out, err = run_cli(capsys, "proto-encode")
    assert (code, out) == (2, "")
    assert err == "error: no actions given (see --describe)\n"


def test_decode_lists_a_status_action(capsys):
    code, out, _ = run_cli(capsys, "proto-decode", "--hex",
                           "7F41030000000100000005")
    assert code == 0
    assert out.splitlines() == ["Status code=0x05 file=0x41 offset=3 len=1"]


@pytest.mark.parametrize("spec, named", [
    ("read:0x41:x:12", "offset: not a number: 'x'"),
    ("status:0:zz", "status field: not a number: 'zz'"),
])
def test_encode_names_a_field_that_is_not_a_number(capsys, spec, named):
    code, out, err = run_cli(capsys, "proto-encode", spec)
    assert (code, out) == (2, "")
    assert err == f"error: action {spec!r}: {named}\n"


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["proto-decode", "--hexx", "00"])
    assert info.value.code == 2


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(
        "timestamp_unix,transect,t_soil_c,t_air_c\n"
        "0,E,29.0,0.0\n"
        "600,E,29.0,0.0\n"
    )
    return path


def test_feas_analyze_prints_notes_and_writes_report(capsys, tmp_path,
                                                     trace_file):
    out_csv = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "feas-analyze", "--trace",
                           str(trace_file), "--out", str(out_csv))
    assert code == 0
    assert AVERAGING_NOTE in out
    assert CONVEXITY_CAVEAT in out
    assert "transect E" in out
    assert "24.27" in out
    text = out_csv.read_text()
    assert AVERAGING_NOTE in text
    assert "yearly,E," in text


def test_feas_analyze_missing_trace_fails(capsys, tmp_path):
    trace = tmp_path / "absent.csv"
    code, _, err = run_cli(capsys, "feas-analyze", "--trace", str(trace),
                           "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert err == f"error: {trace}: No such file or directory\n"


def test_feas_analyze_bad_trace_names_line(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp_unix,transect,t_soil_c,t_air_c\n0,E,29.0\n")
    code, _, err = run_cli(capsys, "feas-analyze", "--trace", str(bad),
                           "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert "line 2" in err


def test_feas_analyze_refuses_a_temperature_that_is_not_finite(capsys,
                                                              tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("timestamp_unix,transect,t_soil_c,t_air_c\n"
                     "0,T1,30.0,1.0\n86400,T1,nan,2.0\n172800,T1,31.0,inf\n")
    report = tmp_path / "r.csv"
    code, out, err = run_cli(capsys, "feas-analyze", "--trace", str(trace),
                             "--out", str(report))
    assert (code, out) == (2, "")
    assert err == f"error: {trace}: line 3: t_soil_c nan is not finite\n"
    assert not report.exists()


@pytest.mark.parametrize("stamp", [10**15, -10**14, 300_000_000_000])
def test_feas_analyze_rejects_a_timestamp_no_date_can_name(capsys, tmp_path,
                                                           stamp):
    trace = tmp_path / "trace.csv"
    trace.write_text("timestamp_unix,transect,t_soil_c,t_air_c\n"
                     f"0,A,29.0,0.0\n{stamp},E,29.0,0.0\n")
    code, out, err = run_cli(capsys, "feas-analyze", "--trace", str(trace),
                             "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert out == ""
    assert err == (f"error: {trace}: transect E: timestamp {stamp} lies"
                   " outside years 1-9999\n")


def test_feas_analyze_verdict_flag(capsys, tmp_path, trace_file):
    code, out, _ = run_cli(capsys, "feas-analyze", "--trace",
                           str(trace_file), "--out",
                           str(tmp_path / "r.csv"),
                           "--node-power-mw", "1.0")
    assert code == 0
    assert "transect E: harvest feasible" in out


def test_feas_calibrate_prints_resistance(capsys):
    code, out, _ = run_cli(capsys, "feas-calibrate", "--mean-dt-c", "29.0",
                           "--mean-power-mw", "24.27")
    assert code == 0
    assert "calibrated r_elec_ohm: 3.69" in out
    assert "convexity" in out


def test_feas_calibrate_rejects_zero_gradient(capsys):
    code, _, err = run_cli(capsys, "feas-calibrate", "--mean-dt-c", "0",
                           "--mean-power-mw", "1.0")
    assert code == 2
    assert "gradient" in err


@pytest.mark.parametrize("flags, names", [
    (["--mean-dt-c", "inf", "--mean-power-mw", "24.27"], "gradient"),
    (["--mean-dt-c", "29.0", "--mean-power-mw", "inf"], "power"),
    (["--mean-dt-c", "29.0", "--mean-power-mw", "24.27", "--alpha", "nan"],
     "Seebeck"),
    (["--mean-dt-c", "29.0", "--mean-power-mw", "24.27", "--alpha", "0"],
     "Seebeck"),
    (["--mean-dt-c", "29", "--mean-power-mw", "1e-310"], "resistance"),
    (["--mean-dt-c", "1e-200", "--mean-power-mw", "1e300"], "resistance"),
])
def test_feas_calibrate_rejects_non_finite_inputs(capsys, flags, names):
    code, out, err = run_cli(capsys, "feas-calibrate", *flags)
    assert code == 2
    assert "r_elec_ohm" not in out
    assert names in err


@pytest.mark.parametrize("doc", [
    {"r_hs": None},
    5,
    {"r_hs": {"cylinder": 5}},
    {"r_crod": {"cylinder": {"diameter_m": 0.02, "length_m": 0.1,
                             "conductivity": 1}}},
    {"alpha_v_per_k": True},
])
def test_feas_analyze_rejects_a_malformed_params_file(capsys, tmp_path,
                                                      trace_file, doc):
    params = tmp_path / "p.json"
    params.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "feas-analyze", "--trace",
                             str(trace_file), "--out",
                             str(tmp_path / "r.csv"), "--params", str(params))
    assert code == 2
    assert out == ""
    assert f"error: {params}:" in err


def test_feas_calibrate_rejects_a_malformed_params_file(capsys, tmp_path):
    params = tmp_path / "p.json"
    params.write_text('{"r_hs": null}', encoding="utf-8")
    code, out, err = run_cli(capsys, "feas-calibrate", "--params",
                             str(params), "--mean-dt-c", "29",
                             "--mean-power-mw", "24")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {params}: ")
    assert "r_hs" in err


@pytest.mark.parametrize("command", [
    ["feas-calibrate", "--mean-dt-c", "29", "--mean-power-mw", "24"],
    ["feas-analyze", "--trace", "{trace}", "--out", "{tmp}/r.csv"],
])
def test_a_missing_params_file_exits_2_naming_it(capsys, tmp_path,
                                                 trace_file, command):
    params = tmp_path / "absent.json"
    argv = [arg.format(trace=trace_file, tmp=tmp_path) for arg in command]
    code, out, err = run_cli(capsys, *argv, "--params", str(params))
    assert (code, out) == (2, "")
    assert err == f"error: {params}: No such file or directory\n"


def test_sim_run_writes_outputs(capsys, tmp_path):
    scenario = tmp_path / "tiny.json"
    scenario.write_text("""
    {
      "seed": 9,
      "duration_s": 120,
      "listen_interval_s": 1.0,
      "sites": [{
        "site_id": "north",
        "link": {"loss_probability": 0.0, "latency_ms": 20,
                 "max_payload": 256},
        "nodes": [{
          "uid": 1, "transect": "E", "sensor_type": 1,
          "sampling_rate_s": 30,
          "trace": {"kind": "constant", "value": 4.0}
        }]
      }]
    }
    """)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "sim-run", "--scenario", str(scenario),
                           "--out", str(out_dir))
    assert code == 0
    assert "log hash:" in out
    assert "projected battery lifetime" in out
    runlog = (out_dir / "runlog.txt").read_text()
    assert "# summary" in runlog
    with open(out_dir / "readings.csv", newline="",
              encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "timestamp"
    assert len(rows) > 1


def test_sim_run_seed_override_changes_hash(capsys, tmp_path):
    def run_with_seed(seed, sub):
        out_dir = tmp_path / sub
        code, out, _ = run_cli(capsys, "sim-run", "--scenario",
                               str(scenario), "--seed", str(seed),
                               "--out", str(out_dir))
        assert code == 0
        for line in out.splitlines():
            if line.startswith("log hash:"):
                return line
        raise AssertionError("no hash line")

    scenario = tmp_path / "tiny.json"
    scenario.write_text("""
    {
      "seed": 9,
      "duration_s": 300,
      "listen_interval_s": 1.0,
      "sites": [{
        "site_id": "north",
        "link": {"loss_probability": 0.5, "latency_ms": 20,
                 "max_payload": 256},
        "nodes": [{
          "uid": 1, "transect": "E", "sensor_type": 1,
          "sampling_rate_s": 10,
          "trace": {"kind": "constant", "value": 4.0}
        }]
      }]
    }
    """)
    assert run_with_seed(1, "a") != run_with_seed(2, "b")
    assert run_with_seed(1, "c") == run_with_seed(1, "a2")


def test_sim_run_rejects_infinite_duration(capsys, tmp_path):
    # Python's json reads the non-standard Infinity literal
    scenario = tmp_path / "forever.json"
    scenario.write_text("""
    {
      "seed": 9,
      "duration_s": Infinity,
      "sites": [{
        "site_id": "north",
        "nodes": [{
          "uid": 1, "sensor_type": 1, "sampling_rate_s": 30,
          "trace": {"kind": "constant", "value": 4.0}
        }]
      }]
    }
    """)
    code, _, err = run_cli(capsys, "sim-run", "--scenario", str(scenario),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "duration_s" in err


def test_sim_run_rejects_bad_scenario(capsys, tmp_path):
    scenario = tmp_path / "broken.json"
    scenario.write_text('{"seed": 1}')
    code, _, err = run_cli(capsys, "sim-run", "--scenario", str(scenario),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "error:" in err


def test_sim_run_refuses_a_scenario_that_is_not_utf8(capsys, tmp_path):
    scenario = tmp_path / "bad.json"
    scenario.write_bytes(b'{"seed": 1, "x": "\xff"}')
    code, out, err = run_cli(capsys, "sim-run", "--scenario", str(scenario),
                             "--out", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {scenario}: ")
    assert "can't decode byte 0xff" in err


def test_sim_run_refuses_a_site_id_utf8_cannot_encode(capsys, tmp_path):
    # json.dumps writes the lone surrogate as the escape \udc80
    scenario = one_node_scenario(tmp_path)
    _replace_in_scenario(Path(scenario), ["sites", 0, "site_id"], "\udc80x")
    code, out, err = run_cli(capsys, "sim-run", "--scenario", scenario,
                             "--out", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert "sites[0]: site_id must be UTF-8 text" in err


def test_sim_run_missing_scenario_fails(capsys, tmp_path):
    scenario = tmp_path / "absent.json"
    code, out, err = run_cli(capsys, "sim-run", "--scenario", str(scenario),
                             "--out", str(tmp_path / "out"))
    assert (code, out) == (2, "")
    assert err == f"error: {scenario}: No such file or directory\n"


def one_node_scenario(tmp_path, *, link=None, power_profile=None,
                      **top) -> str:
    """A one-node, 600 s scenario file; keyword arguments replace fields."""
    doc = {
        "seed": 9,
        "duration_s": 600,
        "listen_interval_s": 1.0,
        "sites": [{
            "site_id": "north",
            "link": {"loss_probability": 0.0, "latency_ms": 20,
                     "max_payload": 256, **(link or {})},
            "nodes": [{
                "uid": 1, "transect": "E", "sensor_type": 1,
                "sampling_rate_s": 60,
                "trace": {"kind": "constant", "value": 4.0},
            }],
        }],
        "power_profile": power_profile or {},
        **top,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("fields, named", [
    ({"listen_interval_s": 0.0004}, "listen_interval_s"),
    ({"power_profile": {"tx_current_a": "abc"}}, "tx_current_a"),
    ({"link": {"latency_ms": None}}, "latency_ms"),
])
def test_sim_run_rejects_numbers_it_cannot_run(capsys, tmp_path, fields,
                                               named):
    scenario = one_node_scenario(tmp_path, **fields)
    code, _, err = run_cli(capsys, "sim-run", "--scenario", scenario,
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert named in err


def _replace_in_scenario(path: Path, keys: list, value) -> None:
    doc = json.loads(path.read_text())
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    path.write_text(json.dumps(doc))


TRACE = ["sites", 0, "nodes", 0, "trace"]


@pytest.mark.parametrize("keys, value, named", [
    (["sites"], [5], "sites[0] must be an object"),
    (["sites", 0, "nodes"], 5, "nodes must be a list"),
    (["sites", 0, "nodes"], [5], "nodes[0] must be an object"),
    (["sites", 0, "link"], 5, "link must be an object"),
    (["power_profile"], {"sample_duration_ms": 5},
     "sample_duration_ms must be an object"),
    (TRACE, {"kind": "multi", "channels": 5}, "channels must be a list"),
    (TRACE, {"kind": "multi", "channels": [5]},
     "channels[0] must be an object"),
])
def test_sim_run_rejects_a_structure_of_the_wrong_type(capsys, tmp_path,
                                                       keys, value, named):
    path = Path(one_node_scenario(tmp_path))
    _replace_in_scenario(path, keys, value)
    code, _, err = run_cli(capsys, "sim-run", "--scenario", str(path),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert named in err


@pytest.mark.parametrize("csv_bytes, named", [
    (None, "cannot read"),
    (b"time,t_soil\n0,4.0\n", "expected header"),
    (b"timestamp_unix,t_soil\n0\n", "line 2: expected 2 fields"),
    (b"timestamp_unix,t_soil\n0,4.0\n60,abc\n", "line 3: not a number"),
    (b"timestamp_unix,t_soil\n0," + b"1" * 200_000 + b"\n",
     "line 2: field larger than field limit"),
    (b"timestamp_unix,t_soil\n", "empty sensor trace"),
    (b"timestamp_unix,t_soil\n0,4.0\n60,4\xff\n", "line 3: not UTF-8 text"),
    (b"timestamp_unix,t_\xe9\n0,4.0\n", "line 1: not UTF-8 text"),
    (b"timestamp_unix,t_soil\n60,abc\n60,\xff\n0," + b"1" * 200_000,
     "line 2: not a number"),
    (b"timestamp_unix,t_soil\n0,2.0\n1200,6.0\n600,4.0\n",
     "line 4: timestamp 600 goes backwards"),
], ids=["missing", "header", "short row", "not a number", "huge field",
        "header only", "not UTF-8", "header not UTF-8", "first fault first",
        "backwards"])
def test_sim_run_rejects_a_trace_file_it_cannot_load(capsys, tmp_path,
                                                     csv_bytes, named):
    path = Path(one_node_scenario(tmp_path))
    _replace_in_scenario(path, TRACE, "trace.csv")
    if csv_bytes is not None:
        (tmp_path / "trace.csv").write_bytes(csv_bytes)
    code, _, err = run_cli(capsys, "sim-run", "--scenario", str(path),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "node 1 trace" in err
    assert "trace.csv" in err
    assert named in err


def test_sim_run_into_a_used_directory_holds_only_the_new_runs_readings(
        capsys, tmp_path):
    scenario = one_node_scenario(tmp_path)
    out_dir = tmp_path / "out"
    for _ in range(2):
        code, out, _ = run_cli(capsys, "sim-run", "--scenario", scenario,
                               "--out", str(out_dir))
        assert code == 0
    printed = dict(line.split(": ", 1) for line in out.splitlines()
                   if line.startswith(("sink rows: ", "log hash: ")))
    with open(out_dir / "readings.csv", newline="",
              encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][0] == "timestamp"
    assert len(rows) == 1 + int(printed["sink rows"]) > 2
    runlog = (out_dir / "runlog.txt").read_bytes()
    assert printed["log hash"] == hashlib.sha256(runlog).hexdigest()


@pytest.mark.parametrize("seed, reason", [
    ("-5", "must be finite and at least 0"),
    (str(10**400), "must be finite and at least 0"),
], ids=["negative", "beyond a float"])
def test_sim_run_refuses_a_seed_the_scenario_would_refuse(capsys, tmp_path,
                                                          seed, reason):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "sim-run", "--scenario",
                             one_node_scenario(tmp_path), "--seed", seed,
                             "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err == f"error: --seed {reason}\n"
    assert not (out_dir / "runlog.txt").exists()


def test_sim_run_duration_override_runs_the_scenario_that_long(capsys,
                                                               tmp_path):
    from geowsn.scenario import build_simulator, default_scenario

    code, out, _ = run_cli(capsys, "sim-run", "--duration-s", "3600",
                           "--out", str(tmp_path))
    expected = build_simulator(default_scenario().with_duration(3600)).run()
    assert code == 0
    assert f"log hash: {expected.stable_hash()}\n" in out
    assert "  duration_s: 3600  " in out


@pytest.mark.parametrize("duration, reason", [
    ("nan", "must be finite and at least 0"),
    ("inf", "must be finite and at least 0"),
    ("0", "must be at least 1 ms"),
    ("-5", "must be finite and at least 0"),
    ("1e17", "must be at most 9223372036854775807 ms"),
], ids=["nan", "inf", "zero", "negative", "beyond MAX_TIME_MS"])
def test_sim_run_refuses_a_duration_the_scenario_would_refuse(
        capsys, tmp_path, duration, reason):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "sim-run", "--scenario",
                             one_node_scenario(tmp_path), "--duration-s",
                             duration, "--out", str(out_dir))
    assert (code, out) == (2, "")
    assert err == f"error: --duration-s {reason}\n"
    assert not (out_dir / "runlog.txt").exists()


def test_sim_run_prints_backend_counters(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "sim-run", "--scenario",
                           one_node_scenario(tmp_path),
                           "--out", str(tmp_path / "out"))
    assert code == 0
    lines = out.splitlines()
    assert "backend: quarantined 0, late answers 0" in lines
    assert "nodes: driver faults 0, command errors 0, status uplinks 0" in lines


@pytest.mark.parametrize("trace, csv_text", [
    ("trace.csv", "timestamp_unix,t_soil\n0,nan\n600,nan\n"),
    ({"kind": "constant", "value": 1e300}, None),
    # sin of an infinite argument raises in the driver itself
    ({"kind": "sine", "mean": 4.0, "amplitude": 1.0, "period_s": 1e-306},
     None),
], ids=["nan trace", "1e300 constant", "tiny sine period"])
def test_sim_run_counts_a_measurement_it_cannot_encode_as_a_driver_fault(
        capsys, tmp_path, trace, csv_text):
    path = Path(one_node_scenario(tmp_path))
    _replace_in_scenario(path, TRACE, trace)
    if csv_text is not None:
        (tmp_path / "trace.csv").write_text(csv_text)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "sim-run", "--scenario", str(path),
                           "--out", str(out_dir))
    assert code == 0
    assert "# summary" in (out_dir / "runlog.txt").read_text()
    # one sample a minute for 600 s, each a fault reported by a status
    assert ("nodes: driver faults 10, command errors 0, status uplinks 10"
            in out.splitlines())


@pytest.mark.parametrize("key, value", [
    ("sampling_rate_s", 2**32),
    ("sensor_type", True),
])
def test_sim_run_rejects_a_node_the_firmware_cannot_hold(capsys, tmp_path,
                                                        key, value):
    path = Path(one_node_scenario(tmp_path))
    _replace_in_scenario(path, ["sites", 0, "nodes", 0, key], value)
    code, _, err = run_cli(capsys, "sim-run", "--scenario", str(path),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert key in err


def test_sim_run_rejects_a_site_id_a_bus_topic_cannot_hold(capsys, tmp_path):
    path = Path(one_node_scenario(tmp_path))
    _replace_in_scenario(path, ["sites", 0, "site_id"], "a/b")
    code, _, err = run_cli(capsys, "sim-run", "--scenario", str(path),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "sites[0]: site_id 'a/b' must not hold" in err


def test_sim_run_rejects_a_schedule_the_node_cannot_keep(capsys, tmp_path):
    # a 1000 ms weather sample and two 60 ms sends do not fit in 1 s
    path = Path(one_node_scenario(tmp_path))
    node = ["sites", 0, "nodes", 0]
    _replace_in_scenario(path, node + ["sensor_type"], "weather_station")
    _replace_in_scenario(path, node + ["sampling_rate_s"], 1)
    code, _, err = run_cli(capsys, "sim-run", "--scenario", str(path),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "node 1 would be busy 112% of the time" in err


def test_sim_run_rejects_a_bad_signal_number(capsys, tmp_path):
    path = Path(one_node_scenario(tmp_path))
    doc = json.loads(path.read_text())
    doc["sites"][0]["nodes"][0]["trace"]["value"] = "warm"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "sim-run", "--scenario", str(path),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "value" in err


def test_sim_run_prints_infinite_years_for_a_node_that_draws_nothing(
        capsys, tmp_path):
    scenario = one_node_scenario(tmp_path, power_profile={
        "sleep_current_a": 0.0, "tx_current_a": 0.0,
        "listen_current_a": 0.0, "sample_current_a": 0.0,
    })
    code, out, _ = run_cli(capsys, "sim-run", "--scenario", scenario,
                           "--out", str(tmp_path / "out"))
    assert code == 0
    assert "projected battery lifetime (worst node): inf years" in out


@pytest.mark.parametrize("flags", [
    ["--efficiency", "nan", "--node-power-mw", "0.4"],
    ["--efficiency", "-1", "--node-power-mw", "0.4"],
    ["--efficiency", "1.5"],
    ["--node-power-mw", "-1"],
    ["--node-power-mw", "nan"],
    ["--node-power-mw", "0"],
])
def test_feas_analyze_rejects_nonsense_figures(capsys, tmp_path, trace_file,
                                               flags):
    code, out, err = run_cli(capsys, "feas-analyze", "--trace",
                             str(trace_file), "--out",
                             str(tmp_path / "r.csv"), *flags)
    assert code == 2
    assert "feasible" not in out
    assert "error:" in err


@pytest.mark.parametrize("command, path, reason", [
    (["feas-analyze", "--trace", "{dir}", "--out", "{tmp}/r.csv"], "{dir}",
     "Is a directory"),
    (["feas-analyze", "--trace", "{trace}", "--out", "{dir}"], "{dir}",
     "Is a directory"),
    (["feas-calibrate", "--params", "{dir}", "--mean-dt-c", "29",
      "--mean-power-mw", "24"], "{dir}", "Is a directory"),
    (["sim-run", "--scenario", "{dir}", "--out", "{tmp}/out"], "{dir}",
     "Is a directory"),
    (["sim-run", "--out", "{trace}"], "{trace}", "File exists"),
    (["feas-analyze", "--trace", "{latin1}", "--out", "{tmp}/r.csv"],
     "{latin1}", "line 2: not UTF-8 text: b'\\xe9'"),
], ids=["trace", "report", "params", "scenario", "sim-run out", "not UTF-8"])
def test_a_path_the_command_cannot_use_exits_2_naming_it(capsys, tmp_path,
                                                         trace_file, command,
                                                         path, reason):
    (tmp_path / "a directory").mkdir()
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"timestamp_unix,transect,t_soil_c,t_air_c\n"
                       b"0,\xe9,29.0,0.0\n")
    names = {"dir": tmp_path / "a directory", "tmp": tmp_path,
             "trace": trace_file, "latin1": latin1}
    code, out, err = run_cli(capsys,
                             *(arg.format(**names) for arg in command))
    assert code == 2
    assert out == ""
    assert err == f"error: {path.format(**names)}: {reason}\n"


# -- the locale is not an input -----------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"
#: a process whose locale encoding, file encoding and terminal are ASCII
ASCII_LOCALE = {"LC_ALL": "C", "LANG": "C", "PYTHONCOERCECLOCALE": "0"}


def run_in_process(tmp_path, mode: str, *argv):
    """``geowsn`` in a new interpreter: ``mode`` "ascii" runs it under
    the C locale with UTF-8 mode off, "utf8" with UTF-8 mode on."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONUTF8", "PYTHONIOENCODING", "LC_ALL",
                          "LC_CTYPE", "LANG")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if mode == "ascii":
        env.update(ASCII_LOCALE)
    flag = "utf8=0" if mode == "ascii" else "utf8=1"
    return subprocess.run([sys.executable, "-X", flag, "-m", "geowsn.cli",
                           *argv], cwd=tmp_path, env=env, capture_output=True,
                          timeout=120)


def test_sim_run_writes_the_same_bytes_whatever_the_locale(tmp_path):
    doc = json.loads(Path(one_node_scenario(tmp_path)).read_text(
        encoding="utf-8"))
    doc["sites"][0]["site_id"] = "Grændalur"
    doc["sites"][0]["nodes"][0]["transect"] = "Grændalur"
    (tmp_path / "scenario.json").write_text(
        json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    outputs = {}
    for mode in ("ascii", "utf8"):
        result = run_in_process(tmp_path, mode, "sim-run", "--scenario",
                                "scenario.json", "--out", mode)
        assert result.returncode == 0, result.stderr
        assert result.stderr == b""
        outputs[mode] = [(tmp_path / mode / name).read_bytes()
                         for name in ("runlog.txt", "readings.csv")]
        if mode == "ascii":
            assert result.stdout.isascii()
            assert b"Gr\\xe6ndalur" in result.stdout
    assert outputs["ascii"] == outputs["utf8"]
    assert ",Grændalur,t_soil," in outputs["utf8"][1].decode("utf-8")


def test_feas_analyze_writes_the_same_bytes_whatever_the_locale(tmp_path):
    (tmp_path / "trace.csv").write_text(
        "timestamp_unix,transect,t_soil_c,t_air_c\n"
        "0,Grændalur,29.0,0.0\n600,Grændalur,28.0,1.0\n",
        encoding="utf-8")
    reports = {}
    for mode in ("ascii", "utf8"):
        result = run_in_process(tmp_path, mode, "feas-analyze", "--trace",
                                "trace.csv", "--out", f"{mode}.csv",
                                "--node-power-mw", "0.4")
        assert result.returncode == 0, result.stderr
        assert result.stderr == b""
        reports[mode] = (tmp_path / f"{mode}.csv").read_bytes()
        if mode == "ascii":
            assert result.stdout.isascii()
            assert b"transect Gr\\xe6ndalur: harvest feasible" in result.stdout
    assert reports["ascii"] == reports["utf8"]
    assert "yearly,Grændalur," in reports["utf8"].decode("utf-8")
    (tmp_path / "back.csv").write_text(
        "timestamp_unix,transect,t_soil_c,t_air_c\n"
        "600,Grændalur,29.0,0.0\n0,Grændalur,28.0,1.0\n", encoding="utf-8")
    result = run_in_process(tmp_path, "ascii", "feas-analyze", "--trace",
                            "back.csv", "--out", "back-report.csv")
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr == (b"error: back.csv: line 3: timestamp goes"
                             b" backwards within transect Gr\\xe6ndalur\n")
