"""Exit codes and printed output of the command-line tool."""

import csv
import json
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
    code, _, err = run_cli(capsys, "feas-analyze", "--trace",
                           str(tmp_path / "absent.csv"),
                           "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert "not found" in err


def test_feas_analyze_bad_trace_names_line(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp_unix,transect,t_soil_c,t_air_c\n0,E,29.0\n")
    code, _, err = run_cli(capsys, "feas-analyze", "--trace", str(bad),
                           "--out", str(tmp_path / "r.csv"))
    assert code == 2
    assert "line 2" in err


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
    with open(out_dir / "readings.csv", newline="") as handle:
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


@pytest.mark.parametrize("csv_text, named", [
    (None, "cannot read"),
    ("time,t_soil\n0,4.0\n", "expected header"),
    ("timestamp_unix,t_soil\n0\n", "line 2: expected 2 fields"),
    ("timestamp_unix,t_soil\n0,4.0\n60,abc\n", "line 3: not a number"),
    ("timestamp_unix,t_soil\n0," + "1" * 200_000 + "\n", "field larger"),
], ids=["missing", "header", "short row", "not a number", "huge field"])
def test_sim_run_rejects_a_trace_file_it_cannot_load(capsys, tmp_path,
                                                     csv_text, named):
    path = Path(one_node_scenario(tmp_path))
    _replace_in_scenario(path, TRACE, "trace.csv")
    if csv_text is not None:
        (tmp_path / "trace.csv").write_text(csv_text)
    code, _, err = run_cli(capsys, "sim-run", "--scenario", str(path),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "node 1 trace" in err
    assert "trace.csv" in err
    assert named in err


def test_sim_run_prints_backend_counters(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "sim-run", "--scenario",
                           one_node_scenario(tmp_path),
                           "--out", str(tmp_path / "out"))
    assert code == 0
    assert "backend: quarantined 0, late answers 0" in out.splitlines()


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
