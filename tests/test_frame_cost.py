"""Per-frame cost, counted in Python calls.

Wall time on a shared host drifts too much to show a change of a few
calls per frame, but cProfile's ``total_calls`` of a fresh process
repeats exactly.  This harness profiles ``Simulator.run`` of the
bundled scenario for six simulated hours, first with the simulator
alone and then with a ``Backend`` attached, each in a process of its
own.  The simulator's cost is its calls per sample taken; the
backend's is the extra calls per uplink arrival it ingests.

    PYTHONPATH=src python tests/test_frame_cost.py

prints both counts as JSON.
"""

import cProfile
import json
import os
import pstats
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HOURS = 6

#: ceilings, 5 % above the counts this code base makes
MAX_SIM_CALLS_PER_SAMPLE = 61.5 * 1.05
MAX_BACKEND_CALLS_PER_ARRIVAL = 31.3 * 1.05


def profile_run(with_backend: bool) -> dict:
    """Calls made by one run, with the samples and arrivals it saw."""
    from geowsn.backend import Backend
    from geowsn.scenario import build_simulator, default_scenario, node_directory

    config = default_scenario().with_duration(HOURS * 3600)
    sim = build_simulator(config)
    if with_backend:
        Backend(directory=node_directory(config)).attach_transport(sim)
    profile = cProfile.Profile()
    log = profile.runcall(sim.run)
    return {
        "calls": pstats.Stats(profile).total_calls,
        "samples": log.summary["records_produced"],
        "arrivals": log.count("UplinkArrival"),
    }


def fresh_profiles() -> tuple[dict, dict]:
    """``profile_run`` without and with the backend, each in a fresh
    process (a warm one makes fewer calls); the two run side by side."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, __file__, "--one"]
    runs = [subprocess.Popen(argv + flag, env=env, stdout=subprocess.PIPE,
                             text=True) for flag in ([], ["--backend"])]
    results = []
    for run in runs:
        out, _ = run.communicate(timeout=60)
        assert run.returncode == 0
        results.append(json.loads(out))
    return results[0], results[1]


def frame_cost() -> dict:
    alone, joined = fresh_profiles()
    assert (alone["samples"], alone["arrivals"]) == (
        joined["samples"], joined["arrivals"])
    return {
        "hours": HOURS,
        "simulator_calls": alone["calls"],
        "backend_calls": joined["calls"],
        "samples": alone["samples"],
        "arrivals": alone["arrivals"],
        "sim_calls_per_sample": alone["calls"] / alone["samples"],
        "backend_calls_per_arrival":
            (joined["calls"] - alone["calls"]) / alone["arrivals"],
    }


def test_calls_per_sample_and_per_arrival_stay_under_their_ceilings():
    cost = frame_cost()
    assert cost["samples"] > 2000 and cost["arrivals"] > 2000
    assert cost["sim_calls_per_sample"] <= MAX_SIM_CALLS_PER_SAMPLE, cost
    assert cost["backend_calls_per_arrival"] <= MAX_BACKEND_CALLS_PER_ARRIVAL, cost


if __name__ == "__main__":
    if "--one" in sys.argv:
        print(json.dumps(profile_run("--backend" in sys.argv)))
    else:
        print(json.dumps(frame_cost(), indent=1))
