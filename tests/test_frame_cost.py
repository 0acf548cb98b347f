"""Per-frame cost, counted in Python calls.

Wall time on a shared host drifts too much to show a change of a few
calls per frame, but the calls cProfile counts in a fresh process
repeat exactly.  This harness profiles ``Simulator.run`` of the
bundled scenario for six simulated hours, first with the simulator
alone and then with a ``Backend`` attached, each in a process of its
own.  The simulator's cost is its calls per sample taken; the
backend's is the extra calls per uplink arrival it ingests.  Node count
is an axis too: the bundled sites copied ten times (580 nodes) cost the
simulator as many calls per sample in one simulated hour as the 58
bundled nodes do.  Remote access has its cost too: the calls per op of
a 4-op session with every bundled node in turn, on the 1-day
deployment with a ``Backend``.

Every figure is the calls summed over all ``profile.getstats()``
entries.  ``pstats``' ``total_calls`` would keep one entry per ``(file,
line, name)`` label: every ``NamedTuple`` ``__new__`` shares one label,
and so does every dataclass ``__init__``, so all but one function of
each such label would drop out, and which one stays depends on the code.

    PYTHONPATH=src python tests/test_frame_cost.py

prints the counts as JSON.
"""

import cProfile
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
HOURS = 6
#: copies of the bundled sites on the node-count axis, and its run length
COPIES, COPIES_HOURS = 10, 1
#: rounds of remote sessions with every bundled node, in a 1-day run,
#: and each op's timeout
REMOTE_ROUNDS, REMOTE_HOURS, REMOTE_TIMEOUT_S = 5, 24, 10.0

#: ceilings, 5 % above the counts this code base makes
MAX_SIM_CALLS_PER_SAMPLE = 44.32 * 1.05
MAX_BACKEND_CALLS_PER_ARRIVAL = 22.36 * 1.05
MAX_CALLS_PER_REMOTE_OP = 125.15 * 1.05
#: how far calls per sample may drift from 58 nodes to 580
MAX_NODE_COUNT_DRIFT = 0.05


def call_count(profile: cProfile.Profile) -> int:
    """The profile's calls, summed over every ``getstats()`` entry."""
    return sum(entry.callcount for entry in profile.getstats())


def scenario(copies: int, hours: float):
    """The bundled deployment run for ``hours``, its sites copied
    ``copies`` times; each copy's sites and nodes get ids of their own."""
    from geowsn.scenario import make_reference_deployment, parse_scenario

    doc = make_reference_deployment()
    doc["sites"] = [
        dict(site, site_id=f"{site['site_id']}-{copy}" if copy else site["site_id"],
             nodes=[dict(node, uid=node["uid"] + 10_000 * copy)
                    for node in site["nodes"]])
        for copy in range(copies) for site in doc["sites"]]
    doc["duration_s"] = hours * 3600
    return parse_scenario(doc)


def profile_run(with_backend: bool, copies: int = 1, hours: float = HOURS) -> dict:
    """Calls made by one run, with the nodes, samples and arrivals it saw."""
    from geowsn.backend import Backend
    from geowsn.scenario import build_simulator, node_directory

    config = scenario(copies, hours)
    sim = build_simulator(config)
    if with_backend:
        Backend(directory=node_directory(config)).attach_transport(sim)
    profile = cProfile.Profile()
    log = profile.runcall(sim.run)
    return {
        "nodes": log.summary["nodes"],
        "calls": call_count(profile),
        "samples": log.summary["records_produced"],
        "arrivals": sum(kind == "UplinkArrival" for _, kind, _, _ in log.rows),
    }


def remote_sessions(sim, backend, rounds: int) -> tuple[int, int]:
    """``rounds`` of a remote session with each node of ``sim`` in turn,
    through ``backend``: a read of the data file (which takes a sample),
    a measure-now write to config byte 3, a read back of the config
    file and a write that restores the byte.  Returns the ops made and
    how many timed out; an op that times out counts as an op."""
    from geowsn.alp import NODE_CONFIG_FILE, SENSOR_DATA_FILE
    from geowsn.backend import RequestTimeoutError
    from geowsn.node import ACTION_MEASURE_AND_TRANSMIT, ACTION_NONE

    read, write = backend.remote_read_file, backend.remote_write_file
    session = ((read, SENSOR_DATA_FILE, 0, 10),
               (write, NODE_CONFIG_FILE, 3, bytes([ACTION_MEASURE_AND_TRANSMIT])),
               (read, NODE_CONFIG_FILE, 0, 12),
               (write, NODE_CONFIG_FILE, 3, bytes([ACTION_NONE])))
    timeouts = 0
    for _ in range(rounds):
        for uid in sim.node_uids:
            for op, *args in session:
                try:
                    op(uid, *args, timeout_s=REMOTE_TIMEOUT_S)
                except RequestTimeoutError:
                    timeouts += 1
    return rounds * len(sim.node_uids) * len(session), timeouts


def profile_remote(rounds: int) -> dict:
    """Calls made by ``remote_sessions`` on the bundled deployment."""
    from geowsn.backend import Backend
    from geowsn.scenario import build_simulator, node_directory

    config = scenario(1, REMOTE_HOURS)
    sim = build_simulator(config)
    backend = Backend(directory=node_directory(config))
    backend.attach_transport(sim)
    sim.start()
    profile = cProfile.Profile()
    ops, timeouts = profile.runcall(remote_sessions, sim, backend, rounds)
    return {"ops": ops, "timeouts": timeouts, "calls": call_count(profile)}


def fresh_profiles(*runs: list[str]) -> list[dict]:
    """``profile_run`` once per argument list (``--backend``,
    ``--copies N``, ``--hours H``), or ``profile_remote`` for
    ``--remote ROUNDS``, each in a fresh process (a warm one makes fewer
    calls); the runs go side by side."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, __file__, "--one"]
    children = [subprocess.Popen(argv + args, env=env, stdout=subprocess.PIPE,
                                 text=True) for args in runs]
    results = []
    for child in children:
        out, _ = child.communicate(timeout=60)
        assert child.returncode == 0
        results.append(json.loads(out))
    return results


def frame_cost() -> dict:
    alone, joined, small, large, remote = fresh_profiles(
        [], ["--backend"],
        ["--hours", str(COPIES_HOURS)],
        ["--hours", str(COPIES_HOURS), "--copies", str(COPIES)],
        ["--remote", str(REMOTE_ROUNDS)])
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
        "node_count_axis": {
            "hours": COPIES_HOURS,
            "nodes": [small["nodes"], large["nodes"]],
            "samples": [small["samples"], large["samples"]],
            "sim_calls_per_sample": [small["calls"] / small["samples"],
                                     large["calls"] / large["samples"]],
        },
        "remote_ops": dict(remote, hours=REMOTE_HOURS,
                           calls_per_op=remote["calls"] / remote["ops"]),
    }


@pytest.fixture(scope="module")
def cost() -> dict:
    return frame_cost()


def test_calls_per_sample_and_per_arrival_stay_under_their_ceilings(cost):
    assert cost["samples"] > 2000 and cost["arrivals"] > 2000
    assert cost["sim_calls_per_sample"] <= MAX_SIM_CALLS_PER_SAMPLE, cost
    assert cost["backend_calls_per_arrival"] <= MAX_BACKEND_CALLS_PER_ARRIVAL, cost


def test_calls_per_sample_do_not_grow_with_node_count(cost):
    axis = cost["node_count_axis"]
    assert axis["nodes"] == [58, 58 * COPIES], cost
    assert axis["samples"][1] > 3000, cost
    small, large = axis["sim_calls_per_sample"]
    assert abs(large / small - 1) <= MAX_NODE_COUNT_DRIFT, cost


def test_calls_per_remote_op_stay_under_their_ceiling(cost):
    remote = cost["remote_ops"]
    # most ops are answered, so the count is of the path that answers
    assert remote["ops"] > 1000 and remote["timeouts"] < remote["ops"] / 10
    assert remote["calls_per_op"] <= MAX_CALLS_PER_REMOTE_OP, cost


if __name__ == "__main__":
    if "--one" in sys.argv:
        args = sys.argv[2:]

        def option(name, default):
            return float(args[args.index(name) + 1]) if name in args else default

        if "--remote" in args:
            print(json.dumps(profile_remote(int(option("--remote", 0)))))
        else:
            print(json.dumps(profile_run("--backend" in args,
                                         int(option("--copies", 1)),
                                         option("--hours", HOURS))))
    else:
        print(json.dumps(frame_cost(), indent=1))
