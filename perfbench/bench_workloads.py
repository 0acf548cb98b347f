"""The three benchmark workloads.

Each workload generates its inputs from the seed in ``__init__``,
makes its set-up calls once per ``set_up`` (``setup_batch`` of them
are timed together) and runs its job once per ``run_once``.  A run
returns a :class:`Rep`: host times, the output's hash, the per-layer
counts read from the program's own results, and every failed output
check as a message.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from geowsn import alp, backend, cli, energy, feasibility, netsim, node, scenario

import bench_inputs as inputs
from bench_trace import Tracer, patched

DEPLOY_DAYS = 7
REMOTE_DAYS = 1
REMOTE_OPS = 30_000
REMOTE_TIMEOUT_S = 10.0
TRACE_TRANSECTS = 6
TRACE_DAYS = 730
NODE_POWER_MW = "0.4"
POWER_REL_TOL = 1e-12


@dataclass
class Rep:
    """One run of a workload's job."""

    job_s: float
    output_hash: str
    #: remote-ops only: host ns and simulated ms of each answered op
    request_ns: array = field(default_factory=lambda: array("q"))
    sim_latency_ms: array = field(default_factory=lambda: array("q"))
    attempted: int = 1
    failed: int = 0
    timeouts: int = 0
    counts: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def trace_targets(tracer: Tracer) -> list[tuple]:
    """Every public function the traced run wraps, where it is looked
    up.  Names imported into another module are wrapped there too."""
    span = tracer.span
    pairs = [
        ("alp.encode", [(node, "encode_command"), (backend, "encode_command")]),
        ("alp.decode", [(node, "decode_command"), (backend, "decode_command")]),
        ("alp.file_write", [(alp.FileStore, "write")]),
        ("alp.file_read", [(alp.FileStore, "read")]),
        ("node.sample", [(node.SensorNode, "on_sample_timer")]),
        ("node.uplink_result", [(node.SensorNode, "on_uplink_result")]),
        ("node.downlink", [(node.SensorNode, "on_downlink")]),
        ("netsim.run", [(netsim.Simulator, "run")]),
        ("netsim.run_until", [(netsim.Simulator, "run_until")]),
        ("netsim.hash", [(netsim.RunLog, "stable_hash")]),
        ("netsim.log_write", [(netsim.RunLog, "write")]),
        ("scenario.load", [(scenario, "load_scenario"), (cli, "load_scenario")]),
        ("scenario.build", [(scenario, "build_simulator"),
                            (cli, "build_simulator")]),
        ("backend.publish", [(backend.InProcessBus, "publish")]),
        ("backend.ingest", [(backend.Backend, "ingest")]),
        ("backend.remote_op", [(backend.Backend, "remote_read_file"),
                               (backend.Backend, "remote_write_file")]),
        ("backend.sink_append", [(backend.CsvSink, "append")]),
        ("energy.delta_t_teg", [(feasibility, "delta_t_teg")]),
        ("energy.teg_power", [(feasibility, "teg_power")]),
        ("feasibility.load", [(feasibility, "load_temperature_trace")]),
        ("feasibility.analyze", [(feasibility, "analyze_trace")]),
        ("feasibility.write", [(feasibility, "write_report_csv")]),
        ("cli.main", [(cli, "main")]),
    ]
    targets = [(owner, attr, span(name, getattr(owner, attr)))
               for name, places in pairs for owner, attr in places]
    step = netsim.Simulator.step
    targets.append((netsim.Simulator, "step",
                    tracer.counter("netsim.events", step)))
    return targets


def _capture(owner, attr: str, into: list):
    """A replacement for ``owner.attr`` that also keeps every result."""
    original = getattr(owner, attr)

    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        into.append(result)
        return result

    return (owner, attr, capturing)


@contextlib.contextmanager
def _traced(tracer: Tracer | None):
    if tracer is None:
        yield
        return
    with patched(trace_targets(tracer)):
        tracer.active = True
        try:
            yield
        finally:
            tracer.active = False


def _run_cli(argv: list[str]) -> tuple[int, str, float]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        started = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - started
    return code, out.getvalue(), elapsed


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _log_counts(log, rep: Rep) -> None:
    kinds: dict[str, int] = {}
    retries = 0
    for _, kind, _, detail in log.rows:
        kinds[kind] = kinds.get(kind, 0) + 1
        if kind == "ListenWindow" and detail.startswith("retry"):
            retries += 1
    s = log.summary
    rep.counts.update({
        "netsim.log_rows": len(log.rows),
        "netsim.log_rows.WatchdogCheck": kinds.get("WatchdogCheck", 0),
        "netsim.downlink_retries": retries,
        "netsim.uplink_delivery_ratio":
            s["uplinks_delivered"] / s["uplinks_attempted"],
        "netsim.uplinks_in_flight_at_end":
            s["uplinks_delivered"] - kinds.get("UplinkArrival", 0),
        "_arrivals": kinds.get("UplinkArrival", 0),
    })


def _backend_counts(bk, rep: Rep) -> None:
    rep.counts.update({
        "backend.sink_rows": len(bk.sink.records),
        "backend.quarantined": len(bk.quarantine),
        "backend.quarantine_ratio": len(bk.quarantine) / max(bk.ingested, 1),
    })


def _set_up(scenario_path: Path):
    """The calls ``sim-run`` makes before ``Simulator.run``."""
    config = scenario.load_scenario(scenario_path)
    sim = scenario.build_simulator(config)
    bk = backend.Backend(directory=scenario.node_directory(config))
    bk.attach_transport(sim)
    sim.start()
    return sim, bk


class DeployWeek:
    """``geowsn sim-run`` of the bundled deployment for seven days."""

    name = "deploy-7d"
    setup_batch = 10

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.scenario_path = inputs.write_scenario(
            work / "scenario.json", seed, DEPLOY_DAYS)
        self.work_units = len(inputs.scenario_uids(
            inputs.scenario_doc(seed, DEPLOY_DAYS))) * DEPLOY_DAYS
        self._runs = 0

    def set_up(self) -> None:
        _set_up(self.scenario_path)

    def run_once(self, tracer: Tracer | None = None) -> Rep:
        self._runs += 1
        out = self.work / f"run{self._runs}"
        sims: list = []
        backends: list = []
        captures = [_capture(cli, "build_simulator", sims),
                    _capture(cli, "Backend", backends)]
        with patched(captures), _traced(tracer):
            code, stdout, elapsed = _run_cli(
                ["sim-run", "--scenario", str(self.scenario_path),
                 "--out", str(out)])
        rep = Rep(elapsed, "")
        if code != 0:
            rep.failed = 1
            rep.problems.append(f"sim-run exited {code}")
            return rep
        printed = [line.split(": ", 1)[1] for line in stdout.splitlines()
                   if line.startswith("log hash: ")]
        rep.output_hash = printed[0] if printed else ""
        if rep.output_hash != _file_sha256(out / "runlog.txt"):
            rep.problems.append("printed log hash differs from runlog.txt")
        sim, bk = sims[0], backends[0]
        log = sim.run_log()
        _log_counts(log, rep)
        _backend_counts(bk, rep)
        rep.problems += conservation_problems(log, sim)
        if bk.quarantine:
            rep.problems.append(f"{len(bk.quarantine)} frames quarantined")
        if bk.ingested != rep.counts["_arrivals"]:
            rep.problems.append(
                f"backend ingested {bk.ingested} of"
                f" {rep.counts['_arrivals']} arrivals")
        if rep.problems:
            rep.failed = 1
        shutil.rmtree(out)
        return rep

    @staticmethod
    def describe(reps: list[Rep], metrics: dict) -> list[str]:
        return [f"sim_node_days_per_s = {metrics['work_per_s']:.6g} 1/s",
                f"log rows = {reps[0].counts.get('netsim.log_rows')}"]


def conservation_problems(log, sim) -> list[str]:
    """The criterion-8 identities of a finished run."""
    s = log.summary
    problems = []
    if s["records_produced"] != (s["records_delivered"] + s["records_buffered"]
                                 + s["records_overwritten"]):
        problems.append("records are not conserved")
    if s["uplinks_attempted"] != s["uplinks_delivered"] + s["uplinks_dropped"]:
        problems.append("uplinks are not conserved")
    if s["downlinks_queued"] != (s["downlinks_delivered"]
                                 + s["downlinks_expired"]
                                 + s["downlinks_pending"]):
        problems.append("downlinks are not conserved")
    ledger: dict[int, float] = {}
    for _, kind, uid, detail in log.rows:
        if kind == netsim.ENERGY_ROW_KIND:
            fields = dict(part.split("=", 1) for part in detail.split())
            ledger[uid] = ledger.get(uid, 0.0) + float(fields["time_ms"])
    if set(ledger) != set(sim.node_uids) or not all(
            math.isclose(total, s["duration_ms"], rel_tol=1e-9)
            for total in ledger.values()):
        problems.append("energy ledger times do not sum to the run duration")
    return problems


class RemoteOps:
    """One client issuing blocking remote file ops, no think time."""

    name = "remote-ops"
    setup_batch = 10

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.scenario_path = inputs.write_scenario(
            work / "scenario.json", seed, REMOTE_DAYS)
        uids = inputs.scenario_uids(inputs.scenario_doc(seed, REMOTE_DAYS))
        self.script = inputs.op_script(seed, uids, REMOTE_OPS)
        self.work_units = len(self.script)

    def set_up(self) -> None:
        _set_up(self.scenario_path)

    def run_once(self, tracer: Tracer | None = None) -> Rep:
        with _traced(tracer):
            sim, bk = _set_up(self.scenario_path)
            rep = Rep(0.0, "", attempted=len(self.script))
            started = perf_counter()
            self._client(sim, bk, rep)
            rep.job_s = perf_counter() - started
        if sim.now_ms >= sim.duration_ms:
            rep.problems.append("the op script outran the scenario")
        log = sim.run()
        rep.output_hash = log.stable_hash()
        rep.problems += conservation_problems(log, sim)
        _log_counts(log, rep)
        _backend_counts(bk, rep)
        rep.counts["backend.timeouts"] = rep.timeouts
        return rep

    def _client(self, sim, bk, rep: Rep) -> None:
        read, write = bk.remote_read_file, bk.remote_write_file
        host, simulated = rep.request_ns, rep.sim_latency_ms
        for op in self.script:
            asked_ms = sim.now_ms
            try:
                t0 = perf_counter_ns()
                if op.value is None:
                    answer = read(op.uid, op.file_id, op.offset, op.length,
                                  timeout_s=REMOTE_TIMEOUT_S)
                else:
                    answer = write(op.uid, op.file_id, op.offset,
                                   bytes((op.value,)),
                                   timeout_s=REMOTE_TIMEOUT_S)
                t1 = perf_counter_ns()
            except backend.RequestTimeoutError:
                rep.timeouts += 1
                continue
            except Exception as exc:  # any other error is a failed op
                rep.failed += 1
                rep.problems.append(f"op {op} raised {exc!r}")
                continue
            problem = self._wrong_answer(sim, op, answer)
            if problem:
                rep.failed += 1
                rep.problems.append(problem)
                continue
            host.append(t1 - t0)
            simulated.append(sim.now_ms - asked_ms)

    @staticmethod
    def describe(reps: list[Rep], metrics: dict) -> list[str]:
        host = [ns for r in reps for ns in r.request_ns]
        attempted = sum(r.attempted for r in reps)
        failed = sum(r.timeouts + r.failed for r in reps)
        simulated = reps[0].sim_latency_ms
        return [
            f"remote_ops_per_s = {metrics['work_per_s']:.6g} 1/s",
            f"remote_op_p50_ms = {percentile(host, 50) / 1e6:.6g} ms,"
            f" remote_op_p999_ms = {percentile(host, 99.9) / 1e6:.6g} ms"
            f" over {len(host)} successful ops",
            f"remote_op_fail_ratio = {failed / attempted:.6g}"
            f" ({failed} of {attempted})",
            f"remote_op_sim_p50_s = {percentile(simulated, 50) / 1e3:.6g} sim_s,"
            f" remote_op_sim_p999_s"
            f" = {percentile(simulated, 99.9) / 1e3:.6g} sim_s"
            f" over {len(simulated)} ops of one run",
            f"backend.quarantined = {reps[0].counts['backend.quarantined']}",
        ]

    @staticmethod
    def _wrong_answer(sim, op, answer) -> str | None:
        if op.kind == "config_read":
            held = sim.runtime(op.uid).node.files.raw(op.file_id)
            if answer != held:
                return (f"config read of {op.uid} returned {answer!r},"
                        f" node holds {held!r}")
        elif op.kind == "config_write":
            if answer != 0:
                return f"config write to {op.uid} returned status {answer}"
        elif answer is None or len(answer) != op.length:
            return f"data read of {op.uid} returned {answer!r}"
        return None


class FeasibilityTwoYears:
    """``geowsn feas-analyze`` over two years of six transects."""

    name = "feas-2y"
    setup_batch = 500

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        # the generated arrays are dropped when this returns, so the
        # measured runs hold only the program's own copy of the trace
        trace = inputs.temperature_trace(seed, TRACE_TRANSECTS, TRACE_DAYS)
        self.trace_path = inputs.write_trace_csv(work / "trace.csv", trace)
        self.params_path = inputs.write_params(work / "params.json")
        self.work_units = trace.rows
        stack, teg = energy.load_params(self.params_path)
        scale = (teg.seebeck_v_per_k * stack.teg_fraction) ** 2 \
            / (4.0 * teg.electrical_resistance_ohm)
        self.expected_power_w = {
            name: float(np.mean(
                scale * (trace.t_soil_c[name] - trace.t_air_c[name]) ** 2))
            for name in trace.t_soil_c
        }
        self._runs = 0

    def set_up(self) -> None:
        """The harvester-parameter load."""
        energy.load_params(self.params_path)

    def run_once(self, tracer: Tracer | None = None) -> Rep:
        self._runs += 1
        report_path = self.work / f"report{self._runs}.csv"
        reports: list = []
        with patched([_capture(feasibility, "analyze_trace", reports)]), \
                _traced(tracer):
            code, stdout, elapsed = _run_cli(
                ["feas-analyze", "--trace", str(self.trace_path),
                 "--params", str(self.params_path),
                 "--out", str(report_path),
                 "--node-power-mw", NODE_POWER_MW])
        rep = Rep(elapsed, "")
        if code != 0:
            rep.failed = 1
            rep.problems.append(f"feas-analyze exited {code}")
            return rep
        rep.output_hash = _file_sha256(report_path)
        report = reports[0]
        rep.counts["feasibility.days"] = sum(len(a.daily)
                                             for a in report.transects)
        measured = {a.transect: a.yearly.mean_power_w for a in report.transects}
        if set(measured) != set(self.expected_power_w):
            rep.problems.append(f"report covers transects {sorted(measured)}")
        for name, want in self.expected_power_w.items():
            got = measured.get(name, math.nan)
            if not math.isclose(got, want, rel_tol=POWER_REL_TOL):
                rep.problems.append(
                    f"transect {name}: yearly mean power {got!r} W,"
                    f" direct evaluation gives {want!r} W")
        caveat = feasibility.CONVEXITY_CAVEAT
        header = report_path.read_text().splitlines()[:len(report.notes)]
        if (caveat not in report.notes or f"note: {caveat}" not in stdout
                or f"# {caveat}" not in header):
            rep.problems.append("the convexity caveat is missing")
        if rep.problems:
            rep.failed = 1
        report_path.unlink()
        return rep

    @staticmethod
    def describe(reps: list[Rep], metrics: dict) -> list[str]:
        return [f"feas_samples_per_s = {metrics['work_per_s']:.6g} 1/s"]


WORKLOADS = {w.name: w for w in (DeployWeek, RemoteOps, FeasibilityTwoYears)}
