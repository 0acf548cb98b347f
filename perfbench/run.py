"""geowsn benchmark: one workload per invocation, result as JSON.

    python3 perfbench/run.py --workload deploy-7d --seed 4021 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/``
of the checkout this file sits in.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` runs the job
once untraced and then traced, and reports the per-layer metrics.  The
last line of standard output is the JSON result; the lines before it
give the workload's figures under the names its users know.  Exit code
0 means every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"

#: end-to-end metrics (tracing off): name -> unit
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}

#: spans reported as calls and self time
CALL_SPANS = ("alp.encode", "alp.decode", "alp.file_write", "alp.file_read",
              "node.sample", "node.uplink_result", "node.downlink",
              "netsim.run_until", "backend.publish", "backend.ingest")
#: spans reported as self time only
SELF_SPANS = ("netsim.run", "backend.remote_op", "backend.sink_append",
              "feasibility.analyze", "cli.main")
#: spans reported as total time
TOTAL_SPANS = ("netsim.hash", "netsim.log_write", "scenario.load",
               "scenario.build", "energy.delta_t_teg", "energy.teg_power",
               "feasibility.load", "feasibility.write")

#: per-layer metrics (traced run): name -> unit
PER_LAYER = {
    **{f"{span}.{part}": unit for span in CALL_SPANS
       for part, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{span}.self_s": "s" for span in SELF_SPANS},
    **{f"{span}_s": "s" for span in TOTAL_SPANS},
    "netsim.events": "count",
    "netsim.log_rows": "count",
    "netsim.log_rows.WatchdogCheck": "count",
    "netsim.downlink_retries": "count",
    "netsim.uplink_delivery_ratio": "ratio",
    "netsim.uplinks_in_flight_at_end": "count",
    "netsim.remote_op_sim_p50_s": "sim_s",
    "netsim.remote_op_sim_p999_s": "sim_s",
    "backend.sink_rows": "count",
    "backend.quarantined": "count",
    "backend.quarantine_ratio": "ratio",
    "backend.timeouts": "count",
    "feasibility.days": "count",
    "trace.overhead_s": "s",
}

#: set-up samples taken between two runs of the job
SETUP_SAMPLES = 5


def import_program():
    """Import geowsn from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import geowsn
    except ImportError as exc:
        sys.exit(f"error: cannot import geowsn from {SOURCE}: {exc}")
    if SOURCE.resolve() not in Path(geowsn.__file__).resolve().parents:
        sys.exit(f"error: geowsn was imported from {geowsn.__file__},"
                 f" not from {SOURCE}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_sample(workload) -> float:
    """Host time of one set-up, as the mean over a batch of
    ``workload.setup_batch`` set-ups timed together from a collected
    heap."""
    gc.collect()
    started = perf_counter()
    for _ in range(workload.setup_batch):
        workload.set_up()
    return (perf_counter() - started) / workload.setup_batch


def measure(workload, seconds: float) -> tuple[list, dict]:
    """Untraced runs for ``seconds``: the median set-up sample, peak
    memory, and the work done per second over all runs of the job.

    Set-up samples are spread between runs of the job, so that a slow
    spell of the host lands in few of them."""
    setups, reps = [], []
    deadline = perf_counter() + seconds
    while not reps or perf_counter() < deadline:
        setups += [setup_sample(workload) for _ in range(SETUP_SAMPLES)]
        reps.append(workload.run_once())
        gc.collect()
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "work_per_s": workload.work_units * len(reps)
        / sum(r.job_s for r in reps),
    }
    print(f"workload {workload.name} seed {workload.seed}: {len(reps)} runs"
          f" of {', '.join(f'{r.job_s:.3f}' for r in reps)} s")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {END_TO_END[name]}")
    for line in workload.describe(reps, metrics):
        print(f"  {line}")
    print(f"  output hash = {reps[0].output_hash}")
    return reps, metrics


def measure_traced(workload, seconds: float) -> tuple[list, dict]:
    """One untraced run, then traced runs until ``seconds`` have passed:
    per-layer metrics, times as medians over the traced runs."""
    from bench_trace import Tracer
    from bench_workloads import percentile
    started = perf_counter()
    plain = workload.run_once()
    reps, stats = [], []
    while not reps or perf_counter() - started < seconds:
        tracer = Tracer()
        reps.append(workload.run_once(tracer))
        stats.append(tracer.stats())
        if len(reps) == 1:
            events = tracer.counts["netsim.events"]
        gc.collect()
    metrics = dict.fromkeys(PER_LAYER, 0)
    for span, first in stats[0].items():
        if span in CALL_SPANS:
            metrics[f"{span}.calls"] = first.calls
        if span in TOTAL_SPANS:
            metrics[f"{span}_s"] = statistics.median(
                run[span].total_s for run in stats)
        else:
            metrics[f"{span}.self_s"] = statistics.median(
                run[span].self_s for run in stats)
    metrics["netsim.events"] = events
    metrics.update({k: v for k, v in reps[0].counts.items() if k in PER_LAYER})
    simulated = reps[0].sim_latency_ms
    if simulated:
        metrics["netsim.remote_op_sim_p50_s"] = percentile(simulated, 50) / 1e3
        metrics["netsim.remote_op_sim_p999_s"] = percentile(simulated, 99.9) / 1e3
    metrics["trace.overhead_s"] = (
        statistics.median(r.job_s for r in reps) - plain.job_s)
    (STATE_DIR / f"trace-{workload.name}-{workload.seed}.json").write_text(
        json.dumps(tracer.by_parent(), indent=1))
    print(f"workload {workload.name} seed {workload.seed}: 1 untraced and"
          f" {len(reps)} traced runs; output hash {plain.output_hash}")
    return [plain] + reps, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=4021)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from bench_workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    STATE_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=STATE_DIR))
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        print(f"input generation peak RSS = {peak_rss_mb():.1f} MB (the"
              f" floor under peak_rss_mb)")
        if args.trace:
            reps, metrics = measure_traced(workload, args.seconds)
            units = PER_LAYER
        else:
            reps, metrics = measure(workload, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for r in reps for p in r.problems]
    hashes = {r.output_hash for r in reps}
    if len(hashes) != 1:
        # with --trace 1 this also holds traced runs to the untraced hash
        problems.append(f"runs of one seed gave {len(hashes)} output hashes")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
