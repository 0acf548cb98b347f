"""Every name the benchmark replaces still exists where it looks it up.

The traced benchmark in ``perfbench/`` wraps functions of the program
by module and attribute name, and its workloads capture a few more.  A
change that deletes or moves one of them fails here, in the test suite,
instead of only in a traced benchmark run.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import bench_workloads as workloads  # noqa: E402
from bench_trace import Tracer, patched  # noqa: E402

from geowsn import cli, feasibility  # noqa: E402


def test_benchmark_can_wrap_every_name_it_names():
    # patched() looks each name up in its owner's own namespace
    with patched(workloads.trace_targets(Tracer()) + [
        workloads._capture(cli, "build_simulator", []),
        workloads._capture(cli, "Backend", []),
        workloads._capture(feasibility, "analyze_trace", []),
    ]):
        pass
