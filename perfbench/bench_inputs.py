"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives
the same bytes.  The program under test sees only the files and scripts
these functions produce.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from geowsn.scenario import make_reference_deployment

# The workload is defined by these literals, not by the program's own
# constants, so that a change to the program cannot change the inputs.
SECONDS_PER_DAY = 86400

#: (file id, offset, length): the whole 12-byte node config file, and the
#: first 10 bytes of the sensor data file (reading it triggers a sample)
CONFIG_READ = (0x41, 0, 12)
DATA_READ = (0x40, 0, 10)
#: config byte 3 is the sensor action: 0xAA measures now, 0x00 does nothing
CONFIG_WRITE = (0x41, 3, 1)
MEASURE_NOW = 0xAA
ACTION_NONE = 0x00

#: 2021-01-01T00:00:00Z, the first sample of every generated trace
TRACE_START_UNIX = 1609459200
TRACE_CADENCE_S = 600
TRACE_HEADER = "timestamp_unix,transect,t_soil_c,t_air_c"


def scenario_doc(seed: int, days: float) -> dict:
    """The bundled 58-node deployment with the given seed and duration."""
    doc = make_reference_deployment()
    doc["seed"] = seed
    doc["duration_s"] = days * SECONDS_PER_DAY
    return doc


def write_scenario(path: Path, seed: int, days: float) -> Path:
    path.write_text(json.dumps(scenario_doc(seed, days), indent=1))
    return path


def scenario_uids(doc: dict) -> list[int]:
    return [node["uid"] for site in doc["sites"] for node in site["nodes"]]


@dataclass(frozen=True)
class RemoteOp:
    kind: str
    uid: int
    file_id: int
    offset: int
    length: int
    value: int | None = None


def session(uid: int) -> list[RemoteOp]:
    """One remote-access session with a node: read its latest reading
    from the data file, then, in the order of acceptance criterion 7
    (``tests/test_acceptance.py``), a measure-now write to config byte 3
    and a read back of the whole config file.  The closing write restores
    the action to 0x00, because the node acts only when byte 3 changes."""
    return [RemoteOp("data_read", uid, *DATA_READ),
            RemoteOp("config_write", uid, *CONFIG_WRITE, MEASURE_NOW),
            RemoteOp("config_read", uid, *CONFIG_READ),
            RemoteOp("config_write", uid, *CONFIG_WRITE, ACTION_NONE)]


def op_script(seed: int, uids: list[int], count: int) -> list[RemoteOp]:
    """A closed-loop client script of ``count`` blocking ops: sessions
    with every node in turn, the node order shuffled afresh each round."""
    rng = random.Random(seed)
    script: list[RemoteOp] = []
    while len(script) < count:
        order = list(uids)
        rng.shuffle(order)
        for uid in order:
            script += session(uid)
    return script[:count]


@dataclass(frozen=True)
class Trace:
    """A generated temperature trace as per-transect arrays."""

    timestamps: np.ndarray
    t_soil_c: dict[str, np.ndarray]
    t_air_c: dict[str, np.ndarray]

    @property
    def rows(self) -> int:
        return len(self.timestamps) * len(self.t_soil_c)


def temperature_trace(seed: int, transects: int, days: int) -> Trace:
    """Soil and air temperatures at 10-minute cadence, rounded to
    0.01 degC.  Air swings with the season and the day; soil follows the
    season damped and lagged, offset by a per-transect warming, so the
    soil-air gradient crosses zero daily on the unwarmed transects."""
    rng = np.random.default_rng(seed)
    steps = days * SECONDS_PER_DAY // TRACE_CADENCE_S
    t = np.arange(steps, dtype=np.int64) * TRACE_CADENCE_S
    year = 2 * np.pi * t / (365.25 * SECONDS_PER_DAY)
    day = 2 * np.pi * t / SECONDS_PER_DAY
    soil, air = {}, {}
    for i in range(transects):
        name = f"T{i + 1}"
        warming = 2.0 * i
        phase = rng.uniform(0.0, 0.5)
        air_c = (4.0 - 9.0 * np.cos(year - phase) - 5.0 * np.cos(day - 0.6)
                 + rng.normal(0.0, 1.2, steps))
        soil_c = (5.0 + warming - 5.0 * np.cos(year - phase - 0.4)
                  - 0.4 * np.cos(day - 1.5) + rng.normal(0.0, 0.1, steps))
        soil[name] = np.round(soil_c, 2)
        air[name] = np.round(air_c, 2)
    return Trace(TRACE_START_UNIX + t, soil, air)


def write_trace_csv(path: Path, trace: Trace) -> Path:
    """Write the trace in logger order (all transects per timestamp).
    Floats are written with ``repr``, so parsing gives back exactly the
    generated values.  Rows are formatted a chunk at a time, so writing
    holds no more than a chunk of Python numbers."""
    names = list(trace.t_soil_c)
    chunk = 4096
    with open(path, "w") as handle:
        handle.write(TRACE_HEADER + "\n")
        for lo in range(0, len(trace.timestamps), chunk):
            part = slice(lo, lo + chunk)
            timestamps = trace.timestamps[part].tolist()
            soil = [trace.t_soil_c[n][part].tolist() for n in names]
            air = [trace.t_air_c[n][part].tolist() for n in names]
            handle.write("".join(
                f"{stamp},{name},{soil[j][k]!r},{air[j][k]!r}\n"
                for k, stamp in enumerate(timestamps)
                for j, name in enumerate(names)
            ))
    return path


#: the reference harvester, with the paste and the cold side given by
#: geometry so that loading the file runs the thermal calculators
HARVESTER_PARAMS = {
    "r_hs": 0.65,
    "r_teg_th": 1.58,
    "r_tp": {"interface": {"areal_resistance_k_in2_per_w": 0.005,
                           "area_m2": 0.0016}},
    "r_cplt": {"plate": {"thickness_m": 0.0008, "width_m": 0.04,
                         "height_m": 0.04}},
    "r_crod": {"cylinder": {"diameter_m": 0.02, "length_m": 0.10}},
    "alpha_v_per_k": 0.040,
    "r_elec_ohm": 3.69,
}


def write_params(path: Path) -> Path:
    path.write_text(json.dumps(HARVESTER_PARAMS, indent=1))
    return path
