"""Toolkit for geothermally powered soil-sensing networks: file-based
node protocol, discrete-event network simulation, and thermoelectric
harvest feasibility analysis."""

from .alp import (
    NODE_CONFIG_FILE,
    SENSOR_DATA_FILE,
    AlpAction,
    FileHeader,
    FileStore,
    Opcode,
    decode_command,
    encode_command,
)
from .backend import Backend, CsvSink, Envelope, InProcessBus
from .energy import (
    TegParams,
    ThermalStack,
    battery_lifetime_hours,
    calibrate_electrical_resistance,
    default_stack,
    default_teg,
    delta_t_teg,
    r_cylinder,
    r_interface,
    r_plate,
    teg_power,
)
from .feasibility import analyze_trace, load_temperature_trace, write_report_csv
from .netsim import LinkModel, PowerProfile, RunLog, Simulator
from .node import NodeConfig, SensorKind, SensorNode, SensorReading
from .scenario import (
    ScenarioConfig,
    build_simulator,
    default_scenario,
    load_scenario,
    parse_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AlpAction",
    "Backend",
    "CsvSink",
    "Envelope",
    "FileHeader",
    "FileStore",
    "InProcessBus",
    "LinkModel",
    "NODE_CONFIG_FILE",
    "NodeConfig",
    "Opcode",
    "PowerProfile",
    "RunLog",
    "SENSOR_DATA_FILE",
    "ScenarioConfig",
    "SensorKind",
    "SensorNode",
    "SensorReading",
    "Simulator",
    "TegParams",
    "ThermalStack",
    "analyze_trace",
    "battery_lifetime_hours",
    "build_simulator",
    "calibrate_electrical_resistance",
    "decode_command",
    "default_scenario",
    "default_stack",
    "default_teg",
    "delta_t_teg",
    "encode_command",
    "load_scenario",
    "load_temperature_trace",
    "parse_scenario",
    "r_cylinder",
    "r_interface",
    "r_plate",
    "teg_power",
    "write_report_csv",
]
