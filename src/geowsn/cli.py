"""Command-line entry points: feasibility, calibration, simulation,
protocol inspection.

Every subcommand is deterministic given its inputs.  Exit code 0 means
the operation fully succeeded; malformed input exits 2 with a message
naming the offending element (line, uid or byte offset).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import energy, feasibility
from .alp import AlpAction, AlpCommand, DecodeError, Opcode, decode_command, encode_command
from .backend import Backend, CsvSink
from .scenario import (
    InvalidScenarioError,
    default_scenario_path,
    load_scenario,
    node_directory,
    build_simulator,
)

OPCODE_DISPLAY = {
    Opcode.READ_FILE_DATA: "ReadFileData",
    Opcode.WRITE_FILE_DATA: "WriteFileData",
    Opcode.RETURN_FILE_DATA: "ReturnFileData",
    Opcode.STATUS: "Status",
}

ACTION_GRAMMAR = """\
action specs for proto-encode (repeatable, executed in order):
  read:FILE:OFFSET:LENGTH        request a byte range of a file
  write:FILE:OFFSET:HEX          write payload bytes at an offset
  return:FILE:OFFSET:HEX         returned file data
  status:CODE[:FILE[:OFFSET[:LENGTH]]]   status byte echoing a request
FILE and CODE accept decimal or 0x-prefixed hex; HEX is the payload in
hex digits (empty allowed for a zero-length write).

opcodes: ReadFileData=0x01 WriteFileData=0x04 ReturnFileData=0x20 Status=0x7F
wire layout per action: opcode u8, file u8, offset u32 LE, length u32 LE,
then the payload (writes and returns carry `length` bytes, status 1 byte).
"""


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise ValueError(f"{what}: not a number: {text!r}") from None


def _parse_action_spec(spec: str) -> AlpAction:
    parts = spec.split(":")
    verb = parts[0].lower()
    try:
        if verb == "read" and len(parts) == 4:
            return AlpAction.read(
                _parse_int(parts[1], "file"),
                _parse_int(parts[2], "offset"),
                _parse_int(parts[3], "length"),
            )
        if verb in ("write", "return") and len(parts) == 4:
            payload = bytes.fromhex(parts[3])
            build = AlpAction.write if verb == "write" else AlpAction.return_data
            return build(
                _parse_int(parts[1], "file"),
                _parse_int(parts[2], "offset"),
                payload,
            )
        if verb == "status" and 2 <= len(parts) <= 5:
            fields = [_parse_int(p, "status field") for p in parts[1:]]
            fields += [0] * (4 - len(fields))
            code, file_id, offset, length = fields
            return AlpAction.status(code, file_id, offset, length)
    except ValueError as exc:
        raise ValueError(f"action {spec!r}: {exc}") from None
    raise ValueError(f"action {spec!r}: does not match the grammar"
                     f" (see --describe)")


def _describe_action(action: AlpAction) -> str:
    name = OPCODE_DISPLAY[action.opcode]
    line = f"{name} file=0x{action.file_id:02X} offset={action.offset}"
    if action.opcode is Opcode.STATUS:
        return (f"{name} code=0x{action.payload[0]:02X}"
                f" file=0x{action.file_id:02X} offset={action.offset}"
                f" len={action.length}")
    line += f" len={action.length}"
    if action.opcode in (Opcode.WRITE_FILE_DATA, Opcode.RETURN_FILE_DATA):
        line += f" payload={action.payload.hex().upper()}"
    return line


def _cmd_proto_encode(args) -> int:
    if args.describe:
        print(ACTION_GRAMMAR)
        return 0
    if not args.actions:
        return _fail("no actions given (see --describe)")
    try:
        actions = tuple(_parse_action_spec(spec) for spec in args.actions)
        data = encode_command(AlpCommand(actions))
    except ValueError as exc:
        return _fail(str(exc))
    print(data.hex().upper())
    return 0


def _cmd_proto_decode(args) -> int:
    if args.describe:
        print(ACTION_GRAMMAR)
        return 0
    if args.hex is None:
        return _fail("--hex is required (or --describe)")
    compact = "".join(args.hex.split())
    try:
        data = bytes.fromhex(compact)
    except ValueError:
        return _fail("input is not valid hex")
    try:
        command = decode_command(data)
    except DecodeError as exc:
        return _fail(str(exc))
    for action in command:
        print(_describe_action(action))
    return 0


def _cmd_feas_analyze(args) -> int:
    try:
        series = feasibility.load_temperature_trace(args.trace)
    except FileNotFoundError:
        return _fail(f"trace file not found: {args.trace}")
    except feasibility.TraceFormatError as exc:
        return _fail(f"{args.trace}: {exc}")
    try:
        stack, teg = (energy.load_params(args.params) if args.params
                      else (energy.default_stack(), energy.default_teg()))
    except FileNotFoundError:
        return _fail(f"params file not found: {args.params}")
    except ValueError as exc:
        return _fail(f"{args.params}: {exc}")
    node_power_w = args.node_power_mw / 1e3 if args.node_power_mw is not None else None
    try:
        report = feasibility.analyze_trace(
            series, stack, teg,
            clamp_positive=args.clamp_positive,
            node_power_w=node_power_w,
            converter_efficiency=args.efficiency,
        )
    except ValueError as exc:
        return _fail(str(exc))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    feasibility.write_report_csv(report, out)
    for note in report.notes:
        print(f"note: {note}")
    for analysis in report.transects:
        row = analysis.yearly
        print(
            f"transect {row.transect}: yearly mean dT {row.mean_dt_c:.4g} °C,"
            f" dT_TEG {row.mean_dt_teg_k:.4g} K,"
            f" power {row.mean_power_w * 1e3:.4g} mW"
        )
    if report.verdicts is not None:
        for transect, (harvested, needed, ok) in report.verdicts.items():
            verdict = "feasible" if ok else "not feasible"
            print(f"transect {transect}: harvest {verdict}")
    print(f"report written to {out}")
    return 0


def _cmd_feas_calibrate(args) -> int:
    try:
        stack, teg = (energy.load_params(args.params) if args.params
                      else (energy.default_stack(), energy.default_teg()))
    except FileNotFoundError:
        return _fail(f"params file not found: {args.params}")
    except ValueError as exc:
        return _fail(f"{args.params}: {exc}")
    alpha = args.alpha if args.alpha is not None else teg.seebeck_v_per_k
    try:
        r_elec = energy.calibrate_electrical_resistance(
            args.mean_dt_c, args.mean_power_mw / 1e3, stack, alpha,
        )
    except energy.DegenerateInputError as exc:
        return _fail(str(exc))
    dt_teg = args.mean_dt_c * stack.teg_fraction
    print(f"dT_TEG at operating point: {dt_teg:.4f} K")
    print(f"calibrated r_elec_ohm: {r_elec:.4f}")
    print("caveat: calibration against a mean gradient carries the convexity"
          " bias; mean(P(dT)) >= P(mean(dT)) for fluctuating gradients")
    return 0


def _cmd_sim_run(args) -> int:
    scenario_path = Path(args.scenario) if args.scenario else default_scenario_path()
    try:
        config = load_scenario(scenario_path)
    except FileNotFoundError:
        return _fail(f"scenario file not found: {scenario_path}")
    except InvalidScenarioError as exc:
        return _fail(str(exc))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    try:
        sim = build_simulator(config)
    except InvalidScenarioError as exc:
        return _fail(str(exc))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    sink = CsvSink(out_dir / "readings.csv")
    backend = Backend(directory=node_directory(config), sink=sink)
    backend.attach_transport(sim)
    log = sim.run()
    sink.close()
    log.write(out_dir / "runlog.txt")

    summary = log.summary
    attempted = summary["uplinks_attempted"]
    delivered = summary["uplinks_delivered"]
    ratio = delivered / attempted if attempted else 1.0
    print(f"scenario: {scenario_path}")
    print(f"seed: {config.seed}  duration_s: {config.duration_s:g}"
          f"  nodes: {config.node_count}")
    print(f"log hash: {log.stable_hash()}")
    print(f"uplinks delivered/attempted: {delivered}/{attempted}"
          f" (ratio {ratio:.4f})")
    print(f"records: produced {summary['records_produced']},"
          f" delivered {summary['records_delivered']},"
          f" buffered {summary['records_buffered']},"
          f" overwritten {summary['records_overwritten']}")
    print(f"sink rows: {len(sink.records)}")
    print(f"backend: quarantined {len(backend.quarantine)},"
          f" late answers {backend.late_answers}")
    print("node  site   charge_C   mean_uA   battery_years")
    worst_years = None
    for uid in sim.node_uids:
        runtime = sim.runtime(uid)
        charge = sum(runtime.charges_c.values())
        mean_a = sim.mean_current_a(uid)
        if mean_a > 0:
            years = energy.battery_lifetime_hours(
                energy.BATTERY_CAPACITY_AH, mean_a) / energy.HOURS_PER_YEAR
        else:
            years = math.inf  # a node that draws nothing never drains its cell
        if worst_years is None or years < worst_years:
            worst_years = years
        print(f"{uid:<5} {runtime.site.site_id:<6} {charge:>9.4f}"
              f" {mean_a * 1e6:>9.2f} {years:>14.1f}")
    print(f"projected battery lifetime (worst node): {worst_years:.1f} years")
    print(f"outputs: {out_dir / 'runlog.txt'}, {out_dir / 'readings.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geowsn",
        description="Soil-sensing network toolkit: harvest feasibility,"
                    " network simulation and protocol inspection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    feas = sub.add_parser(
        "feas-analyze",
        help="evaluate harvester output over a recorded temperature trace",
    )
    feas.add_argument("--trace", required=True,
                      help="CSV: timestamp_unix,transect,t_soil_c,t_air_c")
    feas.add_argument("--params", default=None,
                      help="harvester parameter JSON (default: reference build)")
    feas.add_argument("--out", required=True, help="report CSV to write")
    feas.add_argument("--clamp-positive", action="store_true",
                      help="zero the power wherever the gradient is negative")
    feas.add_argument("--node-power-mw", type=float, default=None,
                      help="node mean draw for per-transect verdicts")
    feas.add_argument("--efficiency", type=float, default=1.0,
                      help="converter efficiency applied to harvested power")
    feas.set_defaults(func=_cmd_feas_analyze)

    cal = sub.add_parser(
        "feas-calibrate",
        help="back out TEG internal resistance from one operating point",
    )
    cal.add_argument("--mean-dt-c", type=float, required=True,
                     help="measured mean soil-air gradient, degC")
    cal.add_argument("--mean-power-mw", type=float, required=True,
                     help="measured mean harvested power, mW")
    cal.add_argument("--params", default=None,
                     help="harvester parameter JSON for the thermal stack")
    cal.add_argument("--alpha", type=float, default=None,
                     help="Seebeck coefficient override, V/K")
    cal.set_defaults(func=_cmd_feas_calibrate)

    run = sub.add_parser("sim-run", help="run a network scenario")
    run.add_argument("--scenario", default=None,
                     help="scenario JSON (default: bundled deployment)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=_cmd_sim_run)

    enc = sub.add_parser("proto-encode", help="encode action specs to hex")
    enc.add_argument("actions", nargs="*", metavar="ACTION",
                     help="e.g. write:0x41:3:AA (see --describe)")
    enc.add_argument("--describe", action="store_true",
                     help="print the action grammar and wire layout")
    enc.set_defaults(func=_cmd_proto_encode)

    dec = sub.add_parser("proto-decode", help="decode hex to an action listing")
    dec.add_argument("--hex", default=None, help="command bytes as hex")
    dec.add_argument("--describe", action="store_true",
                     help="print the action grammar and wire layout")
    dec.set_defaults(func=_cmd_proto_decode)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
