"""Command-line entry point.

    open5g-sim run <scenario> -o <trace>
    open5g-sim verify <trace> --golden <file> [--channels srb0,srb1,ngap,open5g]
    open5g-sim table <scenario> --node <name> --at <step>

Exit codes: 0 ok, 1 verification mismatch, 2 parse error, 3 simulation error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ControllerError, Open5GError, SimulationError, quoted
from .netsim import Simulator
from .scenario import ParseError, load_scenario
from .trace import CHANNELS, EventTrace, TraceParseError, read_trace, write_trace

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE_ERROR = 2
EXIT_SIM_ERROR = 3

# the simulator, controller and Open5G protocol error families
RUN_ERRORS = (SimulationError, ControllerError, Open5GError)


def cmd_run(scenario_path: str, out_path: str) -> int:
    scenario = load_scenario(scenario_path)
    trace = Simulator(scenario.topology, list(scenario.script), scenario.settings).run()
    try:
        write_trace(out_path, trace)
    except OSError as exc:
        print(f"cannot write trace: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    print(f"wrote {len(trace)} trace records to {out_path}")
    return EXIT_OK


def cmd_verify(trace_path: str, golden_path: str, channels: set[str] | None = None) -> int:
    unknown = sorted(set(channels or ()) - set(CHANNELS))
    if unknown:
        raise TraceParseError(f"unknown channel {quoted(unknown[0])}; channels are {', '.join(CHANNELS)}")
    trace = read_trace(trace_path)
    golden = read_trace(golden_path)
    got = trace.signature(channels)
    want = golden.signature(channels)
    if got == want:
        print(f"traces match ({len(got)} records)")
        return EXIT_OK
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            print(f"divergence at step {_step_no(trace, channels, i)}: got {g}, want {w}")
            return EXIT_MISMATCH
    i = min(len(got), len(want))  # the first record one side lacks: the golden's when the trace runs short
    step = _step_no(trace if i < len(got) else golden, channels, i)
    print(f"divergence at step {step}: got {len(got)} records, want {len(want)}")
    return EXIT_MISMATCH


def _step_no(trace: EventTrace, channels: set[str] | None, i: int) -> int:
    """The step_no of the record at index `i` of the channel-filtered trace."""
    return [step for step, key in zip(trace.steps, trace.keys) if channels is None or key[2] in channels][i]


def cmd_table_dump(scenario_path: str, node: str, at_step: int) -> int:
    scenario = load_scenario(scenario_path)
    if node not in {n.name for n in scenario.topology.nodes}:
        print(f"unknown node {quoted(node)}", file=sys.stderr)
        return EXIT_SIM_ERROR
    sim = Simulator(scenario.topology, list(scenario.script), scenario.settings)
    sim.run()
    for row in sim.table_at_step(node, at_step):
        print(row)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="open5g-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its trace")
    p_run.add_argument("scenario")
    p_run.add_argument("-o", "--out", required=True)

    p_verify = sub.add_parser("verify", help="compare a trace against a golden")
    p_verify.add_argument("trace")
    p_verify.add_argument("--golden", required=True)
    p_verify.add_argument("--channels", default=None, help="comma-separated channel filter")

    p_table = sub.add_parser("table", help="dump a node's flow table at a trace step")
    p_table.add_argument("scenario")
    p_table.add_argument("--node", required=True)
    p_table.add_argument("--at", type=int, required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the one place an error becomes its exit code and message."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.scenario, args.out)
        if args.command == "verify":
            channels = None
            if args.channels:
                channels = {c.strip().upper() for c in args.channels.split(",")}
            return cmd_verify(args.trace, args.golden, channels)
        return cmd_table_dump(args.scenario, args.node, args.at)
    except (ParseError, TraceParseError) as exc:  # before RUN_ERRORS: both are SimulationErrors
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except RUN_ERRORS as exc:
        print(f"simulation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SIM_ERROR


if __name__ == "__main__":
    sys.exit(main())
