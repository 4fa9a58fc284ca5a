"""Seeded workloads: generate a scenario, run it once, check its outputs.

Each workload has a fixed shape: the nodes and their RATs, the number of
UEs and the number of data rounds. The seed changes only payload bytes and
addresses, so record and packet counts never depend on it.

Everything runs through the public API, and functions are looked up on
their modules at call time, so the span recorder in `spans.py` sees them.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from open5gsim import netsim, scenario, trace, wire
from open5gsim.controller import QosFlowSpec, RrcState, SessionSpec
from open5gsim.messages import NGAP_INITIAL_CONTEXT_SETUP_RESPONSE, RRC_SETUP_REQUEST
from open5gsim.netsim import NodeSpec, Settings, Stimulus, Topology, UeSpec
from open5gsim.node import Rat

# Records per UE attach: the Fig. 6 call flow minus the node's bootstrap batch.
RECORDS_PER_ATTACH = 19
# Records per injected packet: sender -> node, node -> addressee.
RECORDS_PER_PACKET = 2
# An attach takes 17 ticks; data starts this many ticks after the last power-on.
DATA_START_GAP = 32
# Post-run table queries per node, at evenly spaced trace steps.
TABLE_QUERIES = 64

# Simple IMIX payload lengths (bytes) and their weights.
IMIX_LENGTHS = (64, 576, 1400)
IMIX_WEIGHTS = (7, 4, 1)

# The Table 1 session shape: 2 DRBs and 3 downlink QoS flows, the first two
# on DRB 1 and the third on DRB 2.
DRBS = (1, 2)
FLOW_DRBS = (1, 1, 2)

# Flow 3-tuples are drawn without replacement from 100.64.0.0/10 x {tcp, udp}
# x ports 1..65535, so no two UEs share a downlink classifier entry.
_FLOW_IPS = 1 << 22
_FLOW_PROTOS = (6, 17)
_FLOW_PORTS = 65535

_NODE_PREFIX = {Rat.NR: "gnb", Rat.LTE: "enb", Rat.WLAN: "wt"}
MULTI_RAT = (Rat.NR, Rat.NR, Rat.LTE, Rat.WLAN)


class CheckFailed(Exception):
    """A workload's outputs are wrong."""


@dataclass(frozen=True)
class Shape:
    rats: tuple[Rat, ...]  # one node per entry; UEs are spread round-robin
    ues: int
    rounds: int  # data rounds of one uplink and one downlink packet per UE


SHAPES = {
    # Drives every control-plane layer, with tables growing to 258 entries
    # per node: controller, messages, wire encode and iter_messages on config
    # batches, switch writes with their uniqueness and duplicate scans, and
    # UPF session registration. The data path carries only signaling.
    "attach_storm": Shape(MULTI_RAT, ues=128, rounds=0),
    # Per-packet cost at 18-entry tables: node packet paths, the GTP-U codec,
    # trace digests and heap dispatch. A classifier or control-plane change
    # should leave it unchanged; overhead added to any packet path shows here.
    "dataplane_small": Shape(MULTI_RAT, ues=8, rounds=200),
    # The same packet path at 514 entries (admission cap raised to 64), where
    # the costs that grow with UEs per node dominate: FlowTable.match, the
    # PortRegistry lookups, the UpfStub.downlink sort and _resolve_ue.
    "dataplane_dense": Shape((Rat.NR,), ues=64, rounds=8),
}


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: scenario.Scenario
    text: str  # canonical scenario text; the timed set-up parses this
    expected_records: int
    packets: int

    @property
    def attempted(self) -> int:
        """Operations per run: UE attaches plus injected packets."""
        return len(self.scenario.topology.ues) + self.packets


def _ipv4(value: int) -> str:
    return ".".join(str((value >> s) & 0xFF) for s in (24, 16, 8, 0))


def _flow_tuple(index: int) -> tuple[str, int, int]:
    ip, rest = divmod(index, len(_FLOW_PROTOS) * _FLOW_PORTS)
    proto, port = divmod(rest, _FLOW_PORTS)
    return _ipv4((100 << 24) | (64 << 16) | ip), _FLOW_PROTOS[proto], port + 1


def _imix_lengths(rng: random.Random, count: int) -> list[int]:
    """`count` payload lengths in fixed IMIX proportions, in seeded order, so
    the bytes a workload moves do not depend on the seed."""
    deck = [length for length, weight in zip(IMIX_LENGTHS, IMIX_WEIGHTS) for _ in range(weight)]
    lengths = (deck * -(-count // len(deck)))[:count]
    rng.shuffle(lengths)
    return lengths


def generate(name: str, seed: int) -> Workload:
    """Build workload `name` for `seed` and check its text round-trip once."""
    shape = SHAPES[name]
    rng = random.Random(f"{name}:{seed}")

    seen: Counter[Rat] = Counter()
    nodes = []
    for rat, ip in zip(shape.rats, rng.sample(range(1, 1 << 16), len(shape.rats))):
        seen[rat] += 1
        nodes.append(NodeSpec(f"{_NODE_PREFIX[rat]}{seen[rat]}", rat, _ipv4((10 << 24) | ip)))

    flat = rng.sample(range(_FLOW_IPS * len(_FLOW_PROTOS) * _FLOW_PORTS), 3 * shape.ues)
    tuples = [_flow_tuple(i) for i in flat]
    ues = []
    for i in range(shape.ues):
        flows = tuple(
            QosFlowSpec(flow_id, wire.ip_bytes(ip), proto, port, drb)
            for flow_id, ((ip, proto, port), drb) in enumerate(
                zip(tuples[3 * i : 3 * i + 3], FLOW_DRBS), start=1
            )
        )
        session = SessionSpec(1, DRBS, flows)
        ues.append(UeSpec(f"ue{i + 1}", nodes[i % len(nodes)].name, (session,)))

    packets = 2 * shape.rounds * shape.ues
    lengths = iter(_imix_lengths(rng, packets))
    script = [Stimulus(i, "ue_power_on", (ue.name,)) for i, ue in enumerate(ues)]
    start = shape.ues + DATA_START_GAP
    for r in range(shape.rounds):
        for i, ue in enumerate(ues):
            ip, proto, port = tuples[3 * i + rng.randrange(3)]
            up = (ue.name, rng.choice(DRBS), rng.randbytes(next(lengths)))
            down = (ue.name, ip, proto, port, rng.randbytes(next(lengths)))
            script.append(Stimulus(start + r, "send_uplink_data", up))
            script.append(Stimulus(start + r, "inject_downlink_data", down))

    records = len(nodes) + RECORDS_PER_ATTACH * shape.ues + RECORDS_PER_PACKET * packets
    settings = Settings(
        seed=seed,
        admission_cap=-(-shape.ues // len(nodes)),
        max_events=2 * (records + len(script)),
    )
    scn = scenario.Scenario(Topology(tuple(nodes), tuple(ues), seed=seed), tuple(script), settings)

    text = scenario.serialize_scenario(scn)
    parsed = scenario.parse_scenario(text)
    if parsed != scn or scenario.serialize_scenario(parsed) != text:
        raise CheckFailed(f"{name}: serialize_scenario does not round-trip")
    return Workload(name, scn, text, records, packets)


@dataclass
class Rep:
    """One pass of a workload: set-up, run, post-run inspection."""

    setup_s: list[float]
    run_s: float
    inspect_s: list[float]
    sim: netsim.Simulator
    records: int
    digest: str  # sha256 of the trace file and every table query result


def run_once(workload: Workload, tmpdir: str, setups: int = 1, inspections: int = 1) -> Rep:
    """Run `workload` once.

    Set-up (parse plus Simulator construction) is repeated `setups` times and
    the post-run inspection `inspections` times; each repetition is timed.
    """
    setup_s = []
    for _ in range(setups):
        sim = None
        gc.collect()
        t0 = perf_counter()
        scn = scenario.parse_scenario(workload.text)
        sim = netsim.Simulator(scn.topology, list(scn.script), scn.settings)
        setup_s.append(perf_counter() - t0)

    gc.collect()
    t0 = perf_counter()
    result = sim.run()
    run_s = perf_counter() - t0

    path = os.path.join(tmpdir, f"{workload.name}.trace")
    n = len(result.records)
    steps = sorted({1 + (n - 1) * i // (TABLE_QUERIES - 1) for i in range(TABLE_QUERIES)})
    inspect_s = []
    for _ in range(inspections):
        gc.collect()
        t0 = perf_counter()
        trace.write_trace(path, result)
        same = trace.read_trace(path).signature() == result.signature()
        tables = [sim.table_at_step(node, step) for node in sim.nodes for step in steps]
        inspect_s.append(perf_counter() - t0)
        if not same:
            raise CheckFailed(f"{workload.name}: trace signature changed through write/read")

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    for rows in tables:
        digest.update("\n".join(rows).encode() + b"\0")
    return Rep(setup_s, run_s, inspect_s, sim, n, digest.hexdigest())


def check(workload: Workload, rep: Rep) -> int:
    """Check one pass; returns the failed operations, raises on broken invariants."""
    sim, name = rep.sim, workload.name
    if rep.records != workload.expected_records:
        raise CheckFailed(f"{name}: {rep.records} records, expected {workload.expected_records}")
    for node_id, node in sim.nodes.items():
        if sim.table_at_step(node_id, rep.records) != netsim.render_flow_table(node):
            raise CheckFailed(f"{name}: table_at_step({node_id}, last) differs from the final table")

    failed = 0
    for ue in sim.ues.values():
        ctx = sim.controller.ue_contexts.get(ue.ue_tmp_id)
        if ue.state != "CONNECTED" or ctx is None or ctx.rrc_state != RrcState.CONFIGURED:
            failed += 1

    teid = {
        ue_tmp_id: teid
        for (ue_tmp_id, _session), (_node, teid) in sim.upf.sessions.items()
    }
    want_up: Counter = Counter()
    want_down: dict[str, Counter] = {ue: Counter() for ue in sim.ues}
    drb_of = {
        (ue.name, wire.ip_str(f.ip_dst), f.ip_proto, f.l4_dst): f.drb
        for ue in workload.scenario.topology.ues
        for f in ue.sessions[0].flows
    }
    for stim in workload.scenario.script:
        if stim.kind == "send_uplink_data":
            ue, _bearer, payload = stim.args
            want_up[(teid.get(sim.ues[ue].ue_tmp_id), payload)] += 1
        elif stim.kind == "inject_downlink_data":
            ue, ip, proto, port, payload = stim.args
            packet = (wire.ip_bytes(ip), proto, port, payload)
            want_down[ue][(drb_of[(ue, ip, proto, port)], packet)] += 1

    got_down = {
        ue.name: Counter((bearer, wire.unpack_ip_packet(pkt)) for bearer, pkt in ue.received)
        for ue in sim.ues.values()
    }
    delivered = sum((want_up & Counter(sim.upf.received)).values())
    delivered += sum(sum((want_down[ue] & got_down[ue]).values()) for ue in sim.ues)
    failed += workload.packets - delivered

    # Conservation; dropped packets are already counted as failed above.
    injected = sim.uplink_injected + sim.downlink_injected
    dropped = sum(node.drop_count for node in sim.nodes.values()) + sim.upf.bad_frames
    arrived = len(sim.upf.received) + sum(len(ue.received) for ue in sim.ues.values())
    if injected != workload.packets or injected != arrived + dropped:
        raise CheckFailed(
            f"{name}: injected {injected} of {workload.packets}, "
            f"{arrived} delivered + {dropped} dropped"
        )
    return failed


def attach_ticks(sim: netsim.Simulator) -> list[int]:
    """Per-UE simulated ticks from RrcSetupRequest to the AMF's receipt of the
    InitialContextSetupResponse (one tick after it is sent).

    Deliveries happen in send order, so the n-th response record sent to the
    AMF is the n-th response in the AMF stub's log.
    """
    start = {
        r.src: r.time for r in sim.records if r.kind == RRC_SETUP_REQUEST and r.src in sim.ues
    }
    sent = [
        r.time for r in sim.records if r.kind == NGAP_INITIAL_CONTEXT_SETUP_RESPONSE and r.dst == "amf"
    ]
    ticks = []
    for time, msg in zip(sent, sim.amf.context_responses):
        ue = sim.ue_by_tmp_id[msg.fields["ue_tmp_id"]]
        ticks.append(time + 1 - start[ue.name])
    return ticks
