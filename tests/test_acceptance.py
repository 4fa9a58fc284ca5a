"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS line on
success (run with `pytest -s` to see them); a failed assertion marks the
criterion FAILED in the -v listing.
"""

import random
import time

from helpers import oracle_match, random_context, random_entries, random_message, sig_frame
from open5gsim import wire
from open5gsim.controller import Controller
from open5gsim.errors import WireDecodeError
from open5gsim.messages import (
    NGAP_INITIAL_CONTEXT_SETUP_REQUEST,
    RRC_SETUP_COMPLETE,
    RRC_SETUP_REQUEST,
    NgapMessage,
    RrcMessage,
)
from open5gsim.netsim import Simulator, Stimulus
from open5gsim.scenario import load_scenario
from open5gsim.switch import FlowTable
from open5gsim.trace import read_trace
from open5gsim.wire import FlowMatch, FlowMod, GtpTunnel, PortMod, RadioBearer, SigTunnel

INITIAL_ACCESS = "scenarios/initial_access.scn"
MULTI_RAT = "scenarios/multi_rat.scn"
GOLDEN_TRACE = "goldens/fig6_initial_access.trace"
GOLDEN_TABLE = "goldens/table1.txt"


def run_bundled(path: str) -> Simulator:
    scn = load_scenario(path)
    sim = Simulator(scn.topology, list(scn.script), scn.settings)
    sim.run()
    return sim


def report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_initial_access_call_flow():
    """The bundled scenario reproduces the 20-step initial-access exchange."""
    start = time.perf_counter()
    sim = run_bundled(INITIAL_ACCESS)
    elapsed = time.perf_counter() - start
    golden = read_trace(GOLDEN_TRACE)
    got = [(r.src, r.dst, r.channel, r.kind) for r in sim.records]
    assert got == golden.signature()
    assert len(sim.records) == 20
    assert elapsed < 1.0
    report(1, f"20-step call flow matches golden trace in {elapsed * 1000:.0f} ms")


def test_criterion_2_controller_configures_nodes_silently():
    """All configuration flows controller -> node: exactly three command
    batches, and the node sends nothing back on the control channel."""
    sim = run_bundled(INITIAL_ACCESS)
    batches = [r for r in sim.records if r.channel == "OPEN5G" and r.src == "src"]
    responses = [r for r in sim.records if r.channel == "OPEN5G" and r.src != "src"]
    assert len(batches) == 3
    assert [b.kind for b in batches] == [
        "CreatePortsSrb0",
        "CreatePortsSrb1",
        "CreatePortsSrb2Drbs",
    ]
    assert responses == []
    report(2, "3 config batches from the controller, 0 node responses")


def test_criterion_3_flow_table_contents_and_semantics():
    """After the session-config batch the node's table realizes the reference
    seven-row table, every lookup returns the listed action, and the matcher
    agrees with a brute-force oracle on randomized tables."""
    sim = run_bundled(INITIAL_ACCESS)
    rows = sim.table_at_step("gnb1", 11)
    # dedicated-session rows only: common-SRB0 and SRB2 signaling plumbing
    # (bearers 0 and 4) is controller bookkeeping around the reference table
    data_rows = [r for r in rows if "bearer=0" not in r and "bearer=4" not in r]
    with open(GOLDEN_TABLE) as fh:
        golden_rows = [line.rstrip("\n") for line in fh if line.strip()]
    assert data_rows == golden_rows
    assert len(golden_rows) == 7

    node = sim.nodes["gnb1"]
    crnti = sim.ues["ue1"].crnti
    ip1, ip2 = wire.ip_bytes("10.0.1.1"), wire.ip_bytes("10.0.1.2")

    def action_spec(ctx):
        out_port = node.table.match(ctx)
        assert out_port is not None
        return node.registry.get(out_port)

    for bearer in (1, 2):
        spec = action_spec(FlowMatch(crnti=crnti, bearer_id=bearer))
        assert isinstance(spec, GtpTunnel) and spec.teid == 1
    for ip_dst, l4, drb in ((ip1, 43, 1), (ip1, 23, 1), (ip2, 34, 2)):
        spec = action_spec(FlowMatch(ip_dst=ip_dst, ip_proto=6, l4_dst=l4))
        assert isinstance(spec, RadioBearer) and (spec.crnti, spec.bearer_id) == (crnti, drb)
    spec = action_spec(FlowMatch(crnti=crnti, bearer_id=3))
    assert isinstance(spec, SigTunnel) and spec.tunnel_id == 2
    srb1_sig = node.registry.sig_port(2)
    assert srb1_sig is not None
    spec = action_spec(FlowMatch(in_port=srb1_sig))
    assert isinstance(spec, RadioBearer) and (spec.crnti, spec.bearer_id) == (crnti, 3)

    rng = random.Random(2024)
    for _ in range(1000):
        table = FlowTable()
        table.entries = random_entries(rng, rng.randrange(1, 40))
        for _ in range(5):
            ctx = random_context(rng)
            assert table.match(ctx) == oracle_match(table.entries, ctx)
    report(3, "reference table reproduced; lookups and oracle agree")


def test_criterion_4_user_plane_forwarding_and_conservation():
    """Uplink DRB data reaches the UPF on the session tunnel, downlink QoS
    flows reach the right bearer, and no packet is silently lost."""
    scn = load_scenario(INITIAL_ACCESS)
    script = list(scn.script) + [
        Stimulus(30, "send_uplink_data", ("ue1", 1, b"uplink-payload")),
        Stimulus(31, "inject_downlink_data", ("ue1", "10.0.1.2", 6, 34, b"downlink-payload")),
    ]
    sim = Simulator(scn.topology, script, scn.settings)
    sim.run()
    assert sim.upf.received == [(1, b"uplink-payload")]
    (bearer_id, packet), = sim.ues["ue1"].received
    assert bearer_id == 2
    assert wire.unpack_ip_packet(packet)[3] == b"downlink-payload"

    rng = random.Random(99)
    script = list(scn.script)
    for i in range(100):
        tick = 30 + i
        if rng.random() < 0.5:
            bearer = rng.choice([1, 2, 9])
            script.append(Stimulus(tick, "send_uplink_data", ("ue1", bearer, b"u%d" % i)))
        else:
            dst, l4 = rng.choice(
                [("10.0.1.1", 43), ("10.0.1.1", 23), ("10.0.1.2", 34), ("10.0.9.9", 80)]
            )
            script.append(Stimulus(tick, "inject_downlink_data", ("ue1", dst, 6, l4, b"d%d" % i)))
    sim = Simulator(scn.topology, script, scn.settings)
    sim.run()
    injected = sim.uplink_injected + sim.downlink_injected
    delivered = len(sim.upf.received) + len(sim.ues["ue1"].received)
    dropped = sim.nodes["gnb1"].drop_count + sim.upf.bad_frames
    assert injected == 100
    assert injected == delivered + dropped
    report(4, f"user plane forwards correctly; {delivered} delivered + {dropped} dropped = 100")


def test_criterion_5_wire_format_robustness():
    """>= 10,000 encode/decode round-trips and 100,000 fuzz inputs without
    a crash or an unclassified exception."""
    rng = random.Random(31337)
    for i in range(10000):
        msg = random_message(rng, force_type=i % 4)
        assert wire.decode_message(wire.encode_message(msg)) == msg

    decoded = 0
    for i in range(100000):
        if i % 2 == 0:
            data = rng.randbytes(rng.randrange(64))
        else:
            data = bytearray(wire.encode_message(random_message(rng)))
            for _ in range(rng.randrange(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            data = bytes(data)
        try:
            wire.decode_message(data)
            decoded += 1
        except WireDecodeError:
            pass
    report(5, f"10000 round-trips ok; 100000 fuzz inputs handled ({decoded} decoded)")


def test_criterion_6_uniform_command_grammar_across_rats():
    """NR, LTE, and WLAN nodes are configured through structurally identical
    command sequences; only layer TLV contents and identifiers differ."""

    def skeleton(msg):
        if isinstance(msg, PortMod):
            spec = msg.port_spec
            if isinstance(spec, RadioBearer):
                detail = ("RadioBearer", spec.bearer_id, spec.bearer_kind.name)
            else:
                detail = (type(spec).__name__,)
            return ("PORT_MOD", msg.command.name) + detail
        assert isinstance(msg, FlowMod)
        populated = tuple(
            name
            for name in ("in_port", "crnti", "bearer_id", "ip_dst", "ip_proto", "l4_dst")
            if getattr(msg.match, name) is not None
        )
        return ("FLOW_MOD", msg.command.name, msg.priority, populated)

    scn = load_scenario(MULTI_RAT)
    per_node: dict[str, list] = {}
    c = Controller(scn.settings.admission_cap)
    for node in scn.topology.nodes:
        c.register_node(node.name, node.rat, node.ngu_ip)
    for i, ue in enumerate(scn.topology.ues):
        batches = []
        batches += [e for e in c.bootstrap_node(ue.attach)]
        node_state = c.nodes[ue.attach]
        request = RrcMessage(RRC_SETUP_REQUEST, {"ue_tmp_id": i + 1})
        out = c.on_rrc_uplink(ue.attach, sig_frame(node_state.srb0_tunnel_id, request, i + 1))
        batches += [e for e in out if hasattr(e, "messages")]
        ue_ctx = c.ue_contexts[i + 1]
        c.on_rrc_uplink(ue.attach, sig_frame(ue_ctx.srb_tunnel, RrcMessage(RRC_SETUP_COMPLETE, {"nas": "00"})))
        from open5gsim.controller import session_spec_to_doc

        ics = NgapMessage(
            NGAP_INITIAL_CONTEXT_SETUP_REQUEST,
            {
                "ue_tmp_id": i + 1,
                "security_info": "00",
                "sessions": [session_spec_to_doc(s) for s in ue.sessions],
            },
        )
        batches += [e for e in c.on_ngap(ics) if hasattr(e, "messages")]
        per_node[ue.attach] = [
            [skeleton(m) for m in batch.messages] for batch in batches
        ]

    rats = {n.name: n.rat for n in scn.topology.nodes}
    reference = per_node["gnb1"]
    for name, skeletons in per_node.items():
        assert skeletons == reference, f"{rats[name].value} grammar diverges"
    report(6, "identical command grammar for NR, LTE, and WLAN")


def test_criterion_7_deterministic_replay():
    """Repeated runs of both bundled scenarios produce byte-identical traces."""

    def run_trace_text(path: str) -> str:
        scn = load_scenario(path)
        return Simulator(scn.topology, list(scn.script), scn.settings).run().to_text()

    for path in (INITIAL_ACCESS, MULTI_RAT):
        texts = {run_trace_text(path) for _ in range(3)}
        assert len(texts) == 1
    report(7, "byte-identical traces across repeated runs of both scenarios")
