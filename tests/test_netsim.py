import dataclasses
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import EveryDeliveryTables, generated_scenario, reference_render_flow_table

from open5gsim import wire
from open5gsim.controller import QosFlowSpec, RrcState, SessionSpec
from open5gsim.errors import (
    BudgetExceededError,
    NotIdleError,
    ProtocolViolationError,
    ScriptError,
    UnknownUeError,
)
from open5gsim.messages import (
    NGAP_INITIAL_CONTEXT_SETUP_REQUEST,
    NGAP_INITIAL_UE_MESSAGE,
    RRC_RECONFIGURATION,
    RRC_SECURITY_MODE_COMMAND,
    RRC_SETUP,
    RRC_SETUP_COMPLETE,
    NgapMessage,
    RrcMessage,
    rrc_to_bytes,
)
from open5gsim.netsim import (
    AmfStub,
    NodeSpec,
    Settings,
    Simulator,
    Stimulus,
    Topology,
    UeSim,
    UeSpec,
    UpfStub,
    _Delivery,
    render_flow_table,
)
from open5gsim.node import DataPlaneNode, Rat
from open5gsim.switch import FlowEntry
from open5gsim.scenario import load_scenario
from open5gsim.trace import read_trace
from open5gsim.wire import (
    BearerKind,
    FlowMatch,
    FlowMod,
    FlowModCommand,
    GtpTunnel,
    PortMod,
    PortModCommand,
    RadioBearer,
    SigTunnel,
)

SESSION = SessionSpec(
    session_id=1,
    drbs=(1, 2),
    flows=(
        QosFlowSpec(1, wire.ip_bytes("10.0.1.1"), 6, 43, drb=1),
        QosFlowSpec(2, wire.ip_bytes("10.0.1.1"), 6, 23, drb=1),
        QosFlowSpec(3, wire.ip_bytes("10.0.1.2"), 6, 34, drb=2),
    ),
)

TOPOLOGY = Topology(
    nodes=(NodeSpec("gnb1", Rat.NR, "10.0.0.1"),),
    ues=(UeSpec("ue1", "gnb1", (SESSION,)),),
)

POWER_ON = [Stimulus(0, "ue_power_on", ("ue1",))]


def make_sim(script=None, topology=TOPOLOGY, settings=None) -> Simulator:
    return Simulator(topology, script if script is not None else list(POWER_ON), settings)


# -- the initial-access call flow -------------------------------------------------


def test_initial_access_matches_golden_trace():
    trace = make_sim().run()
    golden = read_trace("goldens/fig6_initial_access.trace")
    assert trace.signature() == golden.signature()
    assert len(trace.records) == 20


def test_initial_access_step_times_are_monotone():
    trace = make_sim().run()
    times = [r.time for r in trace.records]
    assert times == sorted(times)
    assert [r.step_no for r in trace.records] == list(range(1, 21))


def test_repeated_runs_are_byte_identical():
    t1 = make_sim().run()
    t2 = make_sim().run()
    assert t1.to_text() == t2.to_text()


def test_empty_script_is_bootstrap_only():
    trace = make_sim(script=[]).run()
    assert trace.signature() == [("src", "gnb1", "OPEN5G", "CreatePortsSrb0")]


def test_ue_reaches_connected_with_sessions():
    sim = make_sim()
    sim.run()
    ue = sim.ues["ue1"]
    assert ue.state == "CONNECTED"
    assert ue.crnti == 0x003D
    assert [s["session_id"] for s in ue.sessions] == [1]
    assert len(sim.amf.context_responses) == 1


def test_power_on_twice_raises_not_idle():
    script = POWER_ON + [Stimulus(5, "ue_power_on", ("ue1",))]
    with pytest.raises(NotIdleError):
        make_sim(script=script).run()


def test_unknown_ue_in_script_rejected_at_build():
    with pytest.raises(ScriptError):
        make_sim(script=[Stimulus(0, "ue_power_on", ("nobody",))])


def test_ue_attached_to_unknown_node_rejected():
    bad = Topology(nodes=TOPOLOGY.nodes, ues=(UeSpec("ue1", "ghost"),))
    with pytest.raises(ScriptError) as exc:
        Simulator(bad, [])
    assert str(exc.value) == "ue 'ue1' attaches to unknown node 'ghost'"


@pytest.mark.parametrize(
    "topology, stim, message",
    [
        (TOPOLOGY, Stimulus(0, "ue_power_off", ("ue1",)), "unknown stimulus 'ue_power_off'"),
        (
            Topology((NodeSpec("gnb1", Rat.NR, "10.0.0.1#x"),), TOPOLOGY.ues),
            Stimulus(0, "ue_power_on", ("ue1",)),
            "node 'gnb1' has a bad ngu_ip '10.0.0.1#x'",
        ),
        (TOPOLOGY, Stimulus(0, 5, ("ue1",)), "unknown stimulus '5'"),
        (TOPOLOGY, Stimulus(0, "ue_power_on", (5,)), "stimulus references unknown UE '5'"),
        (
            TOPOLOGY,
            Stimulus(0, "inject_downlink_data", ("ue1", b"10.0.1.1", 6, 34, b"x")),
            "inject_downlink_data at tick 0 for 'ue1' has a bad destination \"b'10.0.1.1'\"",
        ),
        (Topology((NodeSpec("gnb1", Rat.NR, 5),), ()), Stimulus(0, "ue_power_on", ()), "node 'gnb1' has a bad ngu_ip '5'"),
        (Topology(TOPOLOGY.nodes, (UeSpec(5, 6),)), Stimulus(0, "ue_power_on", ()), "ue '5' attaches to unknown node '6'"),
    ],
    ids=["unknown_kind", "bad_ngu_ip", "int_kind", "int_ue", "bytes_address", "int_ngu_ip", "int_names"],
)
def test_a_bad_value_built_in_python_is_a_script_error(topology, stim, message):
    """The scenario parser rejects these first; through the Python API a name
    or an address may be any string, or no string at all."""
    with pytest.raises(ScriptError) as exc:
        Simulator(topology, [stim])
    assert str(exc.value) == message


_LONG = "x" * 3000
_HUGE_TICK = -(10**5000)  # str() refuses it under the default limit of 4,300 digits


@pytest.mark.parametrize(
    "topology, stim, start",
    [
        (TOPOLOGY, Stimulus(_HUGE_TICK, "ue_power_on", ("ue1",)), "ue_power_on at negative tick of more than 80"),
        (TOPOLOGY, Stimulus(_HUGE_TICK, "ue_power_on", ()), "ue_power_on at tick of more than 80 digits wants"),
        (TOPOLOGY, Stimulus(10**600, "ue_power_on", ()), "ue_power_on at tick of more than 80 digits wants"),
        (TOPOLOGY, Stimulus(0, _LONG, ("ue1",)), "unknown stimulus 'xxx"),
        (TOPOLOGY, Stimulus(0, "ue_power_on", (_LONG,)), "stimulus references unknown UE 'xxx"),
        (
            TOPOLOGY,
            Stimulus(10**600, "inject_downlink_data", ("ue1", _LONG, 6, 34, b"x")),
            "inject_downlink_data at tick of more than 80 digits for 'ue1' has a bad destination 'xxx",
        ),
        (
            Topology(TOPOLOGY.nodes, (UeSpec(_LONG, _LONG),)),
            Stimulus(0, "ue_power_on", (_LONG,)),
            "ue 'xxx",
        ),
        (
            Topology((NodeSpec(_LONG, Rat.NR, _LONG),), TOPOLOGY.ues),
            Stimulus(0, "ue_power_on", ("ue1",)),
            "node 'xxx",
        ),
    ],
    ids=["negative_tick", "arity_negative_tick", "arity_long_tick", "kind", "ue", "address", "attach", "ngu_ip"],
)
def test_a_script_error_quotes_a_long_token_or_tick_in_short(topology, stim, start):
    with pytest.raises(ScriptError) as exc:
        Simulator(topology, [stim])
    assert str(exc.value).startswith(start)
    assert len(str(exc.value)) < 512


def test_event_budget_enforced():
    with pytest.raises(BudgetExceededError):
        make_sim(settings=Settings(max_events=5)).run()


def test_event_budget_counts_each_stimulus_and_each_delivery():
    topology, script, sim_settings = generated_scenario(8)
    sim = Simulator(topology, script, sim_settings)
    trace = sim.run()
    events = len(script) + sim.deliveries
    exact = Simulator(topology, script, dataclasses.replace(sim_settings, max_events=events))
    assert exact.run().to_text() == trace.to_text()
    with pytest.raises(BudgetExceededError):
        Simulator(topology, script, dataclasses.replace(sim_settings, max_events=events - 1)).run()


def test_stimuli_of_one_tick_run_in_script_order():
    script = POWER_ON + [Stimulus(30, "send_uplink_data", ("ue1", 1, p)) for p in (b"first", b"second")]
    sim = make_sim(script=script)
    sim.run()
    assert [payload for _teid, payload in sim.upf.received] == [b"first", b"second"]


_EIGHT_UES = generated_scenario(8)
_EIGHT_UES_TRACE = Simulator(*_EIGHT_UES).run().to_text()


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_script_order_across_ticks_does_not_change_the_trace(rng):
    """Only the order of the stimuli within a tick is part of the script."""
    topology, script, sim_settings = _EIGHT_UES
    by_tick: dict[int, list[Stimulus]] = {}
    for stim in script:
        by_tick.setdefault(stim.tick, []).append(stim)
    shuffled = rng.sample(script, len(script))
    # each tick keeps its slots in the shuffle, filled in script order
    reordered = [by_tick[stim.tick].pop(0) for stim in shuffled]
    assert Simulator(topology, reordered, sim_settings).run().to_text() == _EIGHT_UES_TRACE


# -- user-plane traffic ------------------------------------------------------------


def test_uplink_data_reaches_upf_with_session_teid():
    script = POWER_ON + [Stimulus(30, "send_uplink_data", ("ue1", 1, b"hello"))]
    sim = make_sim(script=script)
    sim.run()
    assert sim.upf.received == [(1, b"hello")]


def test_downlink_data_reaches_matching_drb():
    script = POWER_ON + [
        Stimulus(30, "inject_downlink_data", ("ue1", "10.0.1.2", 6, 34, b"web"))
    ]
    sim = make_sim(script=script)
    sim.run()
    ue = sim.ues["ue1"]
    assert len(ue.received) == 1
    bearer_id, packet = ue.received[0]
    assert bearer_id == 2
    assert wire.unpack_ip_packet(packet) == (wire.ip_bytes("10.0.1.2"), 6, 34, b"web")


def test_unmatched_downlink_tuple_is_dropped():
    script = POWER_ON + [
        Stimulus(30, "inject_downlink_data", ("ue1", "10.0.9.9", 6, 80, b"x"))
    ]
    sim = make_sim(script=script)
    sim.run()
    assert sim.ues["ue1"].received == []
    assert sim.nodes["gnb1"].drop_count == 1


def test_bad_downlink_destination_is_script_error_at_build():
    script = POWER_ON + [Stimulus(41, "inject_downlink_data", ("ue1", "10.0.0.999", 6, 34, b"x"))]
    with pytest.raises(ScriptError) as exc:
        make_sim(script=script)
    assert str(exc.value) == "inject_downlink_data at tick 41 for 'ue1' has a bad destination '10.0.0.999'"


@pytest.mark.parametrize(
    "stim, message",
    [
        (Stimulus(30, "send_uplink_data", ("ue1",)), "send_uplink_data at tick 30 wants 3 arguments, got 1"),
        (Stimulus(30, "ue_power_on", ()), "ue_power_on at tick 30 wants 1 arguments, got 0"),
        (Stimulus(30, "inject_downlink_data", ("ue1",)), "inject_downlink_data at tick 30 wants 5 arguments, got 1"),
        (Stimulus(-5, "send_uplink_data", ("ue1", 3, b"x")), "send_uplink_data at negative tick -5"),
        (Stimulus(10**639, "send_uplink_data", ("ue1", 3, b"x")), "send_uplink_data at a tick of more than 639 digits"),
    ],
    ids=["short_uplink", "bare_power_on", "short_downlink", "negative_tick", "long_tick"],
)
def test_stimulus_with_wrong_arity_is_script_error_at_build(stim, message):
    with pytest.raises(ScriptError) as exc:
        make_sim(script=POWER_ON + [stim])
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "stim, message",
    [
        (
            Stimulus(30, "inject_downlink_data", ("ue1", "10.0.1.2", 300, 34, b"x")),
            "inject_downlink_data at tick 30 for 'ue1' has a protocol outside 0..255",
        ),
        (
            Stimulus(30, "inject_downlink_data", ("ue1", "10.0.1.2", 6, 70000, b"x")),
            "inject_downlink_data at tick 30 for 'ue1' has an l4 port outside 0..65535",
        ),
        (
            Stimulus(30, "inject_downlink_data", ("ue1", "10.0.1.2", 6, 34, "x")),
            "inject_downlink_data at tick 30 for 'ue1' has a payload of type str, not bytes",
        ),
        (
            Stimulus(30, "send_uplink_data", ("ue1", 1, "x")),
            "send_uplink_data at tick 30 for 'ue1' has a payload of type str, not bytes",
        ),
    ],
    ids=["downlink_protocol", "downlink_port", "downlink_str_payload", "uplink_str_payload"],
)
def test_a_field_no_packet_can_hold_is_a_script_error(stim, message):
    """The scenario parser rejects these first; through the Python API the
    packet header's struct or the payload buffer would raise instead."""
    sim = make_sim(script=POWER_ON + [stim])
    with pytest.raises(ScriptError) as exc:
        sim.run()
    assert str(exc.value) == message
    assert len(sim.records) == 20  # every send before the stimulus


def test_downlink_before_session_setup_is_script_error():
    script = [Stimulus(0, "inject_downlink_data", ("ue1", "10.0.1.1", 6, 43, b"x"))]
    with pytest.raises(ScriptError):
        make_sim(script=script).run()


def test_conservation_over_random_traffic():
    rng = random.Random(5)
    script = list(POWER_ON)
    injected = 0
    for i in range(60):
        tick = 30 + i
        if rng.random() < 0.5:
            bearer = rng.choice([1, 2, 7])  # 7 has no flow entry: dropped
            script.append(Stimulus(tick, "send_uplink_data", ("ue1", bearer, b"u%d" % i)))
        else:
            dst, l4 = rng.choice([("10.0.1.1", 43), ("10.0.1.1", 23), ("10.0.1.2", 34), ("10.0.9.9", 80)])
            script.append(Stimulus(tick, "inject_downlink_data", ("ue1", dst, 6, l4, b"d%d" % i)))
        injected += 1
    sim = make_sim(script=script)
    sim.run()
    delivered = len(sim.upf.received) + len(sim.ues["ue1"].received)
    dropped = sim.nodes["gnb1"].drop_count + sim.upf.bad_frames
    assert injected == delivered + dropped
    assert sim.uplink_injected + sim.downlink_injected == injected


# -- table snapshots -----------------------------------------------------------------


def test_table_snapshot_before_any_step_is_empty():
    sim = make_sim()
    sim.run()
    assert sim.table_at_step("gnb1", 0) == []


def test_table_snapshot_grows_monotonically():
    sim = make_sim()
    sim.run()
    sizes = [len(sim.table_at_step("gnb1", s)) for s in range(21)]
    assert sizes == sorted(sizes)
    assert sizes[-1] == 10  # 2 SRB0 + 2 SRB1 + 1 SRB2 + 2 uplink + 3 downlink


def _bundled(path):
    scenario = load_scenario(path)
    return scenario.topology, list(scenario.script), scenario.settings


@pytest.mark.parametrize(
    "make",
    [
        lambda: _bundled("scenarios/initial_access.scn"),
        lambda: _bundled("scenarios/multi_rat.scn"),
        generated_scenario,
    ],
    ids=["initial_access", "multi_rat", "generated_50_ues"],
)
def test_table_history_matches_every_delivery_oracle(make):
    topology, script, settings = make()
    oracle = EveryDeliveryTables(topology, script, settings)
    oracle_trace = oracle.run()
    sim = Simulator(topology, script, settings)
    trace = sim.run()
    assert trace.to_text() == oracle_trace.to_text()

    steps = len(trace.records)
    for node in sim.nodes:
        for step in range(-1, steps + 2):
            assert sim.table_at_step(node, step) == oracle.oracle_table(node, step), (node, step)

    # one stored render per Open5G batch the controller sent
    batches = sum(1 for r in trace.records if r.channel == "OPEN5G" and r.src == "src")
    assert sum(len(history) for history in sim.table_history.values()) == batches

    # accounting: every record is delivered; every packet arrives or is dropped
    assert sim.deliveries == steps
    injected = sim.uplink_injected + sim.downlink_injected
    delivered = len(sim.upf.received) + sum(len(ue.received) for ue in sim.ues.values())
    dropped = sum(node.drop_count for node in sim.nodes.values()) + sim.upf.bad_frames
    assert injected == delivered + dropped


class EveryDelivery(Simulator):
    """Keeps every item the harness delivers, in delivery order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.delivered: list = []

    def _process_delivery(self, d) -> None:
        self.delivered.append(d)
        super()._process_delivery(d)


@pytest.mark.parametrize(
    "make",
    [lambda: _bundled("scenarios/initial_access.scn"), lambda: _bundled("scenarios/multi_rat.scn"), generated_scenario],
    ids=["initial_access", "multi_rat", "generated_50_ues"],
)
def test_every_delivery_is_a_whole_delivery_tuple(make):
    """`_send` builds each delivery from its fields with `tuple.__new__`: each one
    is a `_Delivery` holding every field, a handler among them, and its first four
    fields are the key its trace record shows."""
    sim = EveryDelivery(*make())
    records = sim.run().records
    assert len(sim.delivered) == len(records)
    for d, record in zip(sim.delivered, records):
        assert type(d) is _Delivery
        assert len(d) == len(_Delivery._fields)
        assert callable(d.receive)
        assert (d.src, d.dst, d.channel, d.kind) == (record.src, record.dst, record.channel, record.kind)


# -- the rows a flow table keeps rendered ----------------------------------------------

_IP = wire.ip_bytes("10.0.1.1")
_PORT_IDS = st.integers(1, 4)
# small domains, so that MODIFY often rewrites the out-port of an entry,
# sometimes into a spec of another class
_SPECS = st.one_of(
    st.builds(RadioBearer, st.integers(1, 2), st.sampled_from([1, 2]), st.just(BearerKind.DRB), st.just(())),
    st.builds(GtpTunnel, st.just(_IP), st.just(_IP), st.integers(1, 2), st.integers(1, 2)),
    st.builds(SigTunnel, st.just(_IP), st.integers(1, 2)),
)
# a DELETE cascades through an entry's out-port, its in_port or its
# (crnti, bearer_id) match
_MATCHES = st.sampled_from(
    [
        FlowMatch(in_port=1),
        FlowMatch(in_port=2),
        FlowMatch(crnti=1, bearer_id=1),
        FlowMatch(crnti=2, bearer_id=2),
        FlowMatch(in_port=3, crnti=1, bearer_id=1),
        FlowMatch(ip_dst=_IP),
        FlowMatch(ip_dst=_IP, ip_proto=6, l4_dst=23),
        FlowMatch(ip_dst=_IP, ip_proto=6, l4_dst=43),
    ]
)
_PRIORITIES = st.sampled_from([100, 110])


def _port_mod(command: PortModCommand, port_id: int, spec) -> PortMod:
    return PortMod(1, command, port_id, None if command == PortModCommand.DELETE else spec)


def _flow_mod(command: FlowModCommand, priority: int, match: FlowMatch, out_port: int) -> FlowMod:
    return FlowMod(1, command, priority, match, out_port)


_PORT_MOD = st.builds(_port_mod, st.sampled_from(PortModCommand), _PORT_IDS, _SPECS)
_FLOW_MOD = st.builds(
    _flow_mod, st.sampled_from([FlowModCommand.ADD] * 3 + [FlowModCommand.DELETE]), _PRIORITIES, _MATCHES, _PORT_IDS
)
# `table.entries = [...]`: the indexes of current entries to keep, then new
# entries whose ids may collide with current ones and whose out-port may not exist
_NEW_ENTRY = st.builds(FlowEntry, st.integers(1, 8), _PRIORITIES, _MATCHES, st.integers(1, 5))
_ASSIGN = st.tuples(st.lists(st.integers(0, 20), max_size=8), st.lists(_NEW_ENTRY, max_size=3))
# several commands in one batch, so that an ADD can follow a change that made
# the rows stale before they are rendered again
_BATCH = st.lists(st.one_of(_PORT_MOD, _FLOW_MOD), min_size=2, max_size=4)
_STEPS = st.one_of(_PORT_MOD, _PORT_MOD, _FLOW_MOD, _FLOW_MOD, _FLOW_MOD, _ASSIGN, _BATCH)


@given(st.lists(_STEPS, min_size=5, max_size=50))
@example(
    [
        ([], [FlowEntry(1, 100, FlowMatch(in_port=1), 3)]),  # out-port 3 does not exist
        _port_mod(PortModCommand.CREATE, 3, SigTunnel(_IP, 1)),
    ]
)
@settings(max_examples=200, deadline=None)
def test_cached_render_matches_reference_render(steps):
    node = DataPlaneNode("gnb1", Rat.NR)
    for step in steps:
        if isinstance(step, (PortMod, FlowMod)):  # before the plain tuple: a command is a NamedTuple
            node.handle_open5g(wire.encode_message(step))  # an ERROR stops the batch; go on
        elif isinstance(step, list):
            node.handle_open5g(b"".join(map(wire.encode_message, step)))
        else:
            keep, extra = step
            entries = node.table.entries
            node.table.entries = [entries[i] for i in keep if i < len(entries)] + extra
        assert node.table.entries == sorted(node.table.entries, key=lambda e: (-e.priority, e.entry_id))  # display order
        assert render_flow_table(node) == reference_render_flow_table(node)


def test_creating_a_missing_out_port_re_renders_its_row():
    node = DataPlaneNode("gnb1", Rat.NR)
    node.table.entries = [FlowEntry(1, 100, FlowMatch(in_port=1), 3)]
    assert render_flow_table(node) == ["100 [in_port=1] -> [output port=3]"]
    node.handle_open5g(wire.encode_message(_port_mod(PortModCommand.CREATE, 3, SigTunnel(_IP, 7))))
    assert render_flow_table(node) == ["100 [in_port=1] -> [output sig(tunnel=7)]"]


# -- stubs in isolation ----------------------------------------------------------------


def test_amf_answers_initial_ue_message():
    amf = AmfStub({1: (SESSION,)})
    reply = amf.handle(NgapMessage(NGAP_INITIAL_UE_MESSAGE, {"ue_tmp_id": 1, "nas": "00"}))
    assert reply.kind == NGAP_INITIAL_CONTEXT_SETUP_REQUEST
    assert reply.fields["sessions"][0]["session_id"] == 1


def test_amf_rejects_unknown_ue():
    amf = AmfStub({})
    with pytest.raises(UnknownUeError):
        amf.handle(NgapMessage(NGAP_INITIAL_UE_MESSAGE, {"ue_tmp_id": 9, "nas": "00"}))


def test_amf_refuses_a_message_it_does_not_answer():
    with pytest.raises(ScriptError) as exc:
        AmfStub({}).handle(NgapMessage(NGAP_INITIAL_CONTEXT_SETUP_REQUEST, {"ue_tmp_id": 1}))
    assert str(exc.value) == "AMF cannot handle InitialContextSetupRequest"


@pytest.mark.parametrize(
    "kind, fields",
    [(RRC_SECURITY_MODE_COMMAND, {}), (RRC_RECONFIGURATION, {"sessions": []}), (RRC_SETUP, {"crnti": 61})],
)
def test_ue_ignores_a_downlink_its_state_does_not_expect(kind, fields):
    """Before its RrcSetup a UE answers nothing but an RrcSetup, and after it no second one."""
    ue = UeSim("ue1", 1, "gnb1")
    ue.power_on()
    if kind == RRC_SETUP:
        ue.on_rrc(0, RrcMessage(RRC_SETUP, {"crnti": 61}))
    state = ue.state
    assert ue.on_rrc(3, RrcMessage(kind, fields)) == []
    assert ue.state == state


def test_upf_counts_bad_frames():
    upf = UpfStub()
    upf.on_uplink(b"\x00bad")
    assert upf.bad_frames == 1 and upf.received == []


def test_upf_downlink_without_session_is_script_error():
    with pytest.raises(ScriptError):
        UpfStub().downlink(1, b"x")


def test_upf_downlink_uses_lowest_session_id_whatever_the_order():
    upf = UpfStub()
    upf.register_session(1, 5, "gnb2", 50)
    upf.register_session(2, 1, "gnb9", 90)  # another UE's session
    upf.register_session(1, 2, "gnb1", 20)
    upf.register_session(1, 3, "gnb3", 30)
    node_id, frame = upf.downlink(1, b"x")
    assert node_id == "gnb1"
    assert wire.decap_gtpu(frame) == (20, b"x")


def test_ue_resolved_by_crnti_once_learned():
    sim = make_sim()
    assert sim._resolve_ue("gnb1", 1, b"x") is None
    sim.run()
    ue = sim.ues["ue1"]
    assert sim._resolve_ue("gnb1", ue.crnti, b"x") == (ue, b"x")
    assert sim._resolve_ue("gnb2", ue.crnti, b"x") is None
    assert sim._resolve_ue("gnb1", ue.crnti + 1, b"x") is None


def test_ue_resolved_on_srb0_by_its_envelope_which_is_stripped():
    sim = make_sim()
    ue = sim.ues["ue1"]
    assert sim._resolve_ue("gnb1", 0, wire.pack_envelope(ue.ue_tmp_id, b"setup")) == (ue, b"setup")
    assert sim._resolve_ue("gnb2", 0, wire.pack_envelope(ue.ue_tmp_id, b"setup")) is None
    assert sim._resolve_ue("gnb1", 0, wire.pack_envelope(ue.ue_tmp_id + 1, b"setup")) is None
    assert sim._resolve_ue("gnb1", 0, b"setup") is None


# -- the SRB0 envelope, read at the air side ----------------------------------------------

TWO_NODES = Topology(
    nodes=(NodeSpec("gnb1", Rat.NR, "10.0.0.1"), NodeSpec("gnb2", Rat.NR, "10.0.0.2")),
    ues=(UeSpec("ue1", "gnb1", (SESSION,)),),
)


def bootstrapped(topology=TOPOLOGY) -> Simulator:
    """A finished run of an empty script: each node holds only its SRB0 pair."""
    sim = make_sim(script=[], topology=topology)
    sim.run()
    return sim


def srb0_downlink(sim: Simulator, node_id: str, payload: bytes) -> None:
    """Deliver `payload` to the node on its SRB0 tunnel, as the controller would."""
    tunnel_id = sim.controller.nodes[node_id].srb0_tunnel_id
    frame = wire.encap_sig(payload, tunnel_id)
    sim._node_sig(_Delivery("src", node_id, "SRB0", "RrcSetup", frame, sim._node_sig))


def assert_dropped_unsent(sim: Simulator, node_id: str, deliver) -> None:
    """`deliver` adds 1 to the node's drops, sends nothing and writes no record."""
    before, records = sim.nodes[node_id].drop_count, len(sim.records)
    deliver()
    sim._digest_pending()
    assert sim.nodes[node_id].drop_count == before + 1
    assert sim._calendar == {}
    assert len(sim.records) == records


@pytest.mark.parametrize(
    "envelope", [b"\x00\x00", wire.pack_envelope(1, b"setup")[:-1]], ids=["short", "length_mismatch"]
)
def test_bad_srb0_envelope_on_sig_ingress_drops(envelope):
    sim = bootstrapped()
    assert_dropped_unsent(sim, "gnb1", lambda: srb0_downlink(sim, "gnb1", envelope))


def test_bad_srb0_envelope_drops_on_every_ingress():
    """Radio and NG-U traffic steered to the common SRB0 port carries no
    envelope; like a bad envelope from the signaling tunnel, it is dropped."""
    sim = bootstrapped()
    node = sim.nodes["gnb1"]
    srb0_port = node.registry.radio_port(0, wire.SRB0_BEARER)
    ip1 = wire.ip_bytes("10.0.1.1")
    steer = (
        FlowMod(90, FlowModCommand.ADD, 100, FlowMatch(crnti=7, bearer_id=1), srb0_port),
        FlowMod(91, FlowModCommand.ADD, 100, FlowMatch(ip_dst=ip1, ip_proto=6, l4_dst=43), srb0_port),
    )
    assert node.handle_open5g(b"".join(map(wire.encode_message, steer))) is None
    radio = _Delivery("ue1", "gnb1", "RADIO_DATA", "Data", b"\x00", sim._node_radio, 7, 1)
    assert_dropped_unsent(sim, "gnb1", lambda: sim._node_radio(radio))
    frame = wire.encap_gtpu(wire.pack_ip_packet(ip1, 6, 43, b"x"), teid=1)
    ngu = _Delivery("upf", "gnb1", "NGU", "GPDU", frame, sim._node_ngu)
    assert_dropped_unsent(sim, "gnb1", lambda: sim._node_ngu(ngu))


def test_forged_setup_complete_on_srb0_stops_the_run_before_ngap():
    """ue1's RrcSetupComplete, sent in an SRB0 envelope while its setup is
    pending, is a violation: it never moves ue1 on or reaches the AMF."""
    scn = load_scenario("scenarios/initial_access.scn")
    complete = rrc_to_bytes(RrcMessage(RRC_SETUP_COMPLETE, {"nas": "aa"}))
    forged = Stimulus(2, "send_uplink_data", ("ue1", 0, wire.pack_envelope(1, complete)))
    sim = Simulator(scn.topology, list(scn.script) + [forged], scn.settings)
    with pytest.raises(ProtocolViolationError, match="^RrcSetupComplete on SRB0$"):
        sim.run()
    assert sim.controller.ue_contexts[1].rrc_state == RrcState.SETUP_REQUESTED
    assert not [r for r in sim.records if r.channel == "NGAP"]


def test_srb0_envelope_naming_a_ue_on_another_node_drops():
    sim = bootstrapped(TWO_NODES)
    envelope = wire.pack_envelope(sim.ues["ue1"].ue_tmp_id, b"setup")
    assert_dropped_unsent(sim, "gnb2", lambda: srb0_downlink(sim, "gnb2", envelope))
    # on the node the UE attaches to, the same envelope reaches it, opened
    srb0_downlink(sim, "gnb1", envelope)
    (sent,) = sim._calendar[sim._now + 1]
    assert (sent.src, sent.dst, sent.channel, sent.payload) == ("gnb1", "ue1", "SRB0", b"setup")
    assert sim.nodes["gnb1"].drop_count == 0
