
import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import sig_frame
from open5gsim import wire
from open5gsim.controller import (
    CRNTI_FIRST,
    SRB1_BEARER,
    SRB2_BEARER,
    ConfigBatch,
    Controller,
    NgapOut,
    QosFlowSpec,
    RrcDownlink,
    RrcState,
    SessionSpec,
    session_spec_from_doc,
    session_spec_to_doc,
)
from open5gsim.errors import (
    AlreadyBootstrappedError,
    InvalidSessionError,
    ProtocolViolationError,
    UnknownTunnelError,
    UnknownUeError,
)
from open5gsim.messages import (
    NGAP_INITIAL_CONTEXT_SETUP_REQUEST,
    NGAP_INITIAL_CONTEXT_SETUP_RESPONSE,
    NGAP_INITIAL_UE_MESSAGE,
    RRC_RECONFIGURATION,
    RRC_RECONFIGURATION_COMPLETE,
    RRC_SECURITY_MODE_COMMAND,
    RRC_SECURITY_MODE_COMPLETE,
    RRC_SETUP,
    RRC_SETUP_COMPLETE,
    RRC_SETUP_REQUEST,
    NgapMessage,
    RrcMessage,
    rrc_from_bytes,
    rrc_to_bytes,
)
from open5gsim.netsim import Settings
from open5gsim.node import DataPlaneNode, Rat
from open5gsim.wire import FlowMod, PortMod

SESSION = SessionSpec(
    session_id=1,
    drbs=(1, 2),
    flows=(
        QosFlowSpec(1, wire.ip_bytes("10.0.1.1"), 6, 43, drb=1),
        QosFlowSpec(2, wire.ip_bytes("10.0.1.1"), 6, 23, drb=1),
        QosFlowSpec(3, wire.ip_bytes("10.0.1.2"), 6, 34, drb=2),
    ),
)


def make_controller(admission_cap: int = Settings.admission_cap) -> Controller:
    c = Controller(admission_cap)
    c.register_node("gnb1", Rat.NR, "10.0.0.1")
    return c


def bootstrapped() -> Controller:
    c = make_controller()
    c.bootstrap_node("gnb1")
    return c


def request_setup(c: Controller, ue_tmp_id: int = 1, node_id: str = "gnb1") -> list:
    """Deliver the UE's RrcSetupRequest on the node's SRB0 tunnel."""
    msg = RrcMessage(RRC_SETUP_REQUEST, {"ue_tmp_id": ue_tmp_id})
    return c.on_rrc_uplink(node_id, sig_frame(c.nodes[node_id].srb0_tunnel_id, msg, ue_tmp_id))


def attach_ue(c: Controller, ue_tmp_id: int = 1, node_id: str = "gnb1") -> list:
    """Drive one UE to CONNECTED; returns setup-request emissions."""
    out = request_setup(c, ue_tmp_id, node_id)
    ue = c.ue_contexts[ue_tmp_id]
    c.on_rrc_uplink(node_id, sig_frame(ue.srb_tunnel, RrcMessage(RRC_SETUP_COMPLETE, {"nas": "00"})))
    return out


def ics_request(ue_tmp_id: int = 1, sessions=(SESSION,)) -> NgapMessage:
    return NgapMessage(
        NGAP_INITIAL_CONTEXT_SETUP_REQUEST,
        {
            "ue_tmp_id": ue_tmp_id,
            "security_info": "sec-1",
            "sessions": [session_spec_to_doc(s) for s in sessions],
        },
    )


# -- bootstrap -----------------------------------------------------------------


def test_bootstrap_emits_two_ports_and_two_flows():
    c = make_controller()
    (batch,) = c.bootstrap_node("gnb1")
    assert isinstance(batch, ConfigBatch) and batch.label == "CreatePortsSrb0"
    assert sum(isinstance(m, PortMod) for m in batch.messages) == 2
    assert sum(isinstance(m, FlowMod) for m in batch.messages) == 2


def test_bootstrap_twice_rejected():
    c = bootstrapped()
    with pytest.raises(AlreadyBootstrappedError):
        c.bootstrap_node("gnb1")


def test_bootstrap_three_nodes_is_linear():
    c = make_controller()
    c.register_node("enb1", Rat.LTE, "10.0.0.2")
    c.register_node("wt1", Rat.WLAN, "10.0.0.3")
    batches = [c.bootstrap_node(n)[0] for n in ("gnb1", "enb1", "wt1")]
    assert [len(b.messages) for b in batches] == [4, 4, 4]
    # tunnel ids are allocated globally in registration order
    assert [c.nodes[n].srb0_tunnel_id for n in ("gnb1", "enb1", "wt1")] == [1, 2, 3]


def test_bootstrap_applies_cleanly_to_node():
    c = make_controller()
    node = DataPlaneNode("gnb1", Rat.NR)
    (batch,) = c.bootstrap_node("gnb1")
    assert node.handle_open5g(batch.to_bytes()) is None
    assert len(node.registry.ports) == 2 and len(node.table) == 2


# -- attach / RRC ----------------------------------------------------------------


def test_setup_request_emits_srb1_batch_then_rrc_setup():
    c = bootstrapped()
    out = request_setup(c)
    assert len(out) == 2
    batch, downlink = out
    assert batch.label == "CreatePortsSrb1"
    assert sum(isinstance(m, PortMod) for m in batch.messages) == 2
    assert sum(isinstance(m, FlowMod) for m in batch.messages) == 2
    assert isinstance(downlink, RrcDownlink)
    assert downlink.msg.kind == RRC_SETUP
    assert downlink.msg.fields["crnti"] == CRNTI_FIRST
    assert downlink.ue_tmp_id == 1  # SRB0 downlink carries the envelope id


def test_srb0_downlink_frame_carries_the_envelope():
    c = bootstrapped()
    _, downlink = request_setup(c, ue_tmp_id=7)
    tunnel_id, payload = wire.decap_sig(downlink.to_bytes())
    assert tunnel_id == c.nodes["gnb1"].srb0_tunnel_id
    assert wire.unpack_envelope(payload) == (7, rrc_to_bytes(downlink.msg))


def test_srb1_downlink_frame_has_no_envelope():
    c = bootstrapped()
    attach_ue(c)
    _, downlink = c.on_ngap(ics_request())
    tunnel_id, payload = wire.decap_sig(downlink.to_bytes())
    assert downlink.srb_bearer == SRB1_BEARER and tunnel_id == c.ue_contexts[1].srb_tunnel
    assert rrc_from_bytes(payload) == downlink.msg


def test_admission_denied_emits_nothing():
    c = make_controller(admission_cap=0)
    c.bootstrap_node("gnb1")
    out = request_setup(c)
    assert out == []
    assert 1 not in c.ue_contexts


def test_setup_complete_emits_initial_ue_message():
    c = bootstrapped()
    request_setup(c)
    ue = c.ue_contexts[1]
    out = c.on_rrc_uplink("gnb1", sig_frame(ue.srb_tunnel, RrcMessage(RRC_SETUP_COMPLETE, {"nas": "aa"})))
    assert len(out) == 1 and isinstance(out[0], NgapOut)
    assert out[0].msg.kind == NGAP_INITIAL_UE_MESSAGE
    assert out[0].msg.fields == {"ue_tmp_id": 1, "nas": "aa"}
    assert ue.rrc_state == RrcState.CONNECTED


def test_unknown_tunnel_rejected():
    c = bootstrapped()
    with pytest.raises(UnknownTunnelError):
        c.on_rrc_uplink("gnb1", sig_frame(99, RrcMessage(RRC_SETUP_REQUEST, {"ue_tmp_id": 1}), 1))


def test_security_mode_complete_before_command_is_violation():
    c = bootstrapped()
    attach_ue(c)
    ue = c.ue_contexts[1]
    with pytest.raises(ProtocolViolationError):
        c.on_rrc_uplink("gnb1", sig_frame(ue.srb_tunnel, RrcMessage(RRC_SECURITY_MODE_COMPLETE, {})))


def test_setup_complete_twice_is_violation():
    c = bootstrapped()
    attach_ue(c)
    ue = c.ue_contexts[1]
    with pytest.raises(ProtocolViolationError):
        c.on_rrc_uplink("gnb1", sig_frame(ue.srb_tunnel, RrcMessage(RRC_SETUP_COMPLETE, {"nas": "00"})))


def test_uplink_for_unknown_ue_rejected():
    c = bootstrapped()
    node = c.nodes["gnb1"]
    with pytest.raises(UnknownUeError):
        c.on_rrc_uplink("gnb1", sig_frame(node.srb0_tunnel_id, RrcMessage(RRC_SETUP_COMPLETE, {"nas": "00"}), 5))


def controller_state(c: Controller):
    """Everything the controller holds: nodes, UEs, tunnels and counters."""
    return copy.deepcopy(vars(c))


@pytest.mark.parametrize(
    "kind", [RRC_SETUP_COMPLETE, RRC_SECURITY_MODE_COMPLETE, RRC_RECONFIGURATION_COMPLETE]
)
def test_srb0_carries_only_the_setup_request(kind):
    """A known UE's later RRC messages in an SRB0 envelope are violations,
    whatever state the UE is in, and change nothing."""
    c = bootstrapped()
    request_setup(c)
    before = controller_state(c)
    srb0 = c.nodes["gnb1"].srb0_tunnel_id
    with pytest.raises(ProtocolViolationError, match=f"^{kind} on SRB0$"):
        c.on_rrc_uplink("gnb1", sig_frame(srb0, RrcMessage(kind, {"nas": "aa"}), 1))
    assert controller_state(c) == before


def test_setup_request_on_own_srb1_tunnel_is_violation():
    c = bootstrapped()
    attach_ue(c)
    ue = c.ue_contexts[1]
    before = controller_state(c)
    with pytest.raises(ProtocolViolationError, match="already in procedure"):
        c.on_rrc_uplink("gnb1", sig_frame(ue.srb_tunnel, RrcMessage(RRC_SETUP_REQUEST, {"ue_tmp_id": 1})))
    assert controller_state(c) == before


@pytest.mark.parametrize("kind", [RRC_SETUP, RRC_SECURITY_MODE_COMMAND, RRC_RECONFIGURATION])
def test_a_downlink_kind_sent_up_on_srb1_is_violation(kind):
    c = bootstrapped()
    attach_ue(c)
    before = controller_state(c)
    with pytest.raises(ProtocolViolationError) as exc:
        c.on_rrc_uplink("gnb1", sig_frame(c.ue_contexts[1].srb_tunnel, RrcMessage(kind, {})))
    assert str(exc.value) == f"unexpected uplink {kind}"
    assert controller_state(c) == before


def test_tunnel_of_another_node_rejected():
    c = make_controller()
    c.register_node("enb1", Rat.LTE, "10.0.0.2")
    c.bootstrap_node("gnb1")
    c.bootstrap_node("enb1")
    before = controller_state(c)
    with pytest.raises(UnknownTunnelError):
        request = RrcMessage(RRC_SETUP_REQUEST, {"ue_tmp_id": 1})
        c.on_rrc_uplink("enb1", sig_frame(c.nodes["gnb1"].srb0_tunnel_id, request, 1))
    assert controller_state(c) == before


# -- session configuration --------------------------------------------------------


def test_session_config_counts():
    c = bootstrapped()
    attach_ue(c)
    ue = c.ue_contexts[1]
    commands = c.build_session_config(ue, SESSION)
    # 2 DRB radio ports + 1 NG-U tunnel, then 2 uplink rows + 3 downlink rows
    assert [type(m) for m in commands] == [PortMod] * 3 + [FlowMod] * 5
    assert [m.priority for m in commands[3:]] == [120, 120, 110, 110, 110]


def test_session_with_no_flows():
    c = bootstrapped()
    attach_ue(c)
    ue = c.ue_contexts[1]
    commands = c.build_session_config(ue, SessionSpec(2, (5,), ()))
    assert [type(m) for m in commands] == [PortMod, PortMod, FlowMod]  # one DRB, one tunnel
    assert commands[2].priority == 120


def test_flow_on_absent_drb_rejected():
    c = bootstrapped()
    attach_ue(c)
    ue = c.ue_contexts[1]
    bad = SessionSpec(1, (1,), (QosFlowSpec(1, wire.ip_bytes("10.0.1.1"), 6, 80, drb=9),))
    with pytest.raises(InvalidSessionError):
        c.build_session_config(ue, bad)


def test_session_spec_doc_round_trip():
    assert session_spec_from_doc(session_spec_to_doc(SESSION)) == SESSION


# -- NG-AP --------------------------------------------------------------------


def test_ics_request_one_session_one_flow_one_drb_counts():
    c = bootstrapped()
    attach_ue(c)
    spec = SessionSpec(1, (1,), (QosFlowSpec(1, wire.ip_bytes("10.0.1.1"), 6, 80, drb=1),))
    batch, downlink = c.on_ngap(ics_request(sessions=(spec,)))
    # SRB2 radio + DRB radio + NG-U tunnel
    assert sum(isinstance(m, PortMod) for m in batch.messages) == 3
    # SRB2 uplink + DRB uplink + downlink flow
    assert sum(isinstance(m, FlowMod) for m in batch.messages) == 3
    assert downlink.msg.kind == RRC_SECURITY_MODE_COMMAND
    assert downlink.msg.fields["security_info"] == "sec-1"


def test_ics_request_with_a_bad_session_changes_no_state():
    """A later session that fails validation must not leave the SRB2 port,
    the earlier session or any counter behind."""
    c = bootstrapped()
    attach_ue(c)
    bad = SessionSpec(2, (5,), (QosFlowSpec(1, wire.ip_bytes("10.0.1.1"), 6, 80, drb=9),))
    node, ue = c.nodes["gnb1"], c.ue_contexts[1]

    def state():
        return (
            node.next_port_id, node.next_xid, c._next_teid, c._next_udp_port, c._next_tunnel_id,
            dict(c.tunnel_info), ue.srb_tunnel, list(ue.pdu_sessions), ue.rrc_state,
        )

    before = state()
    assert before[:3] == (5, 9, 1)
    with pytest.raises(InvalidSessionError):
        c.on_ngap(ics_request(sessions=(SESSION, bad)))
    assert state() == before
    # the UE can still be configured by a valid request
    batch, _ = c.on_ngap(ics_request())
    assert [m.xid for m in batch.messages] == list(range(9, 19))


def test_second_ics_request_is_violation_and_allocates_nothing():
    c = bootstrapped()
    attach_ue(c)
    c.on_ngap(ics_request())
    before = controller_state(c)
    with pytest.raises(ProtocolViolationError):
        c.on_ngap(ics_request())
    assert controller_state(c) == before


@pytest.mark.parametrize("kind", [NGAP_INITIAL_UE_MESSAGE, NGAP_INITIAL_CONTEXT_SETUP_RESPONSE])
def test_an_ngap_message_the_amf_does_not_send_is_violation(kind):
    c = bootstrapped()
    attach_ue(c)
    before = controller_state(c)
    with pytest.raises(ProtocolViolationError) as exc:
        c.on_ngap(NgapMessage(kind, {"ue_tmp_id": 1}))
    assert str(exc.value) == f"unexpected NGAP {kind}"
    assert controller_state(c) == before


def test_ics_request_before_setup_complete_is_violation():
    c = bootstrapped()
    request_setup(c)
    with pytest.raises(ProtocolViolationError):
        c.on_ngap(ics_request())


def test_ics_request_for_unknown_ue_rejected():
    c = bootstrapped()
    with pytest.raises(UnknownUeError):
        c.on_ngap(ics_request(ue_tmp_id=7))


def test_full_attach_emission_sequence():
    """The controller side of the complete initial-access exchange."""
    c = bootstrapped()
    e1 = request_setup(c)
    ue = c.ue_contexts[1]
    srb1 = ue.srb_tunnel
    e2 = c.on_rrc_uplink("gnb1", sig_frame(srb1, RrcMessage(RRC_SETUP_COMPLETE, {"nas": "00"})))
    e3 = c.on_ngap(ics_request())
    e4 = c.on_rrc_uplink("gnb1", sig_frame(srb1, RrcMessage(RRC_SECURITY_MODE_COMPLETE, {})))
    e5 = c.on_rrc_uplink("gnb1", sig_frame(srb1, RrcMessage(RRC_RECONFIGURATION_COMPLETE, {})))

    kinds = [type(e).__name__ for e in e1 + e2 + e3 + e4 + e5]
    assert kinds == [
        "ConfigBatch", "RrcDownlink",   # SRB1 config + RrcSetup
        "NgapOut",                      # InitialUeMessage
        "ConfigBatch", "RrcDownlink",   # SRB2/DRB config + SecurityModeCommand
        "RrcDownlink",                  # RrcReconfiguration
        "NgapOut",                      # InitialContextSetupResponse
    ]
    assert e4[0].msg.kind == RRC_RECONFIGURATION
    assert e5[0].msg.kind == NGAP_INITIAL_CONTEXT_SETUP_RESPONSE
    assert e5[0].msg.fields["sessions"] == [1]
    assert ue.rrc_state == RrcState.CONFIGURED
    # SRB2 rides the SRB1 tunnel; no tunnel of its own
    (srb2_uplink,) = [
        m for m in e3[0].messages if isinstance(m, FlowMod) and m.match.bearer_id == SRB2_BEARER
    ]
    assert srb2_uplink.out_port == ue.srb1_sig_port


def test_emitted_config_matches_node_state():
    """Every command the controller emits must apply cleanly, and the node's
    final table must contain exactly the rows the controller intended."""
    c = bootstrapped()
    node = DataPlaneNode("gnb1", Rat.NR)
    # replay bootstrap (already emitted before node creation in this test)
    c2 = make_controller()
    for emission in c2.bootstrap_node("gnb1"):
        assert node.handle_open5g(emission.to_bytes()) is None
    out = request_setup(c2)
    assert node.handle_open5g(out[0].to_bytes()) is None
    ue = c2.ue_contexts[1]
    c2.on_rrc_uplink("gnb1", sig_frame(ue.srb_tunnel, RrcMessage(RRC_SETUP_COMPLETE, {"nas": "00"})))
    batch = c2.on_ngap(ics_request())[0]
    assert node.handle_open5g(batch.to_bytes()) is None

    # 2 bootstrap + 2 SRB1 + 1 SRB2 + 2 DRB + 1 NG-U = 8 ports
    assert len(node.registry.ports) == 8
    # 2 bootstrap + 2 SRB1 + 1 SRB2 + 2 uplink + 3 downlink = 10 entries
    assert len(node.table) == 10
    prios = sorted((e.priority for e in node.table.entries), reverse=True)
    assert prios == [120, 120, 110, 110, 110, 100, 100, 100, 100, 100]


def test_node_error_fails_in_flight_ues():
    c = bootstrapped()
    attach_ue(c)
    c.on_node_error("gnb1", code=9, detail=b"unknown out_port")
    assert c.ue_contexts[1].rrc_state == RrcState.FAILED


@given(st.lists(st.sampled_from([
    RRC_SETUP_COMPLETE, RRC_SECURITY_MODE_COMPLETE, RRC_RECONFIGURATION_COMPLETE,
]), min_size=1, max_size=6))
@settings(max_examples=100)
def test_out_of_order_uplinks_never_corrupt_state(kinds):
    """Arbitrary uplink orderings either progress the state machine or raise
    a protocol violation; they never crash or skip states."""
    order = [
        RrcState.SETUP_REQUESTED, RrcState.CONNECTED, RrcState.SECURITY_MODE_SENT,
        RrcState.SECURED, RrcState.CONFIGURED,
    ]
    c = bootstrapped()
    request_setup(c)
    ue = c.ue_contexts[1]
    for kind in kinds:
        before, state = order.index(ue.rrc_state), controller_state(c)
        fields = {"nas": "00"} if kind == RRC_SETUP_COMPLETE else {}
        try:
            c.on_rrc_uplink("gnb1", sig_frame(ue.srb_tunnel, RrcMessage(kind, fields)))
        except ProtocolViolationError:
            assert controller_state(c) == state
            continue
        assert order.index(ue.rrc_state) == before + 1
        if kind == RRC_SETUP_COMPLETE:
            c.on_ngap(ics_request())  # AMF answers the InitialUeMessage
            assert order.index(ue.rrc_state) == before + 2
