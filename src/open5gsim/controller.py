"""The SDN RAN controller (SRC).

Hosts three roles behind one state machine: the Open5G configuration point
(emits PORT_MOD/FLOW_MOD batches), per-UE RRC handling, and the NG-AP
endpoint toward the AMF. All identifiers are allocated deterministically so
identical inputs produce identical command streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache

from . import wire
from .errors import (
    AlreadyBootstrappedError,
    InvalidSessionError,
    ProtocolViolationError,
    UnknownTunnelError,
    UnknownUeError,
)
from .messages import (
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
from .node import Rat
from .wire import (
    SRB0_BEARER,
    SRB1_BEARER,
    SRB2_BEARER,
    BearerKind,
    ConfigTlv,
    FlowMatch,
    FlowMod,
    FlowModCommand,
    GtpTunnel,
    LayerTlv,
    Open5GMessage,
    PortMod,
    PortModCommand,
    PortSpec,
    RadioBearer,
    SigTunnel,
)

# Flow priorities chosen so a table dump lists dedicated data entries first,
# matching the reference table's row order.
PRIO_UPLINK_DATA = 120
PRIO_DOWNLINK_FLOW = 110
PRIO_SIGNALING = 100

CRNTI_FIRST = 0x003D
CONTROLLER_IP = wire.ip_bytes("10.255.0.1")  # the controller's end of every signaling tunnel
UPF_IP = wire.ip_bytes("10.9.0.1")  # the UPF's end of every NG-U tunnel

# read once here: an enum member read through its class is a descriptor call
_CREATE, _ADD, _SRB, _DRB = PortModCommand.CREATE, FlowModCommand.ADD, BearerKind.SRB, BearerKind.DRB

# Per-RAT radio layer configuration; contents are opaque to the protocol.
_RAT_LAYERS = {
    Rat.NR: (LayerTlv.SDAP, LayerTlv.PDCP, LayerTlv.RLC, LayerTlv.MAC, LayerTlv.PHY),
    Rat.LTE: (LayerTlv.PDCP, LayerTlv.RLC, LayerTlv.MAC, LayerTlv.PHY),
    Rat.WLAN: (LayerTlv.MAC, LayerTlv.PHY),
}


@cache  # one tuple per RAT, shared by every radio port on its nodes
def default_layer_config(rat: Rat) -> tuple[ConfigTlv, ...]:
    return tuple(ConfigTlv(int(t), f"{rat.value.lower()}-{t.name.lower()}-default".encode()) for t in _RAT_LAYERS[rat])


class RrcState(Enum):
    SETUP_REQUESTED = "SETUP_REQUESTED"
    CONNECTED = "CONNECTED"
    SECURITY_MODE_SENT = "SECURITY_MODE_SENT"
    SECURED = "SECURED"
    CONFIGURED = "CONFIGURED"
    FAILED = "FAILED"


@dataclass(frozen=True)
class QosFlowSpec:
    flow_id: int
    ip_dst: bytes
    ip_proto: int
    l4_dst: int
    drb: int  # bearer id of the serving DRB


@dataclass(frozen=True)
class SessionSpec:
    session_id: int
    drbs: tuple[int, ...]
    flows: tuple[QosFlowSpec, ...]


@dataclass
class PduSessionCtx:
    session_id: int
    drbs: tuple[int, ...]
    teid: int


@dataclass
class UeContext:
    ue_tmp_id: int
    node_id: str
    crnti: int
    rrc_state: RrcState = RrcState.SETUP_REQUESTED
    srb1_sig_port: int = 0  # SRB2's uplink flow shares SRB1's tunnel port
    srb_tunnel: int = 0  # SRB1's tunnel id, which SRB2 rides too
    pdu_sessions: list[PduSessionCtx] = field(default_factory=list)


@dataclass
class TunnelInfo:
    node_id: str
    ue_tmp_id: int | None  # None for the shared SRB0 tunnel


@dataclass
class _NodeState:
    node_id: str
    rat: Rat
    ngu_ip: bytes
    next_port_id: int = 1
    next_crnti: int = CRNTI_FIRST
    next_xid: int = 1
    ue_count: int = 0
    srb0_tunnel_id: int = 0  # 0 until bootstrap_node; tunnel ids start at 1


# Controller emissions (mapped onto links by the harness)


@dataclass
class ConfigBatch:
    node_id: str
    label: str
    messages: list[Open5GMessage]

    def to_bytes(self) -> bytes:
        return b"".join(wire.encode_message(m) for m in self.messages)


@dataclass
class RrcDownlink:
    node_id: str
    tunnel_id: int
    srb_bearer: int
    ue_tmp_id: int | None  # set only for SRB0 (envelope demux)
    msg: RrcMessage

    def to_bytes(self) -> bytes:
        payload = rrc_to_bytes(self.msg)
        if self.ue_tmp_id is not None:
            payload = wire.pack_envelope(self.ue_tmp_id, payload)
        return wire.encap_sig(payload, self.tunnel_id)


@dataclass
class NgapOut:
    msg: NgapMessage


ControllerOutput = ConfigBatch | RrcDownlink | NgapOut


def _check_session(session: SessionSpec) -> None:
    for flow in session.flows:
        if flow.drb not in session.drbs:
            raise InvalidSessionError(f"flow {flow.flow_id} maps to absent DRB {flow.drb}")


class Controller:
    def __init__(self, admission_cap: int):
        self.admission_cap = admission_cap
        self.nodes: dict[str, _NodeState] = {}
        self.ue_contexts: dict[int, UeContext] = {}
        self.tunnel_info: dict[int, TunnelInfo] = {}
        self._next_tunnel_id = 1
        self._next_teid = 1
        self._next_udp_port = 2152

    # -- allocators ----------------------------------------------------------
    # _create_port and _add_flow build every Open5G command and are the only
    # writers of a node's port id and xid counters.

    def _create_port(self, node: _NodeState, spec: PortSpec) -> tuple[int, PortMod]:
        port_id = node.next_port_id
        node.next_port_id += 1
        node.next_xid += 1
        return port_id, PortMod(node.next_xid - 1, _CREATE, port_id, spec)

    def _add_flow(self, node: _NodeState, priority: int, match: FlowMatch, out_port: int) -> FlowMod:
        node.next_xid += 1
        return FlowMod(node.next_xid - 1, _ADD, priority, match, out_port)

    def _alloc_tunnel(self, node_id: str, ue_tmp_id: int | None) -> int:
        tunnel_id = self._next_tunnel_id
        self._next_tunnel_id += 1
        self.tunnel_info[tunnel_id] = TunnelInfo(node_id, ue_tmp_id)
        return tunnel_id

    # -- topology ------------------------------------------------------------

    def register_node(self, node_id: str, rat: Rat, ngu_ip: str) -> None:
        self.nodes[node_id] = _NodeState(node_id, rat, wire.ip_bytes(ngu_ip))

    # -- step 1: system startup ----------------------------------------------

    def bootstrap_node(self, node_id: str) -> list[ControllerOutput]:
        node = self.nodes[node_id]
        if node.srb0_tunnel_id:
            raise AlreadyBootstrappedError(node_id)
        # SRB0 is the SRB pair of C-RNTI 0, shared by every UE's setup request
        node.srb0_tunnel_id, _, commands = self._srb_pair(node, 0, SRB0_BEARER, None)
        return [ConfigBatch(node_id, "CreatePortsSrb0", commands)]

    # -- SRB pair helper -------------------------------------------------------

    def _srb_pair(
        self, node: _NodeState, crnti: int, bearer: int, ue_tmp_id: int | None
    ) -> tuple[int, int, list[Open5GMessage]]:
        """Signaling bearer: radio port + controller tunnel port + both flow
        entries. Returns the tunnel id, the tunnel port and the commands."""
        tunnel_id = self._alloc_tunnel(node.node_id, ue_tmp_id)
        radio_port, create_radio = self._create_port(
            node, RadioBearer(crnti, bearer, _SRB, default_layer_config(node.rat))
        )
        sig_port, create_sig = self._create_port(node, SigTunnel(CONTROLLER_IP, tunnel_id))
        return tunnel_id, sig_port, [
            create_radio,
            create_sig,
            self._add_flow(node, PRIO_SIGNALING, FlowMatch(crnti=crnti, bearer_id=bearer), sig_port),
            self._add_flow(node, PRIO_SIGNALING, FlowMatch(in_port=sig_port), radio_port),
        ]

    # -- uplink RRC: the controller's end of every signaling tunnel -------------

    def on_rrc_uplink(self, node_id: str, frame: bytes) -> list[ControllerOutput]:
        tunnel_id, payload = wire.decap_sig(frame)
        info = self.tunnel_info.get(tunnel_id)
        if info is None or info.node_id != node_id:
            raise UnknownTunnelError(f"tunnel {tunnel_id} at {node_id}")
        ue_tmp_id = info.ue_tmp_id
        if ue_tmp_id is None:  # a node's SRB0 tunnel: the envelope names the UE
            ue_tmp_id, payload = wire.unpack_envelope(payload)
        rrc = rrc_from_bytes(payload)

        if rrc.kind == RRC_SETUP_REQUEST:
            return self._on_setup_request(node_id, ue_tmp_id)

        ue = self.ue_contexts.get(ue_tmp_id)
        if ue is None:
            raise UnknownUeError(f"ue_tmp_id {ue_tmp_id}")
        if info.ue_tmp_id is None:  # TS 38.331: SRB0 carries only the setup request
            raise ProtocolViolationError(f"{rrc.kind} on SRB0")

        if rrc.kind == RRC_SETUP_COMPLETE:
            if ue.rrc_state != RrcState.SETUP_REQUESTED:
                raise ProtocolViolationError(f"{rrc.kind} in {ue.rrc_state.value}")
            ue.rrc_state = RrcState.CONNECTED
            return [
                NgapOut(
                    NgapMessage(
                        NGAP_INITIAL_UE_MESSAGE,
                        {"ue_tmp_id": ue.ue_tmp_id, "nas": rrc.fields["nas"]},
                    )
                )
            ]

        if rrc.kind == RRC_SECURITY_MODE_COMPLETE:
            if ue.rrc_state != RrcState.SECURITY_MODE_SENT:
                raise ProtocolViolationError(f"{rrc.kind} in {ue.rrc_state.value}")
            ue.rrc_state = RrcState.SECURED
            reconfig = RrcMessage(
                RRC_RECONFIGURATION,
                {"sessions": [{"session_id": s.session_id, "drbs": sorted(s.drbs)} for s in ue.pdu_sessions]},
            )
            return [
                RrcDownlink(node_id, ue.srb_tunnel, SRB1_BEARER, None, reconfig)
            ]

        if rrc.kind == RRC_RECONFIGURATION_COMPLETE:
            if ue.rrc_state != RrcState.SECURED:
                raise ProtocolViolationError(f"{rrc.kind} in {ue.rrc_state.value}")
            ue.rrc_state = RrcState.CONFIGURED
            response = NgapMessage(
                NGAP_INITIAL_CONTEXT_SETUP_RESPONSE,
                {
                    "ue_tmp_id": ue.ue_tmp_id,
                    "sessions": [s.session_id for s in ue.pdu_sessions],
                },
            )
            return [NgapOut(response)]

        raise ProtocolViolationError(f"unexpected uplink {rrc.kind}")

    def _on_setup_request(self, node_id: str, ue_tmp_id: int) -> list[ControllerOutput]:
        if ue_tmp_id in self.ue_contexts:
            raise ProtocolViolationError(f"ue_tmp_id {ue_tmp_id} already in procedure")
        node = self.nodes[node_id]
        if node.ue_count >= self.admission_cap:
            return []
        crnti = node.next_crnti
        node.next_crnti += 1
        node.ue_count += 1
        ue = UeContext(ue_tmp_id, node_id, crnti)
        self.ue_contexts[ue_tmp_id] = ue

        ue.srb_tunnel, ue.srb1_sig_port, commands = self._srb_pair(
            node, crnti, SRB1_BEARER, ue_tmp_id
        )
        setup = RrcMessage(RRC_SETUP, {"crnti": crnti, "srb1_bearer": SRB1_BEARER})
        return [
            ConfigBatch(node_id, "CreatePortsSrb1", commands),
            RrcDownlink(node_id, node.srb0_tunnel_id, SRB0_BEARER, ue_tmp_id, setup),
        ]

    # -- session configuration ---------------------------------------------------

    def build_session_config(self, ue: UeContext, session: SessionSpec) -> list[Open5GMessage]:
        """Commands realizing one PDU session at the serving node: the DRB
        ports, the NG-U port, the uplink flows, then the downlink flows."""
        _check_session(session)
        node = self.nodes[ue.node_id]
        commands: list[Open5GMessage] = []
        drb_ports: dict[int, int] = {}  # bearer_id -> radio port id
        for bearer in session.drbs:
            drb_ports[bearer], create = self._create_port(
                node, RadioBearer(ue.crnti, bearer, _DRB, default_layer_config(node.rat))
            )
            commands.append(create)

        teid = self._next_teid
        self._next_teid += 1
        udp_port = self._next_udp_port
        self._next_udp_port += 1
        ngu_port, create = self._create_port(node, GtpTunnel(node.ngu_ip, UPF_IP, udp_port, teid))
        commands.append(create)

        for bearer in session.drbs:
            commands.append(
                self._add_flow(node, PRIO_UPLINK_DATA, FlowMatch(crnti=ue.crnti, bearer_id=bearer), ngu_port)
            )
        for flow in session.flows:
            match = FlowMatch(ip_dst=flow.ip_dst, ip_proto=flow.ip_proto, l4_dst=flow.l4_dst)
            commands.append(self._add_flow(node, PRIO_DOWNLINK_FLOW, match, drb_ports[flow.drb]))

        ue.pdu_sessions.append(PduSessionCtx(session.session_id, session.drbs, teid))
        return commands

    # -- NG-AP -----------------------------------------------------------------

    def on_ngap(self, msg: NgapMessage) -> list[ControllerOutput]:
        if msg.kind != NGAP_INITIAL_CONTEXT_SETUP_REQUEST:
            raise ProtocolViolationError(f"unexpected NGAP {msg.kind}")
        ue = self.ue_contexts.get(msg.fields.get("ue_tmp_id"))
        if ue is None:
            raise UnknownUeError(f"ue_tmp_id {msg.fields.get('ue_tmp_id')}")
        if ue.rrc_state != RrcState.CONNECTED:
            raise ProtocolViolationError(f"{msg.kind} in {ue.rrc_state.value}")
        # every session is checked before any id is allocated, so a bad one
        # leaves the controller as it was
        sessions = [session_spec_from_doc(doc) for doc in msg.fields.get("sessions", [])]
        for session in sessions:
            _check_session(session)
        node = self.nodes[ue.node_id]

        # SRB2: dedicated radio port paired onto the existing SRB1 tunnel
        _, create_srb2 = self._create_port(
            node, RadioBearer(ue.crnti, SRB2_BEARER, _SRB, default_layer_config(node.rat))
        )
        commands = [
            create_srb2,
            self._add_flow(node, PRIO_SIGNALING, FlowMatch(crnti=ue.crnti, bearer_id=SRB2_BEARER), ue.srb1_sig_port),
        ]
        for session in sessions:
            commands += self.build_session_config(ue, session)

        ue.rrc_state = RrcState.SECURITY_MODE_SENT
        command = RrcMessage(RRC_SECURITY_MODE_COMMAND, {"security_info": msg.fields.get("security_info", "")})
        return [
            ConfigBatch(ue.node_id, "CreatePortsSrb2Drbs", commands),
            RrcDownlink(ue.node_id, ue.srb_tunnel, SRB1_BEARER, None, command),
        ]

    # -- node errors -------------------------------------------------------------

    def on_node_error(self, node_id: str, code: int, detail: bytes) -> None:
        """A node reported a failed command: abort in-flight procedures there."""
        for ue in self.ue_contexts.values():
            if ue.node_id == node_id and ue.rrc_state not in (
                RrcState.CONFIGURED,
                RrcState.FAILED,
            ):
                ue.rrc_state = RrcState.FAILED


# -- session spec (de)serialization helpers ------------------------------------


def session_spec_to_doc(spec: SessionSpec) -> dict:
    return {
        "session_id": spec.session_id,
        "drbs": list(spec.drbs),
        "flows": [
            {
                "flow_id": f.flow_id,
                "ip_dst": wire.ip_str(f.ip_dst),
                "ip_proto": f.ip_proto,
                "l4_dst": f.l4_dst,
                "drb": f.drb,
            }
            for f in spec.flows
        ],
    }


def session_spec_from_doc(doc: dict) -> SessionSpec:
    return SessionSpec(
        session_id=doc["session_id"],
        drbs=tuple(doc["drbs"]),
        flows=tuple(
            QosFlowSpec(
                flow_id=f["flow_id"],
                ip_dst=wire.ip_bytes(f["ip_dst"]),
                ip_proto=f["ip_proto"],
                l4_dst=f["l4_dst"],
                drb=f["drb"],
            )
            for f in doc["flows"]
        ),
    )
