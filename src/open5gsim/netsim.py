"""Deterministic discrete-event harness.

Topology = controller + data-plane nodes + UEs + AMF/UPF stubs. Every link
has a fixed one-tick delay and FIFO ordering, so a given (topology, script,
seed) always produces the same trace. Each send becomes one trace record;
an Open5G configuration batch counts as a single record.

The event queue is a calendar with one-tick buckets: tick -> the stimuli and
deliveries due then, in the order they were scheduled. The bootstrap batches
come first, then each tick's stimuli in script order, then the sends made one
tick earlier. Every send names the handler that receives it, so node, UE and
stub names never decide where a delivery goes.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import wire
from .controller import (
    ConfigBatch,
    Controller,
    NgapOut,
    RrcDownlink,
    SessionSpec,
    session_spec_to_doc,
)
from .errors import (
    BudgetExceededError,
    NotIdleError,
    ScriptError,
    UnknownUeError,
    WireDecodeError,
    quoted,
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
    ngap_from_bytes,
    ngap_to_bytes,
    rrc_from_bytes,
    rrc_to_bytes,
)
from .node import DataPlaneNode, Rat
from .trace import EventTrace, TraceRecord, fnv1a64
from .wire import GtpTunnel, PortSpec, SigTunnel

_DIGEST_CHUNK = 2048  # sends per fnv1a64 call: few calls, a bounded payload buffer

_new = tuple.__new__  # builds a NamedTuple from all its fields without its __new__

_SRB_CHANNEL = {wire.SRB0_BEARER: "SRB0", wire.SRB1_BEARER: "SRB1", wire.SRB2_BEARER: "SRB2"}


def srb_channel(bearer_id: int) -> str:
    return _SRB_CHANNEL.get(bearer_id, "RADIO_DATA")


# ---------------------------------------------------------------------------
# Topology


@dataclass(frozen=True)
class NodeSpec:
    name: str
    rat: Rat
    ngu_ip: str


@dataclass(frozen=True)
class UeSpec:
    name: str
    attach: str
    sessions: tuple[SessionSpec, ...] = ()


@dataclass(frozen=True)
class Topology:
    nodes: tuple[NodeSpec, ...]
    ues: tuple[UeSpec, ...]
    seed: int = 0


class Stimulus(NamedTuple):
    tick: int
    kind: str  # a key of STIMULI
    args: tuple


# stimulus kind -> the type of each of its arguments, the first the UE it acts
# on; `scenario` reads and writes each type, and `Simulator` checks the UE
STIMULI = {
    "ue_power_on": ("ue",),
    "send_uplink_data": ("ue", "bearer", "payload"),
    "inject_downlink_data": ("ue", "ip", "proto", "l4_port", "payload"),
}
# kind -> its arity and the position of its "ip" argument or None: what
# `Simulator` checks of a stimulus besides its tick and its UE
_SCRIPT_CHECKS = {
    kind: (len(types), types.index("ip") if "ip" in types else None) for kind, types in STIMULI.items()
}

# a trace holds times of at most 640 digits, so a tick has at most 639: a run
# then has room to go on after its last stimulus
MAX_TICK_DIGITS = 639
TICK_LIMIT = 10**MAX_TICK_DIGITS


def _tick_text(tick: int) -> str:
    """`tick` in an error text: whole up to 80 digits, as `quoted` keeps a token,
    and a longer one, which str() may refuse to convert, by its length alone."""
    return str(tick) if abs(tick) < 10**80 else "of more than 80 digits"


def _unpackable(stim: Stimulus) -> ScriptError:
    """The error of a data stimulus, built in Python, with a payload that is no
    bytes or a protocol or port that a packet header cannot hold."""
    args = stim.args
    if not isinstance(args[-1], (bytes, bytearray)):
        fault = f"a payload of type {type(args[-1]).__name__}, not bytes"
    elif not (isinstance(args[2], int) and 0 <= args[2] <= 255):
        fault = "a protocol outside 0..255"
    else:
        fault = "an l4 port outside 0..65535"
    return ScriptError(f"{stim.kind} at tick {_tick_text(stim.tick)} for {quoted(args[0])} has {fault}")


@dataclass(frozen=True)
class Settings:
    seed: int = 0
    admission_cap: int = 8
    max_events: int = 10000


# ---------------------------------------------------------------------------
# UE behavior model: the reactive responder role of the initial-access flow


class UeSim:
    def __init__(self, name: str, ue_tmp_id: int, attach: str):
        self.name = name
        self.ue_tmp_id = ue_tmp_id
        self.attach = attach
        self.state = "IDLE"
        self.crnti: int | None = None
        self.sessions: list[dict] = []
        self.received: list[tuple[int, bytes]] = []

    def power_on(self) -> list[tuple[int, RrcMessage]]:
        if self.state != "IDLE":
            raise NotIdleError(f"{self.name} is {self.state}")
        self.state = "AWAIT_SETUP"
        return [(0, RrcMessage(RRC_SETUP_REQUEST, {"ue_tmp_id": self.ue_tmp_id}))]

    def on_rrc(self, bearer_id: int, msg: RrcMessage) -> list[tuple[int, RrcMessage]]:
        if msg.kind == RRC_SETUP and self.state == "AWAIT_SETUP":
            self.crnti = msg.fields["crnti"]
            self.state = "AWAIT_SECURITY"
            nas = f"nas-registration:{self.name}".encode().hex()
            srb1 = msg.fields.get("srb1_bearer", wire.SRB1_BEARER)
            return [(srb1, RrcMessage(RRC_SETUP_COMPLETE, {"nas": nas}))]
        if msg.kind == RRC_SECURITY_MODE_COMMAND and self.state == "AWAIT_SECURITY":
            self.state = "AWAIT_RECONFIG"
            return [(bearer_id, RrcMessage(RRC_SECURITY_MODE_COMPLETE, {}))]
        if msg.kind == RRC_RECONFIGURATION and self.state == "AWAIT_RECONFIG":
            self.sessions = msg.fields.get("sessions", [])
            self.state = "CONNECTED"
            return [(bearer_id, RrcMessage(RRC_RECONFIGURATION_COMPLETE, {}))]
        return []  # unexpected downlink: ignore

    def on_data(self, bearer_id: int, packet: bytes) -> None:
        self.received.append((bearer_id, packet))


# ---------------------------------------------------------------------------
# Core stubs


class AmfStub:
    """Answers InitialUeMessage with the UE's preconfigured session specs."""

    def __init__(self, session_specs: dict[int, tuple[SessionSpec, ...]]):
        self.session_specs = session_specs
        self.context_responses: list[NgapMessage] = []

    def handle(self, msg: NgapMessage) -> NgapMessage | None:
        if msg.kind == NGAP_INITIAL_UE_MESSAGE:
            ue_tmp_id = msg.fields.get("ue_tmp_id")
            if ue_tmp_id not in self.session_specs:
                raise UnknownUeError(f"ue_tmp_id {ue_tmp_id}")
            sessions = [session_spec_to_doc(s) for s in self.session_specs[ue_tmp_id]]
            security = f"sec-{ue_tmp_id}".encode().hex()
            return NgapMessage(
                NGAP_INITIAL_CONTEXT_SETUP_REQUEST,
                {"ue_tmp_id": ue_tmp_id, "sessions": sessions, "security_info": security},
            )
        if msg.kind == NGAP_INITIAL_CONTEXT_SETUP_RESPONSE:
            self.context_responses.append(msg)
            return None
        raise ScriptError(f"AMF cannot handle {msg.kind}")


class UpfStub:
    def __init__(self):
        self.received: list[tuple[int, bytes]] = []  # uplink (teid, payload)
        self.bad_frames = 0
        # (ue_tmp_id, session_id) -> (node_id, teid)
        self.sessions: dict[tuple[int, int], tuple[str, int]] = {}
        self._lowest: dict[int, int] = {}  # ue_tmp_id -> its lowest session id

    def register_session(self, ue_tmp_id: int, session_id: int, node_id: str, teid: int) -> None:
        self.sessions[(ue_tmp_id, session_id)] = (node_id, teid)
        self._lowest[ue_tmp_id] = min(session_id, self._lowest.get(ue_tmp_id, session_id))

    def on_uplink(self, frame: bytes) -> None:
        try:
            teid, payload = wire.decap_gtpu(frame)
        except WireDecodeError:
            self.bad_frames += 1
            return
        self.received.append((teid, payload))

    def downlink(self, ue_tmp_id: int, packet: bytes) -> tuple[str, bytes]:
        """Wrap an injected pseudo-IP packet toward the UE's serving node."""
        if ue_tmp_id not in self._lowest:
            raise ScriptError(f"no configured session for ue_tmp_id {ue_tmp_id}")
        node_id, teid = self.sessions[(ue_tmp_id, self._lowest[ue_tmp_id])]
        return node_id, wire.encap_gtpu(packet, teid)


# ---------------------------------------------------------------------------
# Simulator


class _Delivery(NamedTuple):
    """One send in flight. `_send` builds each with `tuple.__new__`, all fields given."""

    src: str
    dst: str
    channel: str
    kind: str
    payload: bytes
    receive: Callable[[_Delivery], None]  # picked by the sender
    crnti: int | None = None
    bearer_id: int | None = None


class Simulator:
    def __init__(self, topology: Topology, script: list[Stimulus], settings: Settings | None = None):
        self.topology = topology
        self.script = list(script)
        self.settings = settings or Settings(seed=topology.seed)

        self.controller = Controller(admission_cap=self.settings.admission_cap)
        self.nodes: dict[str, DataPlaneNode] = {}
        for spec in topology.nodes:
            self.nodes[spec.name] = DataPlaneNode(spec.name, spec.rat)
            try:
                self.controller.register_node(spec.name, spec.rat, spec.ngu_ip)
            except ValueError:
                raise ScriptError(f"node {quoted(spec.name)} has a bad ngu_ip {quoted(spec.ngu_ip)}") from None

        self.ues: dict[str, UeSim] = {}
        self.ue_by_tmp_id: dict[int, UeSim] = {}
        # (node, C-RNTI) -> UE, filled as UEs learn their C-RNTI
        self.ue_by_crnti: dict[tuple[str, int], UeSim] = {}
        session_specs: dict[int, tuple[SessionSpec, ...]] = {}
        for i, spec in enumerate(topology.ues):
            if spec.attach not in self.nodes:
                raise ScriptError(f"ue {quoted(spec.name)} attaches to unknown node {quoted(spec.attach)}")
            ue = UeSim(spec.name, i + 1, spec.attach)
            self.ues[spec.name] = ue
            self.ue_by_tmp_id[ue.ue_tmp_id] = ue
            session_specs[ue.ue_tmp_id] = spec.sessions

        self.amf = AmfStub(session_specs)
        self.upf = UpfStub()

        # each downlink destination address, parsed once
        downlink_dst: dict[str, bytes] = {}
        self._downlink_dst = downlink_dst
        ues = self.ues
        for tick, kind, args in self.script:
            checks = _SCRIPT_CHECKS.get(kind)
            if checks is None:
                raise ScriptError(f"unknown stimulus {quoted(kind)}")
            arity, address_at = checks
            if len(args) != arity:
                raise ScriptError(f"{kind} at tick {_tick_text(tick)} wants {arity} arguments, got {len(args)}")
            if tick < 0:
                raise ScriptError(f"{kind} at negative tick {_tick_text(tick)}")
            if tick >= TICK_LIMIT:
                raise ScriptError(f"{kind} at a tick of more than {MAX_TICK_DIGITS} digits")
            if args[0] not in ues:
                raise ScriptError(f"stimulus references unknown UE {quoted(args[0])}")
            if address_at is not None and args[address_at] not in downlink_dst:
                address = args[address_at]
                try:
                    downlink_dst[address] = wire.ip_bytes(address)
                except ValueError:
                    raise ScriptError(
                        f"{kind} at tick {_tick_text(tick)} for {quoted(args[0])}"
                        f" has a bad destination {quoted(address)}"
                    ) from None

        # the trace's columns: each send's time and key, and the digests made so far
        self._times, self._keys, self._digests = [], [], []
        self._key_of: dict[tuple, tuple] = {}  # (src, dst, channel, kind) -> its one tuple
        self._payloads = bytearray()  # the payloads of the sends not yet digested
        self._ends: list[int] = []  # and their end offsets
        # node -> [(step, rendered table)] after each Open5G batch the node
        # received; no other delivery changes its ports or flows
        self.table_history: dict[str, list[tuple[int, list[str]]]] = {n: [] for n in self.nodes}
        self.deliveries = 0
        self.uplink_injected = 0
        self.downlink_injected = 0
        self._calendar: dict[int, list] = {}  # tick -> stimuli and deliveries due
        self._now = 0

    # -- plumbing -----------------------------------------------------------

    def _send(
        self,
        src: str,
        dst: str,
        channel: str,
        kind: str,
        payload: bytes,
        receive: Callable[[_Delivery], None],
        crnti: int | None = None,
        bearer_id: int | None = None,
    ) -> None:
        """Trace a send and deliver it to `receive` on the next tick."""
        now = self._now
        key = (src, dst, channel, kind)
        self._times.append(now)
        self._keys.append(self._key_of.setdefault(key, key))
        payloads, ends = self._payloads, self._ends
        payloads += payload
        ends.append(len(payloads))
        if len(ends) == _DIGEST_CHUNK:
            self._digest_pending()
        delivery = _new(_Delivery, (src, dst, channel, kind, payload, receive, crnti, bearer_id))
        self._calendar.setdefault(now + 1, []).append(delivery)

    def _digest_pending(self) -> None:
        """Digest the sends since the last call."""
        self._digests += fnv1a64(self._payloads, self._ends)
        self._payloads.clear()
        self._ends.clear()

    def _trace(self) -> EventTrace:
        """The sends digested so far, in copies of the columns."""
        n = len(self._digests)
        return EventTrace(columns=(range(1, n + 1), self._times[:n], self._keys[:n], self._digests[:]))

    @property
    def records(self) -> list[TraceRecord]:
        """The trace's records so far, built anew on each read."""
        return self._trace().records

    # -- run ------------------------------------------------------------------

    def run(self) -> EventTrace:
        calendar = self._calendar
        try:
            for spec in self.topology.nodes:
                self._emit_controller(self.controller.bootstrap_node(spec.name))
            for stim in self.script:
                calendar.setdefault(stim.tick, []).append(stim)

            max_events = self.settings.max_events
            process_stimulus, process_delivery = self._process_stimulus, self._process_delivery
            processed, now = 0, -1
            while calendar:
                now = now + 1 if now + 1 in calendar else min(calendar)
                self._now = now
                # a tick's sends go to the next tick, so its own list is complete
                for item in calendar.pop(now):
                    processed += 1
                    if processed > max_events:
                        raise BudgetExceededError(f"exceeded {max_events} events")
                    if isinstance(item, Stimulus):
                        process_stimulus(item)
                    else:
                        # deliveries arrive in send order, so this counter is the step
                        self.deliveries += 1
                        process_delivery(item)
        finally:
            # on an exception too, so that `records` holds every send made
            self._digest_pending()
        return self._trace()

    # -- stimuli ----------------------------------------------------------------

    def _process_stimulus(self, stim: Stimulus) -> None:
        ue = self.ues[stim.args[0]]
        if stim.kind == "ue_power_on":
            for bearer, msg in ue.power_on():
                self._send_ue_rrc(ue, bearer, msg)
        elif stim.kind == "send_uplink_data":
            _, bearer_id, payload = stim.args
            if not isinstance(payload, (bytes, bytearray)):
                raise _unpackable(stim)
            self.uplink_injected += 1
            crnti = ue.crnti if ue.crnti is not None else 0
            self._send(ue.name, ue.attach, "RADIO_DATA", "Data", payload, self._node_radio, crnti, bearer_id)
        else:  # inject_downlink_data
            _, ip_dst, ip_proto, l4_dst, payload = stim.args
            try:
                packet = wire.pack_ip_packet(self._downlink_dst[ip_dst], ip_proto, l4_dst, payload)
            except (struct.error, TypeError):
                raise _unpackable(stim) from None
            node_id, frame = self.upf.downlink(ue.ue_tmp_id, packet)
            self.downlink_injected += 1
            self._send("upf", node_id, "NGU", "GPDU", frame, self._node_ngu)

    def _send_ue_rrc(self, ue: UeSim, bearer: int, msg: RrcMessage) -> None:
        payload = rrc_to_bytes(msg)
        if bearer == 0:
            payload = wire.pack_envelope(ue.ue_tmp_id, payload)
            crnti = 0
        else:
            crnti = ue.crnti
        channel = srb_channel(bearer)
        self._send(ue.name, ue.attach, channel, msg.kind, payload, self._node_radio, crnti, bearer)

    # -- controller emissions -----------------------------------------------------

    def _emit_controller(self, emissions) -> None:
        for em in emissions:
            if isinstance(em, ConfigBatch):
                self._send("src", em.node_id, "OPEN5G", em.label, em.to_bytes(), self._node_config)
            elif isinstance(em, RrcDownlink):
                channel = srb_channel(em.srb_bearer)
                self._send("src", em.node_id, channel, em.msg.kind, em.to_bytes(), self._node_sig)
            elif isinstance(em, NgapOut):
                self._send("src", "amf", "NGAP", em.msg.kind, ngap_to_bytes(em.msg), self._amf_receive)

    # -- deliveries: each goes to the handler its sender named --------------------

    def _process_delivery(self, d: _Delivery) -> None:
        d.receive(d)

    def _node_config(self, d: _Delivery) -> None:
        node = self.nodes[d.dst]
        error = node.handle_open5g(d.payload)
        if error is not None:
            self._send(d.dst, "src", "OPEN5G", "Error", error, self._controller_node_error)
        # no other delivery changes a node's ports or flows
        self.table_history[d.dst].append((self.deliveries, render_flow_table(node)))

    def _node_sig(self, d: _Delivery) -> None:
        self._node_egress(d, self.nodes[d.dst].ingress_sigtunnel(d.payload))

    def _node_radio(self, d: _Delivery) -> None:
        self._node_egress(d, self.nodes[d.dst].ingress_radio(d.crnti, d.bearer_id, d.payload))

    def _node_ngu(self, d: _Delivery) -> None:
        self._node_egress(d, self.nodes[d.dst].ingress_ngu(d.payload))

    def _node_egress(self, d: _Delivery, out: tuple[PortSpec, bytes] | None) -> None:
        """Send a node's frame over the link its out-port stands for."""
        if out is None:
            return
        spec, frame = out
        node_id = d.dst
        if isinstance(spec, GtpTunnel):
            self._send(node_id, "upf", "NGU", "GPDU", frame, self._upf_receive)
        elif isinstance(spec, SigTunnel):
            # the node forwards the message unmodified
            channel = srb_channel(d.bearer_id) if d.bearer_id is not None else "SRB0"
            self._send(node_id, "src", channel, d.kind, frame, self._controller_rrc)
        else:
            resolved = self._resolve_ue(node_id, spec.crnti, frame)
            if resolved is None:
                self.nodes[node_id].drop_count += 1
                return
            ue, payload = resolved
            channel = srb_channel(spec.bearer_id)
            kind = d.kind if channel != "RADIO_DATA" else "Data"
            self._send(node_id, ue.name, channel, kind, payload, self._ue_receive, None, spec.bearer_id)

    def _resolve_ue(self, node_id: str, crnti: int, frame: bytes) -> tuple[UeSim, bytes] | None:
        """The UE on the node a radio frame is for, and the bytes it receives; on
        the common SRB0 port (C-RNTI 0) the frame's envelope names the UE."""
        if crnti != 0:
            ue = self.ue_by_crnti.get((node_id, crnti))
            return (ue, frame) if ue is not None else None
        try:
            ue_tmp_id, payload = wire.unpack_envelope(frame)
        except WireDecodeError:
            return None
        ue = self.ue_by_tmp_id.get(ue_tmp_id)
        return (ue, payload) if ue is not None and ue.attach == node_id else None

    def _controller_node_error(self, d: _Delivery) -> None:
        msg = wire.decode_message(d.payload)
        self.controller.on_node_error(d.src, msg.code, msg.detail)

    def _controller_rrc(self, d: _Delivery) -> None:
        self._emit_controller(self.controller.on_rrc_uplink(d.src, d.payload))

    def _controller_ngap(self, d: _Delivery) -> None:
        msg = ngap_from_bytes(d.payload)
        self._emit_controller(self.controller.on_ngap(msg))
        # only the UE named in the message gained sessions
        ue = self.controller.ue_contexts[msg.fields["ue_tmp_id"]]
        for session in ue.pdu_sessions:
            self.upf.register_session(ue.ue_tmp_id, session.session_id, ue.node_id, session.teid)

    def _amf_receive(self, d: _Delivery) -> None:
        reply = self.amf.handle(ngap_from_bytes(d.payload))
        if reply is not None:
            self._send("amf", "src", "NGAP", reply.kind, ngap_to_bytes(reply), self._controller_ngap)

    def _upf_receive(self, d: _Delivery) -> None:
        self.upf.on_uplink(d.payload)

    def _ue_receive(self, d: _Delivery) -> None:
        ue = self.ues[d.dst]
        if d.channel == "RADIO_DATA":
            ue.on_data(d.bearer_id, d.payload)
            return
        for reply_bearer, msg in ue.on_rrc(d.bearer_id, rrc_from_bytes(d.payload)):
            self._send_ue_rrc(ue, reply_bearer, msg)
        if ue.crnti is not None:
            # should two UEs on a node share a C-RNTI, the first-declared one wins
            key = (ue.attach, ue.crnti)
            self.ue_by_crnti[key] = min(self.ue_by_crnti.get(key, ue), ue, key=lambda u: u.ue_tmp_id)

    # -- inspection -------------------------------------------------------------

    def table_at_step(self, node_id: str, at_step: int) -> list[str]:
        """The node's flow table right after trace step `at_step`."""
        history = self.table_history[node_id]
        i = bisect_right(history, at_step, key=lambda change: change[0])
        return history[i - 1][1] if i else []


def render_flow_table(node: DataPlaneNode) -> list[str]:
    """Render (match, action) rows in priority then installation order. The
    node's table keeps its rows, so this copies them unless a change other
    than a FLOW_MOD ADD made them stale."""
    return node.table.rows(node.registry)
