"""Shared generators and oracles used across the test suite."""

from __future__ import annotations

import contextlib
import ipaddress
import json
import random
import struct
from pathlib import Path

from open5gsim import controller, messages, netsim, node, scenario, switch, trace, wire
from open5gsim.cli import EXIT_OK, EXIT_PARSE_ERROR, EXIT_SIM_ERROR, RUN_ERRORS
from open5gsim.controller import QosFlowSpec, SessionSpec
from open5gsim.errors import (
    BadGtpuFlagsError,
    BadSigFlagsError,
    BadVersionError,
    DuplicateBearerError,
    DuplicateEntryError,
    DuplicatePortError,
    InvalidMessageError,
    MalformedTlvError,
    TruncatedError,
    UnknownOutPortError,
    UnknownPortError,
    UnknownTypeError,
    quoted,
)
from open5gsim.messages import RrcMessage, rrc_to_bytes
from open5gsim.netsim import (
    NodeSpec,
    Settings,
    Simulator,
    Stimulus,
    Topology,
    UeSpec,
)
from open5gsim.node import DataPlaneNode, Rat
from open5gsim.scenario import ParseError, Scenario, load_scenario
from open5gsim.switch import FlowEntry, entry_references_port
from open5gsim.trace import _LINE, EventTrace, TraceParseError, TraceRecord
from open5gsim.wire import (
    MATCH_FIELDS,
    BearerKind,
    ConfigTlv,
    ErrorMsg,
    FlowMatch,
    FlowMod,
    FlowModCommand,
    GtpTunnel,
    Hello,
    MatchType,
    MsgType,
    PortClass,
    PortMod,
    PortModCommand,
    PortSpec,
    RadioBearer,
    SigTunnel,
)


def sig_frame(tunnel_id: int, rrc: RrcMessage, ue_tmp_id: int | None = None) -> bytes:
    """The signaling-tunnel frame a node delivers to the controller for an
    uplink RRC message; on a node's SRB0 tunnel the envelope names the UE."""
    payload = rrc_to_bytes(rrc)
    if ue_tmp_id is not None:
        payload = wire.pack_envelope(ue_tmp_id, payload)
    return wire.encap_sig(payload, tunnel_id)


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def reference_fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a one byte at a time: the oracle for `trace.fnv1a64`."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def reference_to_text(records: list[TraceRecord]) -> str:
    """The trace writer one f-string per record: the oracle for `EventTrace.to_text`."""
    return "".join(
        f"{r.step_no} {r.time} {r.src} {r.dst} {r.channel} {r.kind} {r.digest:016x}\n" for r in records
    )


def reference_from_text(text: str) -> list[TraceRecord]:
    """The trace reader one match and one record call per line, counting the
    lines of the whole text: the oracle for `EventTrace.from_text`."""
    records = [
        TraceRecord(int(step_no), int(time), src, dst, channel, kind, int(digest, 16))
        for step_no, time, src, dst, channel, kind, digest in (m.groups() for m in _LINE.finditer(text))
    ]
    lines = text.count("\n") + (text[-1:] not in ("", "\n"))  # a last line may lack its newline
    if len(records) != lines:
        for lineno, line in enumerate(text.split("\n"), start=1):  # find the line that is no record
            try:
                TraceRecord.from_line(line)
            except TraceParseError as exc:
                raise TraceParseError(f"line {lineno}: {exc}") from None
    return records


def trace_of(records: list[TraceRecord]) -> EventTrace:
    """The trace of `records`: its four columns, built from them."""
    return EventTrace(
        [r.step_no for r in records],
        [r.time for r in records],
        [(r.src, r.dst, r.channel, r.kind) for r in records],
        [r.digest for r in records],
    )


def random_ip(rng: random.Random) -> bytes:
    return bytes(rng.randrange(256) for _ in range(4))


def random_port_spec(rng: random.Random):
    variant = rng.randrange(4)
    if variant == 0:  # common SRB0 port
        tlvs = random_tlvs(rng)
        return RadioBearer(0, 0, BearerKind.SRB, tlvs)
    if variant == 1:  # dedicated bearer
        if rng.random() < 0.5:
            kind, bearer = BearerKind.SRB, rng.choice([0, 3, 4])
        else:
            kind, bearer = BearerKind.DRB, rng.randrange(32)
        return RadioBearer(rng.randint(1, 65523), bearer, kind, random_tlvs(rng))
    if variant == 2:
        return GtpTunnel(random_ip(rng), random_ip(rng), rng.randrange(1 << 16), rng.randrange(1 << 32))
    return SigTunnel(random_ip(rng), rng.randrange(1 << 32))


def random_tlvs(rng: random.Random) -> tuple[ConfigTlv, ...]:
    return tuple(
        ConfigTlv(rng.randrange(1 << 16), rng.randbytes(rng.randrange(9)))
        for _ in range(rng.randrange(4))
    )


def random_match(rng: random.Random) -> FlowMatch:
    fields = {}
    while not fields:
        if rng.random() < 0.5:
            fields["crnti"] = rng.randrange(65524)
            fields["bearer_id"] = rng.randrange(256)
        if rng.random() < 0.3:
            fields["in_port"] = rng.randrange(1 << 32)
        if rng.random() < 0.3:
            fields["ip_dst"] = random_ip(rng)
        if rng.random() < 0.3:
            fields["ip_proto"] = rng.randrange(256)
        if rng.random() < 0.3:
            fields["l4_dst"] = rng.randrange(1 << 16)
    return FlowMatch(**fields)


def random_message(rng: random.Random, force_type: int | None = None):
    """One random valid Open5G message; covers every type and spec variant."""
    xid = rng.randrange(1 << 32)
    choice = force_type if force_type is not None else rng.randrange(4)
    if choice == 0:
        return Hello(xid)
    if choice == 1:
        return ErrorMsg(xid, rng.randrange(1 << 16), rng.randbytes(rng.randrange(16)))
    if choice == 2:
        command = rng.choice([PortModCommand.CREATE, PortModCommand.MODIFY, PortModCommand.DELETE])
        spec = None if command == PortModCommand.DELETE else random_port_spec(rng)
        return PortMod(xid, command, rng.randrange(1 << 32), spec)
    command = rng.choice([FlowModCommand.ADD, FlowModCommand.DELETE])
    return FlowMod(xid, command, rng.randrange(1 << 16), random_match(rng), rng.randrange(1 << 32))


def match_context(match: FlowMatch, ctx: FlowMatch) -> bool:
    """True iff every populated match field equals the context field."""
    for name in ("in_port", "crnti", "bearer_id", "ip_dst", "ip_proto", "l4_dst"):
        want = getattr(match, name)
        if want is not None and getattr(ctx, name) != want:
            return False
    return True


def oracle_match(entries: list[FlowEntry], ctx) -> int | None:
    """Naive linear scan with the documented tie-break: highest priority,
    then earliest entry_id. Independent of FlowTable.match."""
    best = None
    for entry in entries:
        if not match_context(entry.match, ctx):
            continue
        if best is None or (entry.priority, -entry.entry_id) > (best.priority, -best.entry_id):
            best = entry
    return best.out_port if best else None


# Small domains so random tables and contexts actually collide
_CRNTIS = [1, 2, 61]
_BEARERS = [0, 1, 2, 3]
_PORTS = [1, 2, 3, 4, 5]
_IPS = [bytes([10, 0, 1, 1]), bytes([10, 0, 1, 2])]
_PROTOS = [6, 17]
_L4S = [23, 34, 43]


def random_collision_match(rng: random.Random) -> FlowMatch:
    fields = {}
    while not fields:
        if rng.random() < 0.5:
            fields["crnti"] = rng.choice(_CRNTIS)
            fields["bearer_id"] = rng.choice(_BEARERS)
        if rng.random() < 0.3:
            fields["in_port"] = rng.choice(_PORTS)
        if rng.random() < 0.4:
            fields["ip_dst"] = rng.choice(_IPS)
        if rng.random() < 0.4:
            fields["ip_proto"] = rng.choice(_PROTOS)
        if rng.random() < 0.4:
            fields["l4_dst"] = rng.choice(_L4S)
    return FlowMatch(**fields)


def random_entries(rng: random.Random, count: int) -> list[FlowEntry]:
    return [
        FlowEntry(
            entry_id=i + 1,
            priority=rng.choice([100, 110, 120]),
            match=random_collision_match(rng),
            out_port=rng.choice(_PORTS),
        )
        for i in range(count)
    ]


def random_context(rng: random.Random) -> FlowMatch:
    return FlowMatch(
        in_port=rng.choice(_PORTS + [None]),
        crnti=rng.choice(_CRNTIS + [None, 9]),
        bearer_id=rng.choice(_BEARERS + [None, 9]),
        ip_dst=rng.choice(_IPS + [None]),
        ip_proto=rng.choice(_PROTOS + [None]),
        l4_dst=rng.choice(_L4S + [None]),
    )


class EveryDeliveryTables(Simulator):
    """Oracle for `Simulator.table_at_step`: renders every node's table after
    every delivery, whatever its channel, and looks tables up by step."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.snapshots: list[dict[str, list[str]]] = []  # index = step - 1

    def _process_delivery(self, d) -> None:
        super()._process_delivery(d)
        self.snapshots.append({name: reference_render_flow_table(n) for name, n in self.nodes.items()})

    def oracle_table(self, node_id: str, at_step: int) -> list[str]:
        if at_step < 1 or not self.snapshots:
            return []
        return self.snapshots[min(at_step, len(self.snapshots)) - 1][node_id]


def bundled_scenario(name: str) -> tuple[Topology, list[Stimulus], Settings]:
    """The topology, script and settings of `scenarios/<name>.scn`."""
    scenario = load_scenario(str(Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.scn"))
    return scenario.topology, list(scenario.script), scenario.settings


def generated_scenario(ues: int = 50) -> tuple[Topology, list[Stimulus], Settings]:
    """`ues` UEs round-robin over four nodes (NR, NR, LTE, WLAN), one attach
    per tick. Each has one session with two DRBs and two downlink flows, then
    sends two uplink and receives two downlink packets; one of each matches no
    flow entry and is dropped."""
    rats = (Rat.NR, Rat.NR, Rat.LTE, Rat.WLAN)
    nodes = tuple(NodeSpec(f"node{k + 1}", rat, f"10.0.0.{k + 1}") for k, rat in enumerate(rats))
    specs = []
    script = []
    data_tick = ues + 32  # an attach takes 17 ticks
    for i in range(ues):
        ip = wire.ip_bytes(f"10.1.{i}.1")
        flows = (QosFlowSpec(1, ip, 6, 80, drb=1), QosFlowSpec(2, ip, 17, 53, drb=2))
        name = f"ue{i + 1}"
        specs.append(UeSpec(name, nodes[i % len(nodes)].name, (SessionSpec(1, (1, 2), flows),)))
        script.append(Stimulus(i, "ue_power_on", (name,)))
        for bearer in (1, 7):  # bearer 7 has no flow entry
            script.append(Stimulus(data_tick + i, "send_uplink_data", (name, bearer, b"up")))
        for l4_dst in (80, 81):  # 81 has no flow entry
            stim = (name, f"10.1.{i}.1", 6, l4_dst, b"down")
            script.append(Stimulus(data_tick + i, "inject_downlink_data", stim))
    settings = Settings(admission_cap=-(-ues // len(nodes)), max_events=100 * ues)
    return Topology(nodes, tuple(specs)), script, settings


# -- linear-scan reference data plane ------------------------------------------
# A port registry and a flow table in which every lookup and check scans all
# ports or entries. The differential test in test_switch.py holds the indexed
# switch.PortRegistry and switch.FlowTable to them.


class ScanPortRegistry:
    def __init__(self):
        self.ports: dict[int, PortSpec] = {}

    def __len__(self) -> int:
        return len(self.ports)

    def __contains__(self, port_id: int) -> bool:
        return port_id in self.ports

    def get(self, port_id: int) -> PortSpec | None:
        return self.ports.get(port_id)

    def radio_port(self, crnti: int, bearer_id: int) -> int | None:
        for port_id, spec in self.ports.items():
            if isinstance(spec, RadioBearer) and spec.crnti == crnti and spec.bearer_id == bearer_id:
                return port_id
        return None

    def gtp_port(self, teid: int) -> int | None:
        for port_id, spec in self.ports.items():
            if isinstance(spec, GtpTunnel) and spec.teid == teid:
                return port_id
        return None

    def sig_port(self, tunnel_id: int) -> int | None:
        for port_id, spec in self.ports.items():
            if isinstance(spec, SigTunnel) and spec.tunnel_id == tunnel_id:
                return port_id
        return None

    def _check_uniqueness(self, port_id: int, spec: PortSpec) -> None:
        for other_id, other in self.ports.items():
            if other_id == port_id:
                continue
            if isinstance(spec, RadioBearer) and isinstance(other, RadioBearer):
                if (spec.crnti, spec.bearer_id) == (other.crnti, other.bearer_id):
                    raise DuplicateBearerError(
                        f"crnti {spec.crnti} bearer {spec.bearer_id} already on port {other_id}"
                    )
            elif isinstance(spec, GtpTunnel) and isinstance(other, GtpTunnel):
                if (spec.udp_port, spec.teid) == (other.udp_port, other.teid):
                    raise DuplicatePortError(
                        f"gtp tunnel (port {spec.udp_port}, teid {spec.teid}) already exists"
                    )
            elif isinstance(spec, SigTunnel) and isinstance(other, SigTunnel):
                if spec.tunnel_id == other.tunnel_id:
                    raise DuplicatePortError(f"sig tunnel {spec.tunnel_id} already exists")

    def apply_port_mod(self, msg: PortMod) -> PortSpec:
        """Apply one PORT_MOD; returns the port's spec (DELETE: the removed one)."""
        if msg.command == PortModCommand.CREATE:
            if msg.port_id in self.ports:
                raise DuplicatePortError(f"port {msg.port_id} already exists")
            self._check_uniqueness(msg.port_id, msg.port_spec)
            self.ports[msg.port_id] = msg.port_spec
            return msg.port_spec
        if msg.command == PortModCommand.MODIFY:
            if msg.port_id not in self.ports:
                raise UnknownPortError(f"port {msg.port_id}")
            self._check_uniqueness(msg.port_id, msg.port_spec)
            self.ports[msg.port_id] = msg.port_spec
            return msg.port_spec
        spec = self.ports.pop(msg.port_id, None)
        if spec is None:
            raise UnknownPortError(f"port {msg.port_id}")
        return spec


class ScanFlowTable:
    def __init__(self):
        self._next_entry_id = 1
        self.entries: list[FlowEntry] = []

    @property
    def entries(self) -> list[FlowEntry]:
        """In the order they were given or added, not display order."""
        return self._entries

    @entries.setter
    def entries(self, entries: list[FlowEntry]) -> None:
        self._entries = list(entries)
        # an ADD gets an id above every id the table holds or held
        for entry in self._entries:
            self._next_entry_id = max(self._next_entry_id, entry.entry_id + 1)

    def __len__(self) -> int:
        return len(self.entries)

    def apply_flow_mod(self, msg: FlowMod, registry) -> None:
        if msg.command == FlowModCommand.ADD:
            if msg.out_port not in registry:
                raise UnknownOutPortError(f"out_port {msg.out_port}")
            for entry in self.entries:
                if entry.priority == msg.priority and entry.match == msg.match:
                    raise DuplicateEntryError(
                        f"entry (priority {msg.priority}, {msg.match}) already present"
                    )
            self.entries.append(
                FlowEntry(self._next_entry_id, msg.priority, msg.match, msg.out_port)
            )
            self._next_entry_id += 1
        else:
            # exact-match delete: drop every entry whose match equals exactly
            self.entries = [e for e in self.entries if e.match != msg.match]

    def drop_port_references(self, port_id: int, spec: PortSpec) -> int:
        """Cascade after a port DELETE; returns the number of entries removed."""
        before = len(self.entries)
        self.entries = [e for e in self.entries if not entry_references_port(e, port_id, spec)]
        return before - len(self.entries)

    def match(self, ctx: FlowMatch) -> int | None:
        """Highest priority wins; earliest installed, the lowest entry_id, wins among equals."""
        best: FlowEntry | None = None
        for entry in self.entries:
            if not match_context(entry.match, ctx):
                continue
            if best is None or (entry.priority, -entry.entry_id) > (best.priority, -best.entry_id):
                best = entry
        return best.out_port if best else None

    def ordered_entries(self) -> list[FlowEntry]:
        """Entries in display order: priority descending, then installation order."""
        return sorted(self.entries, key=lambda e: (-e.priority, e.entry_id))


# -- reference table renderer ---------------------------------------------------
# Renders every row of the table on every call, with no row cache. The
# differential test in test_netsim.py holds netsim.render_flow_table to it.


def reference_render_flow_table(node: DataPlaneNode) -> list[str]:
    """Render (match, action) rows in priority then installation order."""
    return reference_render_rows(node.table.entries, node.registry)


def reference_render_rows(entries: list[FlowEntry], registry) -> list[str]:
    """The rows of `entries`, whose out-ports `registry.get` answers, in priority
    then installation order."""
    rows = []
    for entry in sorted(entries, key=lambda e: (-e.priority, e.entry_id)):
        rows.append(f"{entry.priority} [{_match_str(entry)}] -> [{_action_str(entry, registry)}]")
    return rows


def _match_str(entry) -> str:
    m = entry.match
    parts = []
    if m.in_port is not None:
        parts.append(f"in_port={m.in_port}")
    if m.crnti is not None:
        parts.append(f"crnti={m.crnti}")
    if m.bearer_id is not None:
        parts.append(f"bearer={m.bearer_id}")
    if m.ip_dst is not None:
        parts.append(f"ip_dst={wire.ip_str(m.ip_dst)}")
    if m.ip_proto is not None:
        parts.append(f"proto={m.ip_proto}")
    if m.l4_dst is not None:
        parts.append(f"l4_dst={m.l4_dst}")
    return ",".join(parts)


def _action_str(entry, registry) -> str:
    spec = registry.get(entry.out_port)
    if spec is None:
        return f"output port={entry.out_port}"
    if isinstance(spec, RadioBearer):
        return f"output radio(crnti={spec.crnti},bearer={spec.bearer_id})"
    if isinstance(spec, GtpTunnel):
        return f"output gtp(udp={spec.udp_port},teid={spec.teid})"
    if isinstance(spec, SigTunnel):
        return f"output sig(tunnel={spec.tunnel_id})"
    return f"output port={entry.out_port}"


# -- reference Open5G codec -------------------------------------------------------
# The message codec as it was before `wire` moved to precompiled structs: a
# reader object that slices the body, a `_check`/`_u` call per validated field
# and Enum calls for decoded values. The differential properties in
# test_wire.py hold wire.encode_message and wire.decode_message to it, down to
# the exception class and its text.


def _ref_check(cond: bool, why: str) -> None:
    if not cond:
        raise InvalidMessageError(why)


def _ref_u(value: int, bits: int, name: str) -> None:
    if not (isinstance(value, int) and 0 <= value < (1 << bits)):
        raise InvalidMessageError(f"{name} out of range")


def reference_validate_port_spec(spec: PortSpec) -> None:
    if isinstance(spec, RadioBearer):
        _ref_u(spec.crnti, 16, "crnti")
        _ref_check(spec.crnti <= wire.CRNTI_MAX, "crnti above reserved range")
        _ref_u(spec.bearer_id, 8, "bearer_id")
        _ref_check(spec.bearer_id <= 31, "bearer_id above 31")
        _ref_check(spec.bearer_kind in (BearerKind.SRB, BearerKind.DRB), "bad bearer_kind")
        if spec.bearer_kind == BearerKind.SRB:
            _ref_check(spec.bearer_id in wire.SRB_BEARER_IDS, "SRB bearer_id not in {0,3,4}")
        if not (spec.bearer_kind == BearerKind.SRB and spec.bearer_id == 0):
            _ref_check(spec.crnti != 0, "crnti zero on dedicated bearer")
        for tlv in spec.layer_config:
            _ref_u(tlv.tlv_type, 16, "tlv_type")
            _ref_check(len(tlv.value) <= 0xFFFF, "tlv value too long")
    elif isinstance(spec, GtpTunnel):
        _ref_check(len(spec.local_ip) == 4 and len(spec.remote_ip) == 4, "bad ip length")
        _ref_u(spec.udp_port, 16, "udp_port")
        _ref_u(spec.teid, 32, "teid")
    elif isinstance(spec, SigTunnel):
        _ref_check(len(spec.controller_ip) == 4, "bad ip length")
        _ref_u(spec.tunnel_id, 32, "tunnel_id")
    else:
        raise InvalidMessageError("unknown port spec variant")


# MatchType -> (its field, the byte width of its TLV value)
_REF_MATCH_BY_TYPE = {f.mtype: (f, struct.calcsize(f.fmt)) for f in MATCH_FIELDS}


def populated(match: FlowMatch) -> list[tuple[MatchType, object]]:
    """The fields of a match that are set, with their values, in TLV-type order."""
    return [(f.mtype, value) for f in MATCH_FIELDS if (value := getattr(match, f.name)) is not None]


def reference_validate_match(match: FlowMatch) -> None:
    _ref_check(isinstance(match, FlowMatch), "match is not a FlowMatch")
    fields = populated(match)
    _ref_check(len(fields) >= 1, "empty match")
    _ref_check(
        (match.crnti is None) == (match.bearer_id is None),
        "crnti and bearer_id must appear together",
    )
    for mtype, value in fields:
        field, width = _REF_MATCH_BY_TYPE[mtype]
        if field.fmt[-1] == "s":
            _ref_check(len(value) == width, f"bad {field.name} length")
        else:
            _ref_u(value, 8 * width, field.name)
        if mtype == MatchType.CRNTI:
            _ref_check(value <= wire.CRNTI_MAX, "crnti above reserved range")


def reference_validate_message(msg) -> None:
    if isinstance(msg, Hello):
        _ref_u(msg.xid, 32, "xid")
    elif isinstance(msg, ErrorMsg):
        _ref_u(msg.xid, 32, "xid")
        _ref_u(msg.code, 16, "code")
        _ref_check(len(msg.detail) <= 0xFFFF, "detail too long")
    elif isinstance(msg, PortMod):
        _ref_u(msg.xid, 32, "xid")
        _ref_check(msg.command in PortModCommand.__members__.values(), "bad command")
        _ref_u(msg.port_id, 32, "port_id")
        if msg.command == PortModCommand.DELETE:
            _ref_check(msg.port_spec is None, "DELETE carries no port spec")
        else:
            _ref_check(msg.port_spec is not None, "missing port spec")
            reference_validate_port_spec(msg.port_spec)
    elif isinstance(msg, FlowMod):
        _ref_u(msg.xid, 32, "xid")
        _ref_check(msg.command in FlowModCommand.__members__.values(), "bad command")
        _ref_u(msg.priority, 16, "priority")
        reference_validate_match(msg.match)
        _ref_u(msg.out_port, 32, "out_port")
    else:
        raise InvalidMessageError("unknown message class")


def _ref_encode_port_spec(spec: PortSpec) -> tuple[int, bytes]:
    if isinstance(spec, RadioBearer):
        tlvs = b"".join(struct.pack(">HH", t.tlv_type, len(t.value)) + t.value for t in spec.layer_config)
        return PortClass.RADIO, struct.pack(">HBB", spec.crnti, spec.bearer_id, int(spec.bearer_kind)) + tlvs
    if isinstance(spec, GtpTunnel):
        return PortClass.GTP, struct.pack(">4s4sHI", spec.local_ip, spec.remote_ip, spec.udp_port, spec.teid)
    return PortClass.SIG, struct.pack(">4sI", spec.controller_ip, spec.tunnel_id)


def _ref_encode_body(msg) -> tuple[MsgType, bytes]:
    if isinstance(msg, Hello):
        return MsgType.HELLO, b""
    if isinstance(msg, ErrorMsg):
        return MsgType.ERROR, struct.pack(">HH", msg.code, len(msg.detail)) + msg.detail
    if isinstance(msg, PortMod):
        if msg.command == PortModCommand.DELETE:
            port_class, spec_bytes = 0, b""
        else:
            port_class, spec_bytes = _ref_encode_port_spec(msg.port_spec)
        return MsgType.PORT_MOD, struct.pack(">BBI", int(msg.command), port_class, msg.port_id) + spec_bytes
    fields = populated(msg.match)
    parts = [struct.pack(">BHB", int(msg.command), msg.priority, len(fields))]
    for mtype, value in fields:
        field, width = _REF_MATCH_BY_TYPE[mtype]
        parts.append(struct.pack(">HH", int(mtype), width) + struct.pack(field.fmt, value))
    parts.append(struct.pack(">BI", 1, msg.out_port))
    return MsgType.FLOW_MOD, b"".join(parts)


def reference_encode_message(msg) -> bytes:
    reference_validate_message(msg)
    msg_type, body = _ref_encode_body(msg)
    total = wire.HEADER_LEN + len(body)
    _ref_check(total <= 0xFFFF, "message too long")
    return struct.pack(">BBHI", wire.VERSION, int(msg_type), total, msg.xid) + body


class _RefReader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedError(f"need {n} bytes at offset {self.pos}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def expect_end(self) -> None:
        if self.remaining():
            raise MalformedTlvError(f"{self.remaining()} trailing bytes in body")


def _ref_decode_port_spec(port_class: int, r: _RefReader) -> PortSpec:
    if port_class == PortClass.RADIO:
        crnti, bearer_id, kind = r.unpack(">HBB")
        if kind not in (0, 1):
            raise MalformedTlvError("bad bearer_kind")
        tlvs = []
        while r.remaining():
            tlv_type, tlv_len = r.unpack(">HH")
            tlvs.append(ConfigTlv(tlv_type, r.take(tlv_len)))
        return RadioBearer(crnti, bearer_id, BearerKind(kind), tuple(tlvs))
    if port_class == PortClass.GTP:
        return GtpTunnel(*r.unpack(">4s4sHI"))
    if port_class == PortClass.SIG:
        return SigTunnel(*r.unpack(">4sI"))
    raise MalformedTlvError(f"unknown port class {port_class}")


def _ref_decode_match_tlvs(count: int, r: _RefReader) -> FlowMatch:
    fields: dict[str, object] = {}
    for _ in range(count):
        mtype, mlen = r.unpack(">HH")
        raw = r.take(mlen)
        if mtype not in _REF_MATCH_BY_TYPE:
            raise MalformedTlvError(f"unknown match type {mtype}")
        field, width = _REF_MATCH_BY_TYPE[mtype]
        if mlen != width:
            raise MalformedTlvError(f"match {field.mtype.name} has length {mlen}, want {width}")
        if field.name in fields:
            raise MalformedTlvError(f"duplicate match field {field.mtype.name}")
        fields[field.name] = struct.unpack(field.fmt, raw)[0]
    return FlowMatch(**fields)


def reference_decode_message(data: bytes):
    if len(data) < wire.HEADER_LEN:
        raise TruncatedError(f"{len(data)} bytes, header needs {wire.HEADER_LEN}")
    version, msg_type, length, xid = struct.unpack(">BBHI", data[: wire.HEADER_LEN])
    if version != wire.VERSION:
        raise BadVersionError(f"version {version:#04x}")
    if length < wire.HEADER_LEN:
        raise MalformedTlvError(f"length field {length} below header size")
    if len(data) < length:
        raise TruncatedError(f"{len(data)} bytes, length field says {length}")
    if len(data) > length:
        raise MalformedTlvError(f"{len(data) - length} bytes beyond declared length")
    r = _RefReader(data[wire.HEADER_LEN : length])

    if msg_type == MsgType.HELLO:
        r.expect_end()
        return Hello(xid)
    if msg_type == MsgType.ERROR:
        code, detail_len = r.unpack(">HH")
        detail = r.take(detail_len)
        r.expect_end()
        return ErrorMsg(xid, code, detail)
    if msg_type == MsgType.PORT_MOD:
        command, port_class, port_id = r.unpack(">BBI")
        if command not in (0, 1, 2):
            raise MalformedTlvError(f"bad port_mod command {command}")
        command = PortModCommand(command)
        if command == PortModCommand.DELETE:
            r.expect_end()
            msg = PortMod(xid, command, port_id, None)
        else:
            spec = _ref_decode_port_spec(port_class, r)
            r.expect_end()
            msg = PortMod(xid, command, port_id, spec)
    elif msg_type == MsgType.FLOW_MOD:
        command, priority, count = r.unpack(">BHB")
        if command not in (0, 1):
            raise MalformedTlvError(f"bad flow_mod command {command}")
        match = _ref_decode_match_tlvs(count, r)
        kind, out_port = r.unpack(">BI")
        if kind != 1:
            raise MalformedTlvError(f"unknown action kind {kind}")
        r.expect_end()
        msg = FlowMod(xid, FlowModCommand(command), priority, match, out_port)
    else:
        raise UnknownTypeError(f"message type {msg_type}")

    try:
        reference_validate_message(msg)
    except InvalidMessageError as exc:
        raise MalformedTlvError(str(exc)) from None
    return msg


def reference_iter_messages(data: bytes):
    """Split a concatenation of frames as `wire.iter_messages` splits it, and
    decode each frame with `reference_decode_message`."""
    pos = 0
    while pos < len(data):
        if pos + wire.HEADER_LEN > len(data):
            raise TruncatedError("partial header in frame sequence")
        (length,) = struct.unpack(">H", data[pos + 2 : pos + 4])
        if length < wire.HEADER_LEN:
            raise MalformedTlvError(f"length field {length} below header size")
        yield reference_decode_message(data[pos : pos + length])
        pos += length


# -- reference data-path header decoders -------------------------------------------
# The GTP-U, signaling, envelope and IP-header decoders as they were before
# `wire` read them with precompiled structs: each slices its header and calls
# `struct.unpack`. The differential property in test_wire.py holds the wire
# decoders to them, down to the exception class and its text.


def reference_decap_gtpu(frame: bytes) -> tuple[int, bytes]:
    if len(frame) < wire.GTPU_HEADER_LEN:
        raise TruncatedError(f"GTP-U frame of {len(frame)} bytes")
    flags, msg_type, length, teid = struct.unpack(">BBHI", frame[: wire.GTPU_HEADER_LEN])
    if flags != wire.GTPU_FLAGS or msg_type != wire.GTPU_GPDU:
        raise BadGtpuFlagsError(f"flags {flags:#04x} type {msg_type:#04x}")
    payload = frame[wire.GTPU_HEADER_LEN :]
    if len(payload) != length:
        raise TruncatedError(f"GTP-U length field {length}, payload {len(payload)}")
    return teid, payload


def reference_decap_sig(frame: bytes) -> tuple[int, bytes]:
    if len(frame) < wire.SIG_HEADER_LEN:
        raise TruncatedError(f"signaling frame of {len(frame)} bytes")
    flags, protocol, key = struct.unpack(">HHI", frame[: wire.SIG_HEADER_LEN])
    if flags != wire.SIG_FLAGS or protocol != wire.SIG_PROTOCOL:
        raise BadSigFlagsError(f"flags {flags:#06x} protocol {protocol:#06x}")
    return key, frame[wire.SIG_HEADER_LEN :]


def reference_unpack_envelope(data: bytes) -> tuple[int, bytes]:
    if len(data) < wire.ENVELOPE_LEN:
        raise TruncatedError(f"envelope of {len(data)} bytes")
    ue_tmp_id, msg_len = struct.unpack(">IH", data[: wire.ENVELOPE_LEN])
    msg = data[wire.ENVELOPE_LEN :]
    if len(msg) != msg_len:
        raise TruncatedError(f"envelope length field {msg_len}, payload {len(msg)}")
    return ue_tmp_id, msg


def reference_unpack_ip_packet(data: bytes) -> tuple[bytes, int, int, bytes]:
    if len(data) < wire.IP_HEADER_LEN:
        raise TruncatedError(f"ip packet of {len(data)} bytes")
    ip_dst, ip_proto, l4_dst, length = struct.unpack(">4sBHH", data[: wire.IP_HEADER_LEN])
    payload = data[wire.IP_HEADER_LEN :]
    if len(payload) != length:
        raise TruncatedError(f"ip length field {length}, payload {len(payload)}")
    return ip_dst, ip_proto, l4_dst, payload


# -- reference RRC/NG-AP codec ---------------------------------------------------
# The JSON codec as it was before the templates and the scanner: every document
# goes through the JSON encoder, and every decode through `json.loads`. The
# properties in test_messages.py hold `messages` to it.

_REF_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def reference_canonical(kind: str, fields: dict) -> bytes:
    return _REF_ENCODER.encode({"kind": kind, "fields": fields}).encode()


def reference_decode(data: bytes) -> tuple[str, dict]:
    try:
        doc = json.loads(data.decode())
    except (ValueError, RecursionError) as exc:
        raise InvalidMessageError(f"undecodable message: {type(exc).__name__}") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("kind"), str) and isinstance(doc.get("fields"), dict)):
        raise InvalidMessageError("message is not an object with a string kind and object fields")
    return doc["kind"], doc["fields"]


# -- reference scenario parser -------------------------------------------------
# The scenario parser as it was before script lines were converted in one pass:
# every line goes through the token helpers, every address through `ipaddress`.
# Its changes since: each error quotes a token through `quoted`, and a tick of
# more than 639 digits, which a trace could not hold, is an error. It keeps its
# own keys and arities, so that the tables `parse_scenario` reads are checked
# against it. The differential properties in test_scenario_cli.py hold
# `parse_scenario` to it.

_REF_PROTO_NAMES = {"tcp": 6, "udp": 17, "icmp": 1}
_REF_STIMULI_ARITY = {"ue_power_on": 1, "send_uplink_data": 3, "inject_downlink_data": 5}
_REF_SECTION_KEYS = {
    "settings": {"seed", "admission_cap", "max_events"},
    "node": {"name", "rat", "ngu_ip"},
    "ue": {"name", "attach"},
    "session": {"ue", "id", "drbs", "flow"},
}


def _ref_parse_proto(token: str, lineno: int) -> int:
    if token in _REF_PROTO_NAMES:
        return _REF_PROTO_NAMES[token]
    try:
        proto = int(token)
    except ValueError:
        raise ParseError(lineno, f"unknown protocol {quoted(token)}") from None
    return _ref_check_range(token, proto, 0, 255, lineno, "protocol")


def _ref_parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"bad {what} {quoted(token)}") from None


def _ref_check_range(token: str, value: int, lo: int, hi: int, lineno: int, what: str) -> int:
    if not lo <= value <= hi:
        raise ParseError(lineno, f"{what} {quoted(token)} out of range {lo}..{hi}")
    return value


def _ref_parse_drb(token: str, lineno: int) -> int:
    drb = _ref_parse_int(token, lineno, "drb")
    if drb in wire.SRB_BEARER_IDS:
        raise ParseError(lineno, f"drb {drb} is an SRB bearer id (0, 3 or 4)")
    return _ref_check_range(token, drb, 0, 31, lineno, "drb")


def _ref_parse_l4_port(token: str, lineno: int) -> int:
    return _ref_check_range(token, _ref_parse_int(token, lineno, "l4 port"), 0, 65535, lineno, "l4 port")


def _ref_parse_ip(token: str, lineno: int) -> str:
    try:
        ipaddress.IPv4Address(token)
    except ipaddress.AddressValueError:
        raise ParseError(lineno, f"bad IPv4 address {quoted(token)}") from None
    return token


def _ref_parse_hex(token: str, lineno: int) -> bytes:
    try:
        return bytes.fromhex(token)
    except ValueError:
        raise ParseError(lineno, f"bad hex payload {quoted(token)}") from None


def _ref_unique_pairs(pairs, repeatable: set[str] = frozenset()) -> dict[str, tuple[int, str]]:
    kv: dict[str, tuple[int, str]] = {}
    for lineno, key, value in pairs:
        if key in repeatable:
            continue
        if key in kv:
            raise ParseError(lineno, f"duplicate key {quoted(key)}")
        kv[key] = (lineno, value)
    return kv


def _ref_require(got: set[str], want: set[str], lineno: int, what: str) -> None:
    missing = want - got
    if missing:
        raise ParseError(lineno, f"{what} section missing keys: {', '.join(sorted(missing))}")


class _RefSectionAccumulator:
    def __init__(self):
        self.nodes: list[NodeSpec] = []
        self.ues: list[tuple[UeSpec, int]] = []
        self.sessions: list[tuple[str, int, SessionSpec]] = []
        self.session_ids: set[tuple[str, int]] = set()
        self.drbs: set[tuple[str, int]] = set()
        self.names: set[tuple[str, str]] = set()
        self.settings_kv: dict[str, int] = {}
        self.script: list[Stimulus] = []
        self.script_ues: dict[str, int] = {}
        self.ips: set[str] = set()

    def finish_section(self, name: str, start_line: int, pairs: list[tuple[int, str, str]]) -> None:
        got = {k for _, k, _ in pairs}
        if name == "settings":
            for lineno, key, value in pairs:
                if key in self.settings_kv:
                    raise ParseError(lineno, f"duplicate settings key {quoted(key)}")
                number = self.settings_kv[key] = _ref_parse_int(value, lineno, key)
                if key == "admission_cap" and number < 1:
                    raise ParseError(lineno, f"admission_cap {quoted(value)} is below 1")
            return
        if name == "node":
            kv = _ref_unique_pairs(pairs)
            _ref_require(got, {"name", "rat", "ngu_ip"}, start_line, "node")
            lineno, rat_value = kv["rat"]
            try:
                rat = Rat(rat_value)
            except ValueError:
                raise ParseError(lineno, f"unknown RAT {quoted(rat_value)}") from None
            _ref_parse_ip(kv["ngu_ip"][1], kv["ngu_ip"][0])
            self.add_name("node", kv["name"])
            self.nodes.append(NodeSpec(kv["name"][1], rat, kv["ngu_ip"][1]))
            return
        if name == "ue":
            kv = _ref_unique_pairs(pairs)
            _ref_require(got, {"name", "attach"}, start_line, "ue")
            self.add_name("ue", kv["name"])
            self.ues.append((UeSpec(kv["name"][1], kv["attach"][1]), kv["attach"][0]))
            return
        kv = _ref_unique_pairs(pairs, repeatable={"flow"})
        _ref_require(got, {"ue", "id", "drbs"}, start_line, "session")
        ue_line, ue_name = kv["ue"]
        id_line, id_value = kv["id"]
        session_id = _ref_check_range(
            id_value, _ref_parse_int(id_value, id_line, "session id"), 1, 15, id_line, "session id"
        )
        if (ue_name, session_id) in self.session_ids:
            raise ParseError(id_line, f"ue {quoted(ue_name)} already has session {session_id}")
        self.session_ids.add((ue_name, session_id))
        drb_line, drb_value = kv["drbs"]
        drbs = tuple(_ref_parse_drb(t.strip(), drb_line) for t in drb_value.split(","))
        for drb in drbs:
            if (ue_name, drb) in self.drbs:
                raise ParseError(drb_line, f"ue {quoted(ue_name)} already uses drb {drb}")
            self.drbs.add((ue_name, drb))
        flows = []
        for lineno, key, value in pairs:
            if key != "flow":
                continue
            tokens = value.split()
            if len(tokens) != 5 or not tokens[4].startswith("drb="):
                raise ParseError(lineno, "flow wants: <id> <ip_dst> <proto> <l4_dst> drb=<n>")
            flow = QosFlowSpec(
                flow_id=_ref_check_range(
                    tokens[0], _ref_parse_int(tokens[0], lineno, "flow id"), 0, 63, lineno, "flow id"
                ),
                ip_dst=ipaddress.IPv4Address(self.parse_ip(tokens[1], lineno)).packed,
                ip_proto=_ref_parse_proto(tokens[2], lineno),
                l4_dst=_ref_parse_l4_port(tokens[3], lineno),
                drb=_ref_parse_int(tokens[4][4:], lineno, "drb"),
            )
            if flow.drb not in drbs:
                raise ParseError(lineno, f"flow {flow.flow_id} maps to absent DRB {quoted(str(flow.drb))}")
            flows.append(flow)
        self.sessions.append((ue_name, ue_line, SessionSpec(session_id, drbs, tuple(flows))))

    def parse_ip(self, token: str, lineno: int) -> str:
        if token not in self.ips:
            self.ips.add(_ref_parse_ip(token, lineno))
        return token

    def add_name(self, section: str, name_pair: tuple[int, str]) -> None:
        lineno, name = name_pair
        if name.split() != [name]:
            raise ParseError(lineno, f"{section} name {quoted(name)} is not one word")
        if (section, name) in self.names:
            raise ParseError(lineno, f"duplicate {section} name {quoted(name)}")
        self.names.add((section, name))

    def add_script_line(self, lineno: int, line: str) -> None:
        tokens = line.split()
        tick = _ref_parse_int(tokens[0], lineno, "tick")
        if tick < 0:
            raise ParseError(lineno, f"negative tick {quoted(tokens[0])}")
        if len(str(tick)) > 639:
            raise ParseError(lineno, f"tick {quoted(tokens[0])} has more than 639 digits")
        if len(tokens) < 2:
            raise ParseError(lineno, "script line wants: <tick> <stimulus> <args...>")
        kind = tokens[1]
        args = tokens[2:]
        if kind not in _REF_STIMULI_ARITY:
            raise ParseError(lineno, f"unknown stimulus {quoted(kind)}")
        if len(args) != _REF_STIMULI_ARITY[kind]:
            raise ParseError(lineno, f"{kind} wants {_REF_STIMULI_ARITY[kind]} arguments")
        if kind == "ue_power_on":
            parsed = (args[0],)
        elif kind == "send_uplink_data":
            parsed = (args[0], _ref_parse_int(args[1], lineno, "bearer"), _ref_parse_hex(args[2], lineno))
        else:
            parsed = (
                args[0],
                self.parse_ip(args[1], lineno),
                _ref_parse_proto(args[2], lineno),
                _ref_parse_l4_port(args[3], lineno),
                _ref_parse_hex(args[4], lineno),
            )
        self.script.append(Stimulus(tick, kind, parsed))
        self.script_ues.setdefault(args[0], lineno)


def reference_parse_scenario(text: str) -> Scenario:
    """The oracle for `scenario.parse_scenario`: the same Scenario, or the
    same ParseError text and line."""
    acc = _RefSectionAccumulator()
    section: str | None = None
    section_line = 0
    pairs: list[tuple[int, str, str]] = []

    def flush():
        if section is not None and section != "script":
            acc.finish_section(section, section_line, pairs)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            section = line[1:-1].strip()
            section_line = lineno
            pairs = []
            if section != "script" and section not in _REF_SECTION_KEYS:
                raise ParseError(lineno, f"unknown section {quoted(section)}")
            continue
        if section is None:
            raise ParseError(lineno, "content before any section header")
        if section == "script":
            acc.add_script_line(lineno, line)
            continue
        if "=" not in line:
            raise ParseError(lineno, "expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _REF_SECTION_KEYS[section]:
            raise ParseError(lineno, f"unknown key {quoted(key)} in [{section}]")
        pairs.append((lineno, key, value))
    flush()

    node_names = {n.name for n in acc.nodes}
    for ue, attach_line in acc.ues:
        if ue.attach not in node_names:
            raise ParseError(attach_line, f"ue {quoted(ue.name)} attaches to unknown node {quoted(ue.attach)}")
    ue_names = {u.name for u, _ in acc.ues}
    sessions_by_ue: dict[str, list[SessionSpec]] = {name: [] for name in ue_names}
    for ue_name, ue_line, spec in acc.sessions:
        if ue_name not in ue_names:
            raise ParseError(ue_line, f"session references unknown UE {quoted(ue_name)}")
        sessions_by_ue[ue_name].append(spec)
    for ue_name, lineno in acc.script_ues.items():
        if ue_name not in ue_names:
            raise ParseError(lineno, f"stimulus references unknown UE {quoted(ue_name)}")
    ues = tuple(UeSpec(u.name, u.attach, tuple(sessions_by_ue[u.name])) for u, _ in acc.ues)

    settings = Settings(**acc.settings_kv)
    topology = Topology(tuple(acc.nodes), ues, seed=settings.seed)
    return Scenario(topology, tuple(acc.script), settings)


# -- whole-run oracle -------------------------------------------------------------
# A run of a scenario text with every fast path that a run takes swapped for its
# reference above. The property in test_scenario_cli.py holds a run to it.


def _reference_digests(data, ends: list[int]) -> list[int]:
    """`trace.fnv1a64`'s digests, one `reference_fnv1a64` per record."""
    return [reference_fnv1a64(bytes(data[start:end])) for start, end in zip([0, *ends[:-1]], ends)]


@contextlib.contextmanager
def _references():
    """Every fast function a run calls replaced by its reference, under each
    name a module holds it by, and the trace's text methods by theirs."""
    swap = {
        wire.encode_message: reference_encode_message,
        wire.decode_message: reference_decode_message,
        wire.iter_messages: reference_iter_messages,
        messages._canonical: reference_canonical,
        messages._decode: reference_decode,
        trace.fnv1a64: _reference_digests,
        scenario.parse_scenario: reference_parse_scenario,
        netsim.render_flow_table: reference_render_flow_table,
    }
    modules = (wire, messages, trace, scenario, switch, node, controller, netsim)
    patches = [(m, name, swap[fn]) for m in modules for name, fn in vars(m).items() if callable(fn) and fn in swap]
    patches += [
        (EventTrace, "to_text", lambda self: reference_to_text(self.records)),
        (EventTrace, "from_text", classmethod(lambda cls, text: trace_of(reference_from_text(text)))),
    ]
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in patches]
    try:
        for owner, name, value in patches:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


def run_outcome(text: str, reference: bool = False) -> tuple:
    """A run of the scenario `text` as `open5g-sim run` makes it: the trace text
    and the records read back from it (None if the run fails), each node's
    table after every step (None if the text does not parse), the error's
    class and text (None if it runs) and the exit code. With `reference`, the
    run takes every reference path, and each node gets scan tables."""
    sim = written = read = error = None
    code = EXIT_OK
    with _references() if reference else contextlib.nullcontext():
        try:
            parsed = scenario.parse_scenario(text)
            sim = Simulator(parsed.topology, list(parsed.script), parsed.settings)
            if reference:  # the node's dataclass builds its tables, so they are swapped here
                for each in sim.nodes.values():
                    each.table, each.registry = ScanFlowTable(), ScanPortRegistry()
            written = sim.run().to_text()
            read = EventTrace.from_text(written).records
        except (ParseError, TraceParseError) as exc:
            error, code = (type(exc), str(exc)), EXIT_PARSE_ERROR
        except RUN_ERRORS as exc:
            error, code = (type(exc), str(exc)), EXIT_SIM_ERROR
        if sim is not None:
            tables = {name: [sim.table_at_step(name, step) for step in range(sim.deliveries + 1)] for name in sim.nodes}
        else:
            tables = None
    return written, read, tables, error, code


def reference_run(text: str) -> tuple:
    """`run_outcome(text)` with every reference swapped in: the Open5G codec,
    the RRC/NG-AP codec, the digest, the trace's text form, the scenario
    parser, the scan tables and the table renderer."""
    return run_outcome(text, reference=True)
