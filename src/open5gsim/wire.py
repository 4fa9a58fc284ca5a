"""Byte-level codecs: Open5G control messages, GTP-U and GRE-keyed frames.

All integers are big-endian. The Open5G header is 8 bytes:

    version u8 (0x01) | msg_type u8 | length u16 (total bytes) | xid u32

Message types: HELLO=1, ERROR=2, PORT_MOD=3, FLOW_MOD=4.

PORT_MOD body: command u8, port_class u8 (0=radio, 1=gtp, 2=sig),
port_id u32, then class-specific fields. A DELETE carries no class fields
and its port_class byte is written as zero.

FLOW_MOD body: command u8, priority u16, match-TLV count u8, match TLVs
(type u16, len u16, value), then the action (kind u8=1 OUTPUT, out_port u32).

ERROR body: code u16, detail-length u16, detail bytes.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass
from enum import IntEnum

from .errors import (
    BadGtpuFlagsError,
    BadSigFlagsError,
    BadVersionError,
    InvalidMessageError,
    MalformedTlvError,
    TruncatedError,
    UnknownTypeError,
)

VERSION = 0x01
HEADER_LEN = 8


class MsgType(IntEnum):
    HELLO = 1
    ERROR = 2
    PORT_MOD = 3
    FLOW_MOD = 4


class PortModCommand(IntEnum):
    CREATE = 0
    MODIFY = 1
    DELETE = 2


class FlowModCommand(IntEnum):
    ADD = 0
    DELETE = 1


class PortClass(IntEnum):
    RADIO = 0
    GTP = 1
    SIG = 2


class BearerKind(IntEnum):
    SRB = 0
    DRB = 1


class LayerTlv(IntEnum):
    SDAP = 1
    PDCP = 2
    RLC = 3
    MAC = 4
    PHY = 5
    GTP = 6


class MatchType(IntEnum):
    IN_PORT = 1
    CRNTI = 2
    BEARER_ID = 3
    IP_DST = 4
    IP_PROTO = 5
    L4_DST = 6


# C-RNTI values above 0xFFF3 are reserved; zero is the common SRB0 port.
CRNTI_MAX = 65523

# Signaling bearers follow the flow table's literal numbering
SRB0_BEARER = 0
SRB1_BEARER = 3
SRB2_BEARER = 4
SRB_BEARER_IDS = frozenset({SRB0_BEARER, SRB1_BEARER, SRB2_BEARER})


def ip_bytes(addr: str) -> bytes:
    """Pack a dotted-quad IPv4 address into 4 bytes."""
    return ipaddress.IPv4Address(addr).packed


def ip_str(packed: bytes) -> str:
    return str(ipaddress.IPv4Address(packed))


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class ConfigTlv:
    tlv_type: int
    value: bytes


@dataclass(frozen=True)
class RadioBearer:
    crnti: int
    bearer_id: int
    bearer_kind: BearerKind
    layer_config: tuple[ConfigTlv, ...] = ()


@dataclass(frozen=True)
class GtpTunnel:
    local_ip: bytes
    remote_ip: bytes
    udp_port: int
    teid: int


@dataclass(frozen=True)
class SigTunnel:
    controller_ip: bytes
    tunnel_id: int


PortSpec = RadioBearer | GtpTunnel | SigTunnel


@dataclass(frozen=True)
class PortModBody:
    command: PortModCommand
    port_id: int
    port_spec: PortSpec | None = None


@dataclass(frozen=True)
class MatchField:
    mtype: MatchType
    name: str  # the FlowMatch and PacketContext attribute
    fmt: str  # struct format of the TLV value
    label: str  # in a rendered flow-table row


# One row per match field, in TLV-type order, as in OpenFlow's OXM registry.
MATCH_FIELDS = (
    MatchField(MatchType.IN_PORT, "in_port", ">I", "in_port"),
    MatchField(MatchType.CRNTI, "crnti", ">H", "crnti"),
    MatchField(MatchType.BEARER_ID, "bearer_id", ">B", "bearer"),
    MatchField(MatchType.IP_DST, "ip_dst", ">4s", "ip_dst"),
    MatchField(MatchType.IP_PROTO, "ip_proto", ">B", "proto"),
    MatchField(MatchType.L4_DST, "l4_dst", ">H", "l4_dst"),
)

# MatchType -> (its field, the byte width of its TLV value)
_MATCH_BY_TYPE = {f.mtype: (f, struct.calcsize(f.fmt)) for f in MATCH_FIELDS}


@dataclass(frozen=True)
class FlowMatch:
    in_port: int | None = None
    crnti: int | None = None
    bearer_id: int | None = None
    ip_dst: bytes | None = None
    ip_proto: int | None = None
    l4_dst: int | None = None

    def populated(self) -> list[tuple[MatchType, object]]:
        """The fields that are set, with their values, in TLV-type order."""
        return [(f.mtype, value) for f in MATCH_FIELDS if (value := getattr(self, f.name)) is not None]


@dataclass(frozen=True)
class FlowAction:
    out_port: int  # kind is always OUTPUT


@dataclass(frozen=True)
class FlowModBody:
    command: FlowModCommand
    priority: int
    match: FlowMatch
    action: FlowAction


@dataclass(frozen=True)
class Hello:
    xid: int


@dataclass(frozen=True)
class ErrorMsg:
    xid: int
    code: int
    detail: bytes = b""


@dataclass(frozen=True)
class PortMod:
    xid: int
    body: PortModBody


@dataclass(frozen=True)
class FlowMod:
    xid: int
    body: FlowModBody


Open5GMessage = Hello | ErrorMsg | PortMod | FlowMod


# ---------------------------------------------------------------------------
# Validation


def _check(cond: bool, why: str) -> None:
    if not cond:
        raise InvalidMessageError(why)


def _u(value: int, bits: int, name: str) -> None:
    if not (isinstance(value, int) and 0 <= value < (1 << bits)):
        raise InvalidMessageError(f"{name} out of range")  # formatted only on failure


def validate_port_spec(spec: PortSpec) -> None:
    if isinstance(spec, RadioBearer):
        _u(spec.crnti, 16, "crnti")
        _check(spec.crnti <= CRNTI_MAX, "crnti above reserved range")
        _u(spec.bearer_id, 8, "bearer_id")
        _check(spec.bearer_id <= 31, "bearer_id above 31")
        _check(spec.bearer_kind in (BearerKind.SRB, BearerKind.DRB), "bad bearer_kind")
        if spec.bearer_kind == BearerKind.SRB:
            _check(spec.bearer_id in SRB_BEARER_IDS, "SRB bearer_id not in {0,3,4}")
        # crnti 0 is reserved for the common SRB0 port
        if not (spec.bearer_kind == BearerKind.SRB and spec.bearer_id == 0):
            _check(spec.crnti != 0, "crnti zero on dedicated bearer")
        for tlv in spec.layer_config:
            _u(tlv.tlv_type, 16, "tlv_type")
            _check(len(tlv.value) <= 0xFFFF, "tlv value too long")
    elif isinstance(spec, GtpTunnel):
        _check(len(spec.local_ip) == 4 and len(spec.remote_ip) == 4, "bad ip length")
        _u(spec.udp_port, 16, "udp_port")
        _u(spec.teid, 32, "teid")
    elif isinstance(spec, SigTunnel):
        _check(len(spec.controller_ip) == 4, "bad ip length")
        _u(spec.tunnel_id, 32, "tunnel_id")
    else:
        raise InvalidMessageError("unknown port spec variant")


def validate_match(match: FlowMatch) -> None:
    fields = match.populated()
    _check(len(fields) >= 1, "empty match")
    _check(
        (match.crnti is None) == (match.bearer_id is None),
        "crnti and bearer_id must appear together",
    )
    for mtype, value in fields:
        field, width = _MATCH_BY_TYPE[mtype]
        if field.fmt[-1] == "s":  # a byte string of fixed width
            _check(len(value) == width, f"bad {field.name} length")
        else:
            _u(value, 8 * width, field.name)
        if mtype == MatchType.CRNTI:
            _check(value <= CRNTI_MAX, "crnti above reserved range")


def validate_message(msg: Open5GMessage) -> None:
    if isinstance(msg, Hello):
        _u(msg.xid, 32, "xid")
    elif isinstance(msg, ErrorMsg):
        _u(msg.xid, 32, "xid")
        _u(msg.code, 16, "code")
        _check(len(msg.detail) <= 0xFFFF, "detail too long")
    elif isinstance(msg, PortMod):
        _u(msg.xid, 32, "xid")
        body = msg.body
        _check(body.command in PortModCommand.__members__.values(), "bad command")
        _u(body.port_id, 32, "port_id")
        if body.command == PortModCommand.DELETE:
            _check(body.port_spec is None, "DELETE carries no port spec")
        else:
            _check(body.port_spec is not None, "missing port spec")
            validate_port_spec(body.port_spec)
    elif isinstance(msg, FlowMod):
        _u(msg.xid, 32, "xid")
        body = msg.body
        _check(body.command in FlowModCommand.__members__.values(), "bad command")
        _u(body.priority, 16, "priority")
        validate_match(body.match)
        _u(body.action.out_port, 32, "out_port")
    else:
        raise InvalidMessageError("unknown message class")


# ---------------------------------------------------------------------------
# Encoding


def _encode_tlvs(tlvs: tuple[ConfigTlv, ...]) -> bytes:
    parts = []
    for tlv in tlvs:
        parts.append(struct.pack(">HH", tlv.tlv_type, len(tlv.value)) + tlv.value)
    return b"".join(parts)


def _encode_port_spec(spec: PortSpec) -> tuple[int, bytes]:
    if isinstance(spec, RadioBearer):
        body = struct.pack(
            ">HBB", spec.crnti, spec.bearer_id, int(spec.bearer_kind)
        ) + _encode_tlvs(spec.layer_config)
        return PortClass.RADIO, body
    if isinstance(spec, GtpTunnel):
        return PortClass.GTP, struct.pack(
            ">4s4sHI", spec.local_ip, spec.remote_ip, spec.udp_port, spec.teid
        )
    return PortClass.SIG, struct.pack(">4sI", spec.controller_ip, spec.tunnel_id)


def _encode_body(msg: Open5GMessage) -> tuple[MsgType, bytes]:
    if isinstance(msg, Hello):
        return MsgType.HELLO, b""
    if isinstance(msg, ErrorMsg):
        return MsgType.ERROR, struct.pack(">HH", msg.code, len(msg.detail)) + msg.detail
    if isinstance(msg, PortMod):
        body = msg.body
        if body.command == PortModCommand.DELETE:
            port_class, spec_bytes = 0, b""
        else:
            port_class, spec_bytes = _encode_port_spec(body.port_spec)
        return MsgType.PORT_MOD, (
            struct.pack(">BBI", int(body.command), port_class, body.port_id) + spec_bytes
        )
    body = msg.body
    fields = body.match.populated()
    parts = [struct.pack(">BHB", int(body.command), body.priority, len(fields))]
    for mtype, value in fields:
        field, width = _MATCH_BY_TYPE[mtype]
        parts.append(struct.pack(">HH", int(mtype), width) + struct.pack(field.fmt, value))
    parts.append(struct.pack(">BI", 1, body.action.out_port))
    return MsgType.FLOW_MOD, b"".join(parts)


def encode_message(msg: Open5GMessage) -> bytes:
    """Encode a validated message; raises InvalidMessageError otherwise."""
    validate_message(msg)
    msg_type, body = _encode_body(msg)
    total = HEADER_LEN + len(body)
    _check(total <= 0xFFFF, "message too long")
    return struct.pack(">BBHI", VERSION, int(msg_type), total, msg.xid) + body


# ---------------------------------------------------------------------------
# Decoding


class _Reader:
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


def _decode_port_spec(port_class: int, r: _Reader) -> PortSpec:
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
        local_ip, remote_ip, udp_port, teid = r.unpack(">4s4sHI")
        return GtpTunnel(local_ip, remote_ip, udp_port, teid)
    if port_class == PortClass.SIG:
        controller_ip, tunnel_id = r.unpack(">4sI")
        return SigTunnel(controller_ip, tunnel_id)
    raise MalformedTlvError(f"unknown port class {port_class}")


def _decode_match_tlvs(count: int, r: _Reader) -> FlowMatch:
    fields: dict[str, object] = {}
    for _ in range(count):
        mtype, mlen = r.unpack(">HH")
        raw = r.take(mlen)
        if mtype not in _MATCH_BY_TYPE:
            raise MalformedTlvError(f"unknown match type {mtype}")
        field, width = _MATCH_BY_TYPE[mtype]
        if mlen != width:
            raise MalformedTlvError(f"match {field.mtype.name} has length {mlen}, want {width}")
        if field.name in fields:
            raise MalformedTlvError(f"duplicate match field {field.mtype.name}")
        fields[field.name] = struct.unpack(field.fmt, raw)[0]
    return FlowMatch(**fields)


def decode_message(data: bytes) -> Open5GMessage:
    """Decode one complete Open5G message; total over arbitrary input."""
    if len(data) < HEADER_LEN:
        raise TruncatedError(f"{len(data)} bytes, header needs {HEADER_LEN}")
    version, msg_type, length, xid = struct.unpack(">BBHI", data[:HEADER_LEN])
    if version != VERSION:
        raise BadVersionError(f"version {version:#04x}")
    if length < HEADER_LEN:
        raise MalformedTlvError(f"length field {length} below header size")
    if len(data) < length:
        raise TruncatedError(f"{len(data)} bytes, length field says {length}")
    if len(data) > length:
        raise MalformedTlvError(f"{len(data) - length} bytes beyond declared length")
    r = _Reader(data[HEADER_LEN:length])

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
            msg: Open5GMessage = PortMod(xid, PortModBody(command, port_id, None))
        else:
            spec = _decode_port_spec(port_class, r)
            r.expect_end()
            msg = PortMod(xid, PortModBody(command, port_id, spec))
    elif msg_type == MsgType.FLOW_MOD:
        command, priority, count = r.unpack(">BHB")
        if command not in (0, 1):
            raise MalformedTlvError(f"bad flow_mod command {command}")
        match = _decode_match_tlvs(count, r)
        kind, out_port = r.unpack(">BI")
        if kind != 1:
            raise MalformedTlvError(f"unknown action kind {kind}")
        r.expect_end()
        msg = FlowMod(xid, FlowModBody(FlowModCommand(command), priority, match, FlowAction(out_port)))
    else:
        raise UnknownTypeError(f"message type {msg_type}")

    try:
        validate_message(msg)
    except InvalidMessageError as exc:
        raise MalformedTlvError(str(exc)) from None
    return msg


def iter_messages(data: bytes):
    """Split a concatenation of Open5G frames and decode each in turn."""
    pos = 0
    while pos < len(data):
        if pos + HEADER_LEN > len(data):
            raise TruncatedError("partial header in frame sequence")
        (length,) = struct.unpack(">H", data[pos + 2 : pos + 4])
        if length < HEADER_LEN:
            raise MalformedTlvError(f"length field {length} below header size")
        yield decode_message(data[pos : pos + length])
        pos += length


# ---------------------------------------------------------------------------
# Data-path encapsulations

GTPU_FLAGS = 0x30
GTPU_GPDU = 0xFF
GTPU_HEADER_LEN = 8

SIG_FLAGS = 0x2000  # GRE key-present
SIG_PROTOCOL = 0x0000
SIG_HEADER_LEN = 8


def encap_gtpu(payload: bytes, teid: int) -> bytes:
    if len(payload) > 0xFFFF:
        raise InvalidMessageError("GTP-U payload too long")
    return struct.pack(">BBHI", GTPU_FLAGS, GTPU_GPDU, len(payload), teid) + payload


def decap_gtpu(frame: bytes) -> tuple[int, bytes]:
    if len(frame) < GTPU_HEADER_LEN:
        raise TruncatedError(f"GTP-U frame of {len(frame)} bytes")
    flags, msg_type, length, teid = struct.unpack(">BBHI", frame[:GTPU_HEADER_LEN])
    if flags != GTPU_FLAGS or msg_type != GTPU_GPDU:
        raise BadGtpuFlagsError(f"flags {flags:#04x} type {msg_type:#04x}")
    payload = frame[GTPU_HEADER_LEN:]
    if len(payload) != length:
        raise TruncatedError(f"GTP-U length field {length}, payload {len(payload)}")
    return teid, payload


def encap_sig(payload: bytes, tunnel_id: int) -> bytes:
    return struct.pack(">HHI", SIG_FLAGS, SIG_PROTOCOL, tunnel_id) + payload


def decap_sig(frame: bytes) -> tuple[int, bytes]:
    if len(frame) < SIG_HEADER_LEN:
        raise TruncatedError(f"signaling frame of {len(frame)} bytes")
    flags, protocol, key = struct.unpack(">HHI", frame[:SIG_HEADER_LEN])
    if flags != SIG_FLAGS or protocol != SIG_PROTOCOL:
        raise BadSigFlagsError(f"flags {flags:#06x} protocol {protocol:#06x}")
    return key, frame[SIG_HEADER_LEN:]


# ---------------------------------------------------------------------------
# SRB0 demux envelope and the emulated IP packet

ENVELOPE_LEN = 6


def pack_envelope(ue_tmp_id: int, msg: bytes) -> bytes:
    """Prefix a common-channel payload with its target UE identity."""
    if len(msg) > 0xFFFF:
        raise InvalidMessageError("envelope payload too long")
    return struct.pack(">IH", ue_tmp_id, len(msg)) + msg


def unpack_envelope(data: bytes) -> tuple[int, bytes]:
    if len(data) < ENVELOPE_LEN:
        raise TruncatedError(f"envelope of {len(data)} bytes")
    ue_tmp_id, msg_len = struct.unpack(">IH", data[:ENVELOPE_LEN])
    msg = data[ENVELOPE_LEN:]
    if len(msg) != msg_len:
        raise TruncatedError(f"envelope length field {msg_len}, payload {len(msg)}")
    return ue_tmp_id, msg


IP_HEADER_LEN = 9


def pack_ip_packet(ip_dst: bytes, ip_proto: int, l4_dst: int, payload: bytes) -> bytes:
    """Fixed 9-byte pseudo-header standing in for IP+L4 on data paths."""
    if len(payload) > 0xFFFF:
        raise InvalidMessageError("ip payload too long")
    return struct.pack(">4sBHH", ip_dst, ip_proto, l4_dst, len(payload)) + payload


def unpack_ip_packet(data: bytes) -> tuple[bytes, int, int, bytes]:
    if len(data) < IP_HEADER_LEN:
        raise TruncatedError(f"ip packet of {len(data)} bytes")
    ip_dst, ip_proto, l4_dst, length = struct.unpack(">4sBHH", data[:IP_HEADER_LEN])
    payload = data[IP_HEADER_LEN:]
    if len(payload) != length:
        raise TruncatedError(f"ip length field {length}, payload {len(payload)}")
    return ip_dst, ip_proto, l4_dst, payload
