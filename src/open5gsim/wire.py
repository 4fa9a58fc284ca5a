"""Byte-level codecs: Open5G control messages, GTP-U and GRE-keyed frames.

All integers are big-endian. The Open5G header is 8 bytes:

    version u8 (0x01) | msg_type u8 | length u16 (total bytes) | xid u32

Message types: HELLO=1, ERROR=2, PORT_MOD=3, FLOW_MOD=4.

PORT_MOD body: command u8, port_class u8 (0=radio, 1=gtp, 2=sig),
port_id u32, then class-specific fields. A DELETE carries no class fields
and its port_class byte is written as zero.

FLOW_MOD body: command u8, priority u16, match-TLV count u8, match TLVs
(type u16, len u16, value), then the action (kind u8=1 OUTPUT, out_port u32).
Like OpenFlow's OXM fields, one `FlowMatch` tuple, in `MATCH_FIELDS` order,
is both an entry's match and the header fields of a packet to classify; the
codec, the validator and the flow table read it by position.

ERROR body: code u16, detail-length u16, detail bytes.

The shape table: each of the six command shapes the controller sends, a
FLOW_MOD ADD matching {crnti, bearer_id}, {in_port} or {ip_dst, ip_proto,
l4_dst} and a PORT_MOD CREATE of a radio, GTP-U or signaling port, has one
whole-frame `struct.Struct`. `encode_message` checks the validator's rules
for the message's shape and writes it with one `pack`; `decode_message`
knows a shape by its header, length and fixed fields, reads it with one
`unpack_from`, checks the rules a parsed frame can break and builds the
NamedTuples with `tuple.__new__`. A radio port's TLV block is written once
per `layer_config` tuple and parsed once per distinct block, in bounded
caches. Any other message or frame, and any that breaks a rule, takes the
per-field path, which words every error.

On the per-field path each layout, and each match field's TLV, is a
`struct.Struct` compiled once; decoding is one `unpack_from` pass at a
running offset. One validator, `validate_message`, raises at the first
broken rule before a message is packed. The decoder checks only the rules a
parsed frame can break, in the validator's order and with its texts, as
MalformedTlvErrors: a radio port's C-RNTI above `CRNTI_MAX`, bearer id above
31, SRB bearer id outside {0,3,4} and C-RNTI 0 off SRB0; a FLOW_MOD's C-RNTI
and bearer id not appearing together, match C-RNTI above `CRNTI_MAX` and
empty match. Every width, range and type rule holds once `unpack_from` has
read the fields.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    BadGtpuFlagsError,
    BadSigFlagsError,
    BadVersionError,
    InvalidMessageError,
    MalformedTlvError,
    TruncatedError,
    UnknownTypeError,
    quoted,
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
    """Pack a dotted-quad IPv4 address into 4 bytes.

    Accepts exactly the strings `ipaddress.IPv4Address` accepts: four ASCII
    decimal octets of at most 255, none with a leading zero. Those are the
    strings that `ip_str` gives back from their bytes; any other value is a ValueError.
    """
    try:
        a, b, c, d = addr.split(".")
        packed = bytes((int(a), int(b), int(c), int(d)))
    except (ValueError, TypeError, AttributeError):  # the last two: `addr` is no string
        packed = None
    if packed is None or ip_str(packed) != addr:
        raise ValueError(f"{quoted(addr)} is not a dotted-quad IPv4 address")
    return packed


def ip_str(packed: bytes) -> str:
    """Format 4 packed bytes as a dotted quad; any other length is a ValueError."""
    if len(packed) != 4:
        raise ValueError(f"a packed IPv4 address is 4 bytes, not {len(packed)}")
    return "%d.%d.%d.%d" % tuple(packed)


# ---------------------------------------------------------------------------
# Domain types


class ConfigTlv(NamedTuple):
    tlv_type: int
    value: bytes


class RadioBearer(NamedTuple):
    crnti: int
    bearer_id: int
    bearer_kind: BearerKind
    layer_config: tuple[ConfigTlv, ...] = ()


class GtpTunnel(NamedTuple):
    local_ip: bytes
    remote_ip: bytes
    udp_port: int
    teid: int


class SigTunnel(NamedTuple):
    controller_ip: bytes
    tunnel_id: int


PortSpec = RadioBearer | GtpTunnel | SigTunnel


class MatchField(NamedTuple):
    mtype: MatchType
    name: str  # the FlowMatch field at this row's index
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


class FlowMatch(NamedTuple):
    """A flow entry's match, or the fields of a packet that the flow table
    classifies; None is a wildcard, or a field the packet does not carry."""

    in_port: int | None = None
    crnti: int | None = None
    bearer_id: int | None = None
    ip_dst: bytes | None = None
    ip_proto: int | None = None
    l4_dst: int | None = None


class Hello(NamedTuple):
    xid: int


class ErrorMsg(NamedTuple):
    xid: int
    code: int
    detail: bytes = b""


class PortMod(NamedTuple):
    xid: int
    command: PortModCommand
    port_id: int
    port_spec: PortSpec | None = None  # None exactly when the command is DELETE


class FlowMod(NamedTuple):
    xid: int
    command: FlowModCommand
    priority: int
    match: FlowMatch
    out_port: int  # the action, which is always OUTPUT


Open5GMessage = Hello | ErrorMsg | PortMod | FlowMod


# ---------------------------------------------------------------------------
# Layouts, compiled once

_HEADER = struct.Struct(">BBHI")  # version, msg_type, length, xid
_ERROR_HEAD = struct.Struct(">HH")  # code, detail length
_PORT_MOD_HEAD = struct.Struct(">BBI")  # command, port_class, port_id
_RADIO = struct.Struct(">HBB")  # crnti, bearer_id, bearer_kind
_TLV_HEAD = struct.Struct(">HH")  # type, length
_GTP = struct.Struct(">4s4sHI")  # local_ip, remote_ip, udp_port, teid
_SIG = struct.Struct(">4sI")  # controller_ip, tunnel_id
_FLOW_MOD_HEAD = struct.Struct(">BHB")  # command, priority, match-TLV count
_ACTION = struct.Struct(">BI")  # kind (1 = OUTPUT), out_port
_LENGTH = struct.Struct(">H")  # the header's length field, at offset 2

_U16 = 0xFFFF
_U32 = 0xFFFFFFFF
_HELLO, _ERROR, _PORT_MOD, _FLOW_MOD = (int(t) for t in MsgType)
_RADIO_CLASS, _GTP_CLASS, _SIG_CLASS = (int(c) for c in PortClass)
_DELETE = int(PortModCommand.DELETE)
_SRB = int(BearerKind.SRB)
# Member values run 0..n-1, so a decoded value indexes these. Validation tests
# membership with ==, so a plain int equal to a member passes.
_PORT_MOD_COMMANDS = tuple(PortModCommand)
_FLOW_MOD_COMMANDS = tuple(FlowModCommand)
_BEARER_KINDS = tuple(BearerKind)


def _match_codec(f: MatchField) -> tuple:
    """The field; its value's width; the largest value of an integer field
    (None for a byte string, whose length is checked instead); the largest
    value the field allows; the structs of its value and of its whole TLV."""
    value = struct.Struct(f.fmt)
    limit = None if f.fmt[-1] == "s" else (1 << 8 * value.size) - 1
    top = CRNTI_MAX if f.mtype == MatchType.CRNTI else limit
    return f, value.size, limit, top, value, struct.Struct(">HH" + f.fmt[1:])


_MATCH_CODEC = tuple(_match_codec(f) for f in MATCH_FIELDS)  # in MATCH_FIELDS order
# MatchType values run 1..n in MATCH_FIELDS order, so a match TLV's value
# goes to FlowMatch index mtype - 1
_MATCH_BY_TYPE = {int(row[0].mtype): row for row in _MATCH_CODEC}


# ---------------------------------------------------------------------------
# The shape table: one whole-frame layout for each of the six command shapes
# the controller sends. Each frame is the header (version, msg_type, length,
# xid) and then, with its fixed values in brackets:
#   FLOW_MOD: [command ADD] priority [match-TLV count], per match field
#             [type, length] value, then [action kind OUTPUT] out_port;
#   PORT_MOD: [command CREATE, port class] port_id, then the class fields, a
#             radio port's followed by its TLV block.

_CRNTI_FLOW = struct.Struct(">BBHI BHB HHH HHB BI")  # matching {crnti, bearer_id}: 28 bytes
_PORT_FLOW = struct.Struct(">BBHI BHB HHI BI")  # matching {in_port}: 25 bytes
_IP_FLOW = struct.Struct(">BBHI BHB HH4s HHB HHH BI")  # matching {ip_dst, ip_proto, l4_dst}: 36 bytes
_RADIO_PORT = struct.Struct(">BBHI BBI HBB")  # 18 bytes, then the TLV block
_GTP_PORT = struct.Struct(">BBHI BBI 4s4sHI")  # 28 bytes
_SIG_PORT = struct.Struct(">BBHI BBI 4sI")  # 22 bytes

# The fixed fields of each FLOW_MOD shape, in frame order: length, command,
# match-TLV count, each TLV's type and length, and the action kind
_CRNTI_FIXED = (28, 0, 2, 2, 2, 3, 1, 1)
_PORT_FIXED = (25, 0, 1, 1, 4, 1)
_IP_FIXED = (36, 0, 3, 4, 4, 5, 1, 6, 2, 1)
# The type of each FlowMatch field of each FLOW_MOD shape
_NONE = type(None)
_CRNTI_MATCH = (_NONE, int, int, _NONE, _NONE, _NONE)
_PORT_MATCH = (int, _NONE, _NONE, _NONE, _NONE, _NONE)
_IP_MATCH = (_NONE, _NONE, _NONE, bytes, int, int)
_FLOW_MOD_BYTES = bytes((VERSION, _FLOW_MOD))
_PORT_MOD_BYTES = bytes((VERSION, _PORT_MOD))

_ADD = FlowModCommand.ADD
_CREATE = PortModCommand.CREATE
_DRB = int(BearerKind.DRB)
_new = tuple.__new__  # builds a NamedTuple from checked fields without its __new__

_CACHE_MAX = 64  # entries per TLV-block cache; the controller uses one block per RAT
# id(layer_config) -> (layer_config, its TLV block). An entry holds the tuple,
# so no other object can take its id while the entry lives.
_TLV_BLOCKS: dict[int, tuple[tuple, bytes]] = {}


def _bearer_ok(crnti: int, bearer_id: int, srb: bool, drb: bool) -> bool:
    """The radio-port rules that remain once the fields fit their widths:
    C-RNTI at most CRNTI_MAX, an SRB's bearer id in {0,3,4}, a DRB's at most
    31, and C-RNTI 0 only on SRB0."""
    return (
        crnti <= CRNTI_MAX
        and (bearer_id in SRB_BEARER_IDS if srb else drb and bearer_id <= 31)
        and (crnti != 0 or srb and bearer_id == 0)
    )


def _tlv_block(layer_config: tuple) -> bytes | None:
    """A radio port's TLV block, written once per layer_config tuple; None
    unless it is a tuple of ConfigTlvs, each of an int type and a bytes value.
    A type or a length out of range raises struct.error."""
    hit = _TLV_BLOCKS.get(id(layer_config))
    if hit is not None:
        return hit[1]
    if type(layer_config) is not tuple or not all(
        type(tlv) is ConfigTlv and type(tlv.tlv_type) is int and type(tlv.value) is bytes for tlv in layer_config
    ):
        return None
    block = b"".join([_TLV_HEAD.pack(tlv_type, len(value)) + value for tlv_type, value in layer_config])
    if len(_TLV_BLOCKS) >= _CACHE_MAX:
        _TLV_BLOCKS.clear()
    _TLV_BLOCKS[id(layer_config)] = layer_config, block
    return block


@lru_cache(maxsize=_CACHE_MAX)
def _layer_config(block: bytes) -> tuple[ConfigTlv, ...] | None:
    """A radio port's TLV block parsed, once per distinct block; None if a
    TLV in it is cut short."""
    tlvs = []
    off = 0
    while off < len(block):
        if off + 4 > len(block):
            return None
        tlv_type, tlv_len = _TLV_HEAD.unpack_from(block, off)
        off += 4 + tlv_len
        if off > len(block):
            return None
        tlvs.append(_new(ConfigTlv, (tlv_type, block[off - tlv_len : off])))
    return tuple(tlvs)


# ---------------------------------------------------------------------------
# Validation: the rules run in a fixed order and the first one broken raises,
# so a message that breaks several always reports the same one.


def validate_port_spec(spec: PortSpec) -> None:
    if isinstance(spec, RadioBearer):
        crnti, bearer_id, kind = spec.crnti, spec.bearer_id, spec.bearer_kind
        if not (isinstance(crnti, int) and 0 <= crnti <= _U16):
            raise InvalidMessageError("crnti out of range")
        if crnti > CRNTI_MAX:
            raise InvalidMessageError("crnti above reserved range")
        if not (isinstance(bearer_id, int) and 0 <= bearer_id <= 0xFF):
            raise InvalidMessageError("bearer_id out of range")
        if bearer_id > 31:
            raise InvalidMessageError("bearer_id above 31")
        if kind not in _BEARER_KINDS:
            raise InvalidMessageError("bad bearer_kind")
        srb = kind == BearerKind.SRB
        if srb and bearer_id not in SRB_BEARER_IDS:
            raise InvalidMessageError("SRB bearer_id not in {0,3,4}")
        # crnti 0 is reserved for the common SRB0 port
        if crnti == 0 and not (srb and bearer_id == 0):
            raise InvalidMessageError("crnti zero on dedicated bearer")
        for tlv in spec.layer_config:
            tlv_type = tlv.tlv_type
            if not (isinstance(tlv_type, int) and 0 <= tlv_type <= _U16):
                raise InvalidMessageError("tlv_type out of range")
            if len(tlv.value) > _U16:
                raise InvalidMessageError("tlv value too long")
    elif isinstance(spec, GtpTunnel):
        if len(spec.local_ip) != 4 or len(spec.remote_ip) != 4:
            raise InvalidMessageError("bad ip length")
        if not (isinstance(spec.udp_port, int) and 0 <= spec.udp_port <= _U16):
            raise InvalidMessageError("udp_port out of range")
        if not (isinstance(spec.teid, int) and 0 <= spec.teid <= _U32):
            raise InvalidMessageError("teid out of range")
    elif isinstance(spec, SigTunnel):
        if len(spec.controller_ip) != 4:
            raise InvalidMessageError("bad ip length")
        if not (isinstance(spec.tunnel_id, int) and 0 <= spec.tunnel_id <= _U32):
            raise InvalidMessageError("tunnel_id out of range")
    else:
        raise InvalidMessageError("unknown port spec variant")


def validate_match(match: FlowMatch) -> None:
    # An empty match passes the pairing check and every field check, so
    # "empty match" comes last here and is still the only fault it reports.
    if not isinstance(match, FlowMatch):
        raise InvalidMessageError("match is not a FlowMatch")
    if (match.crnti is None) != (match.bearer_id is None):
        raise InvalidMessageError("crnti and bearer_id must appear together")
    empty = True
    for (f, width, limit, top, _, _), value in zip(_MATCH_CODEC, match):
        if value is None:
            continue
        empty = False
        if limit is None:
            if len(value) != width:
                raise InvalidMessageError(f"bad {f.name} length")
        elif not (isinstance(value, int) and 0 <= value <= limit):
            raise InvalidMessageError(f"{f.name} out of range")
        elif value > top:
            raise InvalidMessageError(f"{f.name} above reserved range")
    if empty:
        raise InvalidMessageError("empty match")


def validate_message(msg: Open5GMessage) -> None:
    if not isinstance(msg, (PortMod, FlowMod, Hello, ErrorMsg)):
        raise InvalidMessageError("unknown message class")
    if not (isinstance(msg.xid, int) and 0 <= msg.xid <= _U32):
        raise InvalidMessageError("xid out of range")
    if isinstance(msg, PortMod):
        if msg.command not in _PORT_MOD_COMMANDS:
            raise InvalidMessageError("bad command")
        if not (isinstance(msg.port_id, int) and 0 <= msg.port_id <= _U32):
            raise InvalidMessageError("port_id out of range")
        if msg.command == _DELETE:
            if msg.port_spec is not None:
                raise InvalidMessageError("DELETE carries no port spec")
        elif msg.port_spec is None:
            raise InvalidMessageError("missing port spec")
        else:
            validate_port_spec(msg.port_spec)
    elif isinstance(msg, FlowMod):
        if msg.command not in _FLOW_MOD_COMMANDS:
            raise InvalidMessageError("bad command")
        if not (isinstance(msg.priority, int) and 0 <= msg.priority <= _U16):
            raise InvalidMessageError("priority out of range")
        validate_match(msg.match)
        if not (isinstance(msg.out_port, int) and 0 <= msg.out_port <= _U32):
            raise InvalidMessageError("out_port out of range")
    elif isinstance(msg, ErrorMsg):
        if not (isinstance(msg.code, int) and 0 <= msg.code <= _U16):
            raise InvalidMessageError("code out of range")
        if len(msg.detail) > _U16:
            raise InvalidMessageError("detail too long")


# ---------------------------------------------------------------------------
# Encoding


def encode_message(msg: Open5GMessage) -> bytes:
    """Encode a validated message; raises InvalidMessageError otherwise."""
    # A command of one of the six shapes: the validator's rules for its shape,
    # then one pack, which checks every width itself and raises struct.error
    # on a value out of range or an address it cannot write (len() raises
    # TypeError on one with no length). Any other message, and one that breaks
    # a rule, goes on to the per-field code, which words the error.
    cls = type(msg)
    try:
        if cls is FlowMod:
            xid, command, priority, match, out_port = msg
            if (
                command is _ADD
                and type(xid) is int
                and type(priority) is int
                and type(out_port) is int
                and type(match) is FlowMatch
            ):
                in_port, crnti, bearer_id, ip_dst, ip_proto, l4_dst = match
                types = tuple(map(type, match))
                if types == _CRNTI_MATCH and crnti <= CRNTI_MAX:
                    return _CRNTI_FLOW.pack(
                        VERSION, _FLOW_MOD, 28, xid, 0, priority, 2, 2, 2, crnti, 3, 1, bearer_id, 1, out_port
                    )
                if types == _PORT_MATCH:
                    return _PORT_FLOW.pack(VERSION, _FLOW_MOD, 25, xid, 0, priority, 1, 1, 4, in_port, 1, out_port)
                if types == _IP_MATCH and len(ip_dst) == 4:
                    return _IP_FLOW.pack(
                        VERSION, _FLOW_MOD, 36, xid, 0, priority, 3,
                        4, 4, ip_dst, 5, 1, ip_proto, 6, 2, l4_dst, 1, out_port,
                    )
        elif cls is PortMod:
            xid, command, port_id, spec = msg
            if command is _CREATE and type(xid) is int and type(port_id) is int:
                spec_cls = type(spec)
                if spec_cls is RadioBearer:
                    crnti, bearer_id, kind, layer_config = spec
                    if (
                        type(crnti) is int
                        and type(bearer_id) is int
                        and _bearer_ok(crnti, bearer_id, kind is BearerKind.SRB, kind is BearerKind.DRB)
                    ):
                        block = _tlv_block(layer_config)
                        if block is not None:
                            head = _RADIO_PORT.pack(
                                VERSION, _PORT_MOD, 18 + len(block), xid, 0, 0, port_id, crnti, bearer_id, kind
                            )
                            return head + block
                elif spec_cls is GtpTunnel:
                    local_ip, remote_ip, udp_port, teid = spec
                    if len(local_ip) == len(remote_ip) == 4 and type(udp_port) is int and type(teid) is int:
                        return _GTP_PORT.pack(
                            VERSION, _PORT_MOD, 28, xid, 0, 1, port_id, local_ip, remote_ip, udp_port, teid
                        )
                elif spec_cls is SigTunnel:
                    controller_ip, tunnel_id = spec
                    if len(controller_ip) == 4 and type(tunnel_id) is int:
                        return _SIG_PORT.pack(VERSION, _PORT_MOD, 22, xid, 0, 2, port_id, controller_ip, tunnel_id)
    except (struct.error, TypeError):  # a value out of range, or an address with no length
        pass

    validate_message(msg)
    if isinstance(msg, PortMod):
        spec = msg.port_spec
        if isinstance(spec, RadioBearer):
            port_class = _RADIO_CLASS
            fields = _RADIO.pack(spec.crnti, spec.bearer_id, int(spec.bearer_kind)) + b"".join(
                [_TLV_HEAD.pack(t.tlv_type, len(t.value)) + t.value for t in spec.layer_config]
            )
        elif isinstance(spec, GtpTunnel):
            port_class, fields = _GTP_CLASS, _GTP.pack(spec.local_ip, spec.remote_ip, spec.udp_port, spec.teid)
        elif isinstance(spec, SigTunnel):
            port_class, fields = _SIG_CLASS, _SIG.pack(spec.controller_ip, spec.tunnel_id)
        else:  # a DELETE writes port_class zero and no class fields
            port_class, fields = 0, b""
        msg_type = _PORT_MOD
        payload = _PORT_MOD_HEAD.pack(int(msg.command), port_class, msg.port_id) + fields
    elif isinstance(msg, FlowMod):
        tlvs = [
            tlv.pack(f.mtype, width, value)
            for (f, width, _, _, _, tlv), value in zip(_MATCH_CODEC, msg.match)
            if value is not None
        ]
        msg_type = _FLOW_MOD
        head = _FLOW_MOD_HEAD.pack(int(msg.command), msg.priority, len(tlvs))
        payload = head + b"".join(tlvs) + _ACTION.pack(1, msg.out_port)
    elif isinstance(msg, Hello):
        msg_type, payload = _HELLO, b""
    else:
        msg_type, payload = _ERROR, _ERROR_HEAD.pack(msg.code, len(msg.detail)) + msg.detail
    total = HEADER_LEN + len(payload)
    if total > _U16:
        raise InvalidMessageError("message too long")
    return _HEADER.pack(VERSION, msg_type, total, msg.xid) + payload


# ---------------------------------------------------------------------------
# Decoding: one pass over the frame with a running offset from its first byte.
# The body starts at 8, a FLOW_MOD's match TLVs at 12 and a PORT_MOD's class
# fields at 14. Offsets in a TruncatedError count from the start of the body.


def _truncated(need: int, offset: int) -> TruncatedError:
    return TruncatedError(f"need {need} bytes at offset {offset - HEADER_LEN}")


def _trailing(count: int) -> MalformedTlvError:
    return MalformedTlvError(f"{count} trailing bytes in body")


def decode_message(data: bytes) -> Open5GMessage:
    """Decode one complete Open5G message; total over arbitrary input."""
    size = len(data)
    # A command of one of the six shapes, known by its header, length and
    # fixed fields: one unpack_from, then the rules a parsed frame can break.
    # Any other frame, and one that breaks a rule, goes on to the per-field
    # code, which words the error.
    head = data[:2]  # version, msg_type
    if head == _FLOW_MOD_BYTES:
        if size == 28:
            _, _, length, xid, command, priority, count, t1, l1, crnti, t2, l2, bearer_id, action, out_port = (
                _CRNTI_FLOW.unpack_from(data)
            )
            if (length, command, count, t1, l1, t2, l2, action) == _CRNTI_FIXED and crnti <= CRNTI_MAX:
                match = _new(FlowMatch, (None, crnti, bearer_id, None, None, None))
                return _new(FlowMod, (xid, _ADD, priority, match, out_port))
        elif size == 25:
            _, _, length, xid, command, priority, count, t1, l1, in_port, action, out_port = (
                _PORT_FLOW.unpack_from(data)
            )
            if (length, command, count, t1, l1, action) == _PORT_FIXED:
                match = _new(FlowMatch, (in_port, None, None, None, None, None))
                return _new(FlowMod, (xid, _ADD, priority, match, out_port))
        elif size == 36:
            (_, _, length, xid, command, priority, count, t1, l1, ip_dst,
             t2, l2, ip_proto, t3, l3, l4_dst, action, out_port) = _IP_FLOW.unpack_from(data)
            if (length, command, count, t1, l1, t2, l2, t3, l3, action) == _IP_FIXED:
                match = _new(FlowMatch, (None, None, None, ip_dst, ip_proto, l4_dst))
                return _new(FlowMod, (xid, _ADD, priority, match, out_port))
    elif head == _PORT_MOD_BYTES and size >= 18:
        port_class = data[9]
        if port_class == _RADIO_CLASS and type(data) is bytes:  # the TLV values of other input keep its type
            _, _, length, xid, command, _, port_id, crnti, bearer_id, kind = _RADIO_PORT.unpack_from(data)
            if length == size and command == 0 and _bearer_ok(crnti, bearer_id, kind == _SRB, kind == _DRB):
                layer_config = _layer_config(data[18:])
                if layer_config is not None:
                    spec = _new(RadioBearer, (crnti, bearer_id, _BEARER_KINDS[kind], layer_config))
                    return _new(PortMod, (xid, _CREATE, port_id, spec))
        elif port_class == _GTP_CLASS and size == 28:
            _, _, length, xid, command, _, port_id, local_ip, remote_ip, udp_port, teid = _GTP_PORT.unpack_from(data)
            if length == 28 and command == 0:
                spec = _new(GtpTunnel, (local_ip, remote_ip, udp_port, teid))
                return _new(PortMod, (xid, _CREATE, port_id, spec))
        elif port_class == _SIG_CLASS and size == 22:
            _, _, length, xid, command, _, port_id, controller_ip, tunnel_id = _SIG_PORT.unpack_from(data)
            if length == 22 and command == 0:
                return _new(PortMod, (xid, _CREATE, port_id, _new(SigTunnel, (controller_ip, tunnel_id))))

    if size < HEADER_LEN:
        raise TruncatedError(f"{size} bytes, header needs {HEADER_LEN}")
    version, msg_type, length, xid = _HEADER.unpack_from(data)
    if version != VERSION:
        raise BadVersionError(f"version {version:#04x}")
    if length < HEADER_LEN:
        raise MalformedTlvError(f"length field {length} below header size")
    if size < length:
        raise TruncatedError(f"{size} bytes, length field says {length}")
    if size > length:
        raise MalformedTlvError(f"{size - length} bytes beyond declared length")

    if msg_type == _PORT_MOD:
        if size < 14:
            raise _truncated(6, 8)
        command, port_class, port_id = _PORT_MOD_HEAD.unpack_from(data, 8)
        if command > 2:
            raise MalformedTlvError(f"bad port_mod command {command}")
        off = 14
        if command == _DELETE:
            spec = None
        elif port_class == _RADIO_CLASS:
            if size < 18:
                raise _truncated(4, 14)
            crnti, bearer_id, kind = _RADIO.unpack_from(data, 14)
            if kind > 1:
                raise MalformedTlvError("bad bearer_kind")
            tlvs = []
            off = 18
            while off < size:
                if off + 4 > size:
                    raise _truncated(4, off)
                tlv_type, tlv_len = _TLV_HEAD.unpack_from(data, off)
                off += 4
                if off + tlv_len > size:
                    raise _truncated(tlv_len, off)
                tlvs.append(ConfigTlv(tlv_type, data[off : off + tlv_len]))
                off += tlv_len
            if crnti > CRNTI_MAX:
                raise MalformedTlvError("crnti above reserved range")
            if bearer_id > 31:
                raise MalformedTlvError("bearer_id above 31")
            if kind == _SRB and bearer_id not in SRB_BEARER_IDS:
                raise MalformedTlvError("SRB bearer_id not in {0,3,4}")
            if crnti == 0 and not (kind == _SRB and bearer_id == 0):
                raise MalformedTlvError("crnti zero on dedicated bearer")
            spec = RadioBearer(crnti, bearer_id, _BEARER_KINDS[kind], tuple(tlvs))
        elif port_class == _GTP_CLASS:
            if size < 28:
                raise _truncated(14, 14)
            spec, off = GtpTunnel(*_GTP.unpack_from(data, 14)), 28
        elif port_class == _SIG_CLASS:
            if size < 22:
                raise _truncated(8, 14)
            spec, off = SigTunnel(*_SIG.unpack_from(data, 14)), 22
        else:
            raise MalformedTlvError(f"unknown port class {port_class}")
        if off < size:
            raise _trailing(size - off)
        return PortMod(xid, _PORT_MOD_COMMANDS[command], port_id, spec)
    elif msg_type == _FLOW_MOD:
        if size < 12:
            raise _truncated(4, 8)
        command, priority, count = _FLOW_MOD_HEAD.unpack_from(data, 8)
        if command > 1:
            raise MalformedTlvError(f"bad flow_mod command {command}")
        values: list = [None] * len(MATCH_FIELDS)  # a decoded value is never None
        off = 12
        for _ in range(count):
            if off + 4 > size:
                raise _truncated(4, off)
            mtype, mlen = _TLV_HEAD.unpack_from(data, off)
            off += 4
            if off + mlen > size:
                raise _truncated(mlen, off)
            row = _MATCH_BY_TYPE.get(mtype)
            if row is None:
                raise MalformedTlvError(f"unknown match type {mtype}")
            f, width, _, _, value, _ = row
            if mlen != width:
                raise MalformedTlvError(f"match {f.mtype.name} has length {mlen}, want {width}")
            if values[mtype - 1] is not None:
                raise MalformedTlvError(f"duplicate match field {f.mtype.name}")
            (values[mtype - 1],) = value.unpack_from(data, off)
            off += mlen
        if off + 5 > size:
            raise _truncated(5, off)
        kind, out_port = _ACTION.unpack_from(data, off)
        if kind != 1:
            raise MalformedTlvError(f"unknown action kind {kind}")
        if off + 5 < size:
            raise _trailing(size - off - 5)
        match = FlowMatch._make(values)
        if (match.crnti is None) != (match.bearer_id is None):
            raise MalformedTlvError("crnti and bearer_id must appear together")
        if match.crnti is not None and match.crnti > CRNTI_MAX:
            raise MalformedTlvError("crnti above reserved range")
        if not count:
            raise MalformedTlvError("empty match")
        return FlowMod(xid, _FLOW_MOD_COMMANDS[command], priority, match, out_port)
    elif msg_type == _HELLO:
        if size > HEADER_LEN:
            raise _trailing(size - HEADER_LEN)
        return Hello(xid)
    elif msg_type == _ERROR:
        if size < 12:
            raise _truncated(4, 8)
        code, detail_len = _ERROR_HEAD.unpack_from(data, 8)
        if 12 + detail_len > size:
            raise _truncated(detail_len, 12)
        if 12 + detail_len < size:
            raise _trailing(size - 12 - detail_len)
        return ErrorMsg(xid, code, data[12:size])
    else:
        raise UnknownTypeError(f"message type {msg_type}")


def iter_messages(data: bytes):
    """Split a concatenation of Open5G frames and decode each in turn."""
    pos = 0
    while pos < len(data):
        if pos + HEADER_LEN > len(data):
            raise TruncatedError("partial header in frame sequence")
        (length,) = _LENGTH.unpack_from(data, pos + 2)
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
