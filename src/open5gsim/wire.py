"""Byte-level codecs: Open5G control messages, GTP-U and GRE-keyed frames.

All integers are big-endian. The Open5G header is 8 bytes:

    version u8 (0x01) | msg_type u8 | length u16 (total bytes) | xid u32

Message types: HELLO=1, ERROR=2, PORT_MOD=3, FLOW_MOD=4. The layout table,
`_LAYOUT`, describes each message body once: its fields in frame order, each
with its struct code and its rules. Like OpenFlow's OXM fields, one `FlowMatch`
tuple, in `MATCH_FIELDS` order, is both an entry's match and the header fields
of a packet to classify; the codec and the flow table read it by position, and
a FLOW_MOD carries one TLV (type u16, len u16, value) per field it sets.

Each shape (the message class, the command, and the port class or the fields a
match sets) is compiled from the table on first use into an entry, whose
whole-frame `struct.Struct` writes a message with one `pack` and reads a frame
with one `unpack_from`. Any other message or frame, and one that breaks a rule,
goes to the walker, which follows the same table field by field and raises at
the first fault.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from functools import lru_cache, partial
from itertools import groupby
from typing import Callable, NamedTuple

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
# The layout table: each message body once, its fields in frame order after the
# header's version, type and length. A message, a port spec, a ConfigTlv and a
# match are parts; a field its part's NamedTuple lacks holds a value the shape fixes.


class _Field(NamedTuple):
    name: str  # the part's field that holds it
    code: str = ""  # its struct code; none for a part, or for a byte string a length field counts
    top: tuple = ()  # a reserved bound below the width's limit, and the error past it
    members: tuple = ()  # an enum's members, whose values run 0..n-1,
    bad: str = ""  # and the decode error for a value past them
    label: str = ""  # what a byte string is called in its errors


_XID = _Field("xid", "I")  # the header's last field
_CRNTI = _Field("crnti", "H", (CRNTI_MAX, "crnti above reserved range"))
_IP = partial(_Field, code="4s", label="ip")
_LAYOUT: dict[type, tuple[_Field, ...]] = {
    Hello: (_XID,),
    ErrorMsg: (_XID, _Field("code", "H"), _Field("length", "H"), _Field("detail", label="detail")),
    PortMod: (
        _XID,
        _Field("command", "B", members=tuple(PortModCommand), bad="bad port_mod command {}"),
        _Field("port_class", "B"),  # the spec's index in _SPECS; 0 in a DELETE, which has no spec
        _Field("port_id", "I"), _Field("port_spec"),
    ),
    RadioBearer: (
        _CRNTI,
        _Field("bearer_id", "B", (31, "bearer_id above 31")),
        _Field("bearer_kind", "B", members=tuple(BearerKind), bad="bad bearer_kind"),
        _Field("layer_config"),  # ConfigTlvs to the end of the frame, once _radio_fault holds
    ),
    ConfigTlv: (_Field("tlv_type", "H"), _Field("length", "H"), _Field("value", label="tlv value")),
    GtpTunnel: (_IP("local_ip"), _IP("remote_ip"), _Field("udp_port", "H"), _Field("teid", "I")),
    SigTunnel: (_IP("controller_ip"), _Field("tunnel_id", "I")),
    FlowMod: (
        _XID,
        _Field("command", "B", members=tuple(FlowModCommand), bad="bad flow_mod command {}"),
        _Field("priority", "H"), _Field("count", "B"),  # the count of match TLVs
        _Field("match"),  # its TLVs, once _match_fault holds
        _Field("action", "B"), _Field("out_port", "I"),  # the action: kind 1, OUTPUT, and its port
    ),
    # each field's TLV value, after its type u16 and length u16
    FlowMatch: tuple(_CRNTI if f.name == "crnti" else _Field(f.name, f.fmt[1:], label=f.name) for f in MATCH_FIELDS),
}
_MESSAGES = (Hello, ErrorMsg, PortMod, FlowMod)  # by msg_type - 1
_SPECS = (RadioBearer, GtpTunnel, SigTunnel)  # by port class


def _radio_fault(crnti, bearer_id, bearer_kind) -> str:
    """The first rule between a radio port's fields that they break, or "":
    an SRB's bearer id is in SRB_BEARER_IDS, and C-RNTI 0 is SRB0's alone."""
    srb = bearer_kind == _SRB
    if srb and bearer_id not in SRB_BEARER_IDS:
        return "SRB bearer_id not in {0,3,4}"
    if crnti == 0 and not (srb and bearer_id == 0):
        return "crnti zero on dedicated bearer"
    return ""


def _match_fault(match: FlowMatch) -> str:
    """The first rule on which fields a match sets that it breaks, or "": C-RNTI
    and bearer id together, and at least one field."""
    if (match.crnti is None) != (match.bearer_id is None):
        return "crnti and bearer_id must appear together"
    return "" if any(value is not None for value in match) else "empty match"


def _plan(cls: type) -> list:
    """A part's fields after the header, in frame order: each run of coded
    fields as its struct and its fields, and each other field alone."""
    steps = []
    for coded, run in groupby([f for f in _LAYOUT[cls] if f is not _XID], lambda f: bool(f.code)):
        run = tuple(run)
        steps += [(struct.Struct(">" + "".join(f.code for f in run)), run)] if coded else run
    return steps


_PLAN = {cls: _plan(cls) for cls in _LAYOUT}
_HEADER = struct.Struct(">BBHI")  # version, msg_type, length, xid
_LENGTH = struct.Struct(">H")  # the header's length field, at offset 2
_TLV_HEAD = _PLAN[ConfigTlv][0][0]  # a TLV's type and length
_PORT_MOD, _FLOW_MOD = int(MsgType.PORT_MOD), int(MsgType.FLOW_MOD)
_SRB = BearerKind.SRB  # an enum member read through its class costs a descriptor call
_NONE = type(None)
_new = tuple.__new__  # builds a NamedTuple from checked fields without its __new__

_CACHE_MAX = 64  # entries per TLV-block cache; the controller uses one block per RAT
# id(layer_config) -> (layer_config, its TLV block). An entry holds the tuple,
# so no other object can take its id while the entry lives.
_TLV_BLOCKS: dict[int, tuple[tuple, bytes]] = {}


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
# The compiled entries: one per shape, from the layout table, on first use


def _exact(f: _Field) -> type:
    """The type of the values an entry takes for a coded field."""
    return type(f.members[0]) if f.members else bytes if f.code[-1] == "s" else int


def _compile(cls: type, command, variant) -> Callable | None:
    """Compile a shape key's encoder and decoder, and return the encoder; None if
    no valid message has the key: the message class, its command (None in a HELLO
    or an ERROR), and a PORT_MOD's spec class (NoneType in a DELETE) or the type of
    each field of a FLOW_MOD's match. The encoder returns None if a value breaks a
    rule or has another type, the decoder if a fixed field, the size or a rule does
    not hold."""
    if cls is PortMod:
        delete = command is PortModCommand.DELETE
        valid = type(command) is PortModCommand and variant in ((_NONE,) if delete else _SPECS)
    elif cls is FlowMod:
        match = _new(FlowMatch, tuple(None if t is _NONE else t for t in variant))
        valid = type(command) is FlowModCommand and not _match_fault(match)
        valid = valid and all(t in (_NONE, _exact(f)) for t, f in zip(variant, _LAYOUT[FlowMatch]))
    else:
        valid = cls is Hello or cls is ErrorMsg
    if not valid:
        return None
    # Each field of the frame: its struct code, and its fixed value or its
    # variable, `n` the length field, `k` a byte string's length, or a value by
    # its path from the message `m` (`m31` is field 1 of field 3).
    frame: list[tuple[str, int | str]] = [("B", VERSION), ("B", _MESSAGES.index(cls) + 1), ("H", "n")]
    fixes = {"action": 1, "length": "k", "port_class": _SPECS.index(variant) if variant in _SPECS else 0}
    fixes["count"] = cls is FlowMod and sum(t is not _NONE for t in variant)
    typed: dict[str, type] = {}  # each variable whose exact type encoding checks, and the type
    unpacks, checks, rules = [], [], []  # encoding's unpacking and checks, and both sides' rules
    tail = []  # how each side gets the byte string that ends the frame

    def lay(part: type, var: str) -> str:
        """Lay out `part`, held in `var`; returns the source that builds it from the frame."""
        names = [f"{var}{i}" for i in range(len(part._fields))]
        unpacks.append(f"{', '.join(names)}, = {var}")
        build = list(names)
        for f in _LAYOUT[part]:
            if f.name not in part._fields:
                frame.append((f.code, fixes[f.name]))
                continue
            i = part._fields.index(f.name)
            x = names[i]
            if f.name == "command":
                frame.append((f.code, int(command)))
                checks.append(f"{x} is command")
                build[i] = "command"
            elif f.name == "port_spec":  # the key gives its class
                build[i] = "None" if variant is _NONE else lay(variant, x)
            elif f.name == "match":
                typed[x], build[i] = FlowMatch, lay(FlowMatch, x)
            elif part is FlowMatch and variant[i] is _NONE:
                build[i] = "None"
            elif not f.code:  # the byte string that ends the frame
                if part is RadioBearer:
                    rules.append(f"not _radio_fault({', '.join(names[:3])})")
                    tail[:] = f"_tlv_block({x})", "_layer_config(data[{}:]) if type(data) is bytes else None"
                else:
                    typed[x] = bytes
                    tail[:] = x, "data[{}:]"
                build[i] = "t"
            else:
                if part is FlowMatch:  # the TLV's type and length; the key gives its value's type
                    frame.extend([("H", int(MATCH_FIELDS[i].mtype)), ("H", struct.calcsize(">" + f.code))])
                elif f.code[-1] != "s":  # pack takes only a byte string for one
                    typed[x] = _exact(f)
                frame.append((f.code, x))
                if f.code[-1] == "s":
                    checks.append(f"len({x}) == {struct.calcsize(f.code)}")
                if f.top:
                    rules.append(f"{x} <= {f.top[0]}")
                if f.members:
                    rules.append(f"{x} < {len(f.members)}")
                    build[i] = f"kinds[{x}]"  # the one open enum, a radio port's bearer kind
        return f"_new({part.__name__}, ({', '.join(build)},))"

    built = lay(cls, "m")
    whole = struct.Struct(">" + "".join(code for code, _ in frame))
    size = whole.size
    if not tail:
        frame[2] = ("H", size)
    names = [f"f{j}" if type(value) is int else value for j, (_, value) in enumerate(frame)]
    lengths = {"n": (f"{size} + len(t)", "n == size"), "k": ("len(t)", f"k == size - {size}")}
    encoding = [*(f"type({x}) is {t.__name__}" for x, t in typed.items()), *checks, *rules]
    decoding = [f"({''.join(f'{x}, ' for x, (_, v) in zip(names, frame) if type(v) is int)}) == fixed", *rules]
    decoding += [lengths[x][1] for x in names if x in lengths]
    if tail:
        encoding.append(f"(t := {tail[0]}) is not None")
        decoding.append(f"(t := {tail[1].format(size)}) is not None")
    args = ", ".join(str(v) if type(v) is int else lengths[v][0] if v in lengths else v for _, v in frame)
    source = f"""
def encode(m):
    {'; '.join(unpacks)}
    if {' and '.join(encoding)}:
        return pack({args}){' + t' if tail else ''}
def decode(data, size):
    if size {'>=' if tail else '=='} {size}:
        {', '.join(names)}, = unpack_from(data)
        if {' and '.join(decoding)}:
            return {built}"""
    fixed = tuple(v for _, v in frame if type(v) is int)
    namespace = dict(globals(), pack=whole.pack, unpack_from=whole.unpack_from, fixed=fixed, command=command)
    namespace["kinds"] = tuple(BearerKind)
    exec(source, namespace)
    decode = namespace["decode"]
    seen = frame[1][1]  # what its frames show at fixed offsets: see decode_message
    if command is not None:  # the command, and the size and first match-TLV type or the port class
        seen = (seen, int(command), *((size, frame[7][1]) if cls is FlowMod else (frame[5][1],)))
    other = _DECODERS.get(seen)  # the entry of a shape whose frames show the same
    _DECODERS[seen] = decode if other is None else lambda data, size: other(data, size) or decode(data, size)
    _ENCODERS[cls, command, variant] = encode = namespace["encode"]
    return encode


# The encoders of the entries compiled so far, by shape key
_ENCODERS: dict[tuple, Callable] = {}
# What a frame shows at fixed offsets -> the decoders of the entries whose frames
# show it. Only {in_port, crnti, bearer_id} and {in_port, ip_proto, l4_dst} show
# the same, with or without ip_dst.
_DECODERS: dict[tuple | int, Callable] = {}


# ---------------------------------------------------------------------------
# Encoding and decoding: through the entry of a compiled shape, or the walker


def encode_message(msg: Open5GMessage) -> bytes:
    """Encode a valid message; raises InvalidMessageError at the first rule it
    breaks. A field of the wrong type is no broken rule: a byte-string field
    that holds no bytes, such as a `str` address, TLV value or error detail,
    raises struct.error or TypeError, and a layer config that is not a
    sequence of `ConfigTlv`s raises TypeError or AttributeError."""
    # An entry's pack raises struct.error on a value too wide, len() TypeError on
    # an address with no length, and the key TypeError or ValueError on an
    # unhashable command or a match of another length. A message no entry takes
    # is validated, then goes to its entry again with each value made exact.
    walked = False
    while True:
        cls = type(msg)
        try:
            if cls is FlowMod:  # the key: see _compile
                in_port, crnti, bearer_id, ip_dst, ip_proto, l4_dst = msg[3]
                variant = type(in_port), type(crnti), type(bearer_id), type(ip_dst), type(ip_proto), type(l4_dst)
                key = cls, msg[1], variant
            elif cls is PortMod:
                key = cls, msg[1], type(msg[3])
            else:
                key = cls, None, None
            frame = _ENCODERS[key](msg)
            if frame is not None:
                return frame
        except KeyError:  # the key's first message, or a key no valid message has
            if _compile(*key) is not None:
                continue
        except (struct.error, TypeError, ValueError):
            pass
        if walked:
            raise InvalidMessageError("message too long")
        validate_message(msg)
        msg, walked = _walk(msg, _class_of(msg, _MESSAGES, ""), True), True


def decode_message(data: bytes) -> Open5GMessage:
    """Decode one complete Open5G message; total over arbitrary input."""
    size = len(data)
    try:
        msg_type = data[1]
        if msg_type == _FLOW_MOD:
            seen = msg_type, data[8], size, data[13]
        else:
            seen = (msg_type, data[8], data[9]) if msg_type == _PORT_MOD else msg_type
        msg = _DECODERS[seen](data, size)
        if msg is not None:
            return msg
    except LookupError:  # too short for what it shows, or no entry's
        pass
    return _read(data)


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
# The walker: each field of the table in frame order. Decoding raises at the
# frame's first structural fault as it reads, then checks the message's rules
# as MalformedTlvErrors. Offsets in a TruncatedError count from the body.


def validate_message(msg: Open5GMessage) -> None:
    """Raise InvalidMessageError at the first rule that `msg` breaks. It checks
    a byte-string field's length, not that it holds bytes, so a message it
    passes may still fail to encode (see encode_message); a layer config that
    is not a sequence of `ConfigTlv`s raises TypeError or AttributeError."""
    _walk(msg, _class_of(msg, _MESSAGES, "unknown message class"), False)


def _class_of(part, classes: tuple, error: str) -> type:
    for cls in classes:
        if isinstance(part, cls):
            return cls
    raise InvalidMessageError(error)


def _walk(part, cls: type, exact: bool):
    """Check `part`, laid out as `cls`, field by field, up to the first rule it
    breaks; returns it as a `cls`, with `exact` of the values an entry takes,
    each made as packing makes it (which raises on a value of no such type)."""
    if cls is FlowMatch and _match_fault(part):
        raise InvalidMessageError(_match_fault(part))
    values = []
    for f in _LAYOUT[cls]:
        if f.name not in cls._fields:  # the shape fixes its value
            continue
        value = getattr(part, f.name)
        if cls is FlowMatch and value is None:
            pass
        elif f.members:
            if value not in f.members:
                raise InvalidMessageError(f"bad {f.name}")
            value = f.members[int(value)] if exact else value
        elif f.code[-1:] == "s":
            if len(value) != struct.calcsize(f.code):
                raise InvalidMessageError(f"bad {f.label} length")
            value = struct.pack(f.code, value) if exact else value
        elif f.code:
            if not (isinstance(value, int) and 0 <= value < 1 << 8 * struct.calcsize(f.code)):
                raise InvalidMessageError(f"{f.name} out of range")
            if f.top and value > f.top[0]:
                raise InvalidMessageError(f.top[1])
            value = int(value) if exact else value
        elif f.label:  # a byte string its length field counts
            if len(value) > 0xFFFF:
                raise InvalidMessageError(f"{f.label} too long")
            value = b"" + value if exact else value
        elif f.name == "port_spec":
            if values[1] == PortModCommand.DELETE:
                if value is not None:
                    raise InvalidMessageError("DELETE carries no port spec")
            elif value is None:
                raise InvalidMessageError("missing port spec")
            else:
                value = _walk(value, _class_of(value, _SPECS, "unknown port spec variant"), exact)
        elif f.name == "match":
            value = _walk(value, _class_of(value, (FlowMatch,), "match is not a FlowMatch"), exact)
        else:  # a radio port's TLVs
            if _radio_fault(*values):
                raise InvalidMessageError(_radio_fault(*values))
            value = tuple([_walk(tlv, ConfigTlv, exact) for tlv in value])
        values.append(value)
    return _new(cls, tuple(values))


def _take(data, off: int, count: int):
    """`count` bytes at `off`; a TruncatedError if the frame ends first."""
    if off + count > len(data):
        raise TruncatedError(f"need {count} bytes at offset {off - HEADER_LEN}")
    return data[off : off + count]


def _read(data) -> Open5GMessage:
    """Decode a frame field by field: the walker's decode side."""
    size = len(data)
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
    if not 0 < msg_type <= len(_MESSAGES):
        raise UnknownTypeError(f"message type {msg_type}")
    cls = _MESSAGES[msg_type - 1]
    msg, off = _read_part(cls, data, HEADER_LEN, {"xid": xid})
    if off < size:
        raise MalformedTlvError(f"{size - off} trailing bytes in body")
    try:
        _walk(msg, cls, False)
    except InvalidMessageError as exc:
        raise MalformedTlvError(str(exc)) from None
    return msg


def _read_part(cls: type, data, off: int, got: dict) -> tuple:
    """A `cls` read from `off`, and the offset after it; `got` holds its fields before `off`."""
    for step in _PLAN[cls]:
        if type(step) is tuple:  # a run of coded fields
            run, fields = step
            for f, value in zip(fields, run.unpack(_take(data, off, run.size))):
                if f.members:
                    if value >= len(f.members):
                        raise MalformedTlvError(f.bad.format(value))
                    value = f.members[value]
                elif f.name == "action" and value != 1:
                    raise MalformedTlvError(f"unknown action kind {value}")
                got[f.name] = value
            off += run.size
        elif step.label:  # a byte string, its length counted before it
            got[step.name] = _take(data, off, got["length"])
            off += got["length"]
        elif step.name == "port_spec":
            got[step.name], port_class = None, got["port_class"]
            if got["command"] is not PortModCommand.DELETE:
                if port_class >= len(_SPECS):
                    raise MalformedTlvError(f"unknown port class {port_class}")
                got[step.name], off = _read_part(_SPECS[port_class], data, off, {})
        elif step.name == "layer_config":  # ConfigTlvs to the end of the frame
            tlvs = []
            while off < len(data):
                tlv, off = _read_part(ConfigTlv, data, off, {})
                tlvs.append(tlv)
            got[step.name] = tuple(tlvs)
        else:  # the match, as its TLVs
            values: list = [None] * len(MATCH_FIELDS)  # a decoded value is never None
            for _ in range(got["count"]):
                (mtype, raw), off = _read_part(ConfigTlv, data, off, {})
                if not 0 < mtype <= len(MATCH_FIELDS):
                    raise MalformedTlvError(f"unknown match type {mtype}")
                f, width = MATCH_FIELDS[mtype - 1], len(raw)
                if width != struct.calcsize(f.fmt):
                    raise MalformedTlvError(f"match {f.mtype.name} has length {width}, want {struct.calcsize(f.fmt)}")
                if values[mtype - 1] is not None:
                    raise MalformedTlvError(f"duplicate match field {f.mtype.name}")
                (values[mtype - 1],) = struct.unpack(f.fmt, raw)
            got[step.name] = _new(FlowMatch, tuple(values))
    return _new(cls, tuple(got[name] for name in cls._fields)), off


# ---------------------------------------------------------------------------
# Data-path encapsulations

GTPU_FLAGS = 0x30
GTPU_GPDU = 0xFF
GTPU_HEADER_LEN = 8

SIG_FLAGS = 0x2000  # GRE key-present
SIG_PROTOCOL = 0x0000
SIG_HEADER_LEN = 8

_GTPU_HEADER = struct.Struct(">BBHI")  # flags, message type, payload length, TEID
_SIG_HEADER = struct.Struct(">HHI")  # flags, protocol, tunnel id as the GRE key


def encap_gtpu(payload: bytes, teid: int) -> bytes:
    if len(payload) > 0xFFFF:
        raise InvalidMessageError("GTP-U payload too long")
    return _GTPU_HEADER.pack(GTPU_FLAGS, GTPU_GPDU, len(payload), teid) + payload


def decap_gtpu(frame: bytes) -> tuple[int, bytes]:
    if len(frame) < GTPU_HEADER_LEN:
        raise TruncatedError(f"GTP-U frame of {len(frame)} bytes")
    flags, msg_type, length, teid = _GTPU_HEADER.unpack_from(frame)
    if flags != GTPU_FLAGS or msg_type != GTPU_GPDU:
        raise BadGtpuFlagsError(f"flags {flags:#04x} type {msg_type:#04x}")
    payload = frame[GTPU_HEADER_LEN:]
    if len(payload) != length:
        raise TruncatedError(f"GTP-U length field {length}, payload {len(payload)}")
    return teid, payload


def encap_sig(payload: bytes, tunnel_id: int) -> bytes:
    return _SIG_HEADER.pack(SIG_FLAGS, SIG_PROTOCOL, tunnel_id) + payload


def decap_sig(frame: bytes) -> tuple[int, bytes]:
    if len(frame) < SIG_HEADER_LEN:
        raise TruncatedError(f"signaling frame of {len(frame)} bytes")
    flags, protocol, key = _SIG_HEADER.unpack_from(frame)
    if flags != SIG_FLAGS or protocol != SIG_PROTOCOL:
        raise BadSigFlagsError(f"flags {flags:#06x} protocol {protocol:#06x}")
    return key, frame[SIG_HEADER_LEN:]


# ---------------------------------------------------------------------------
# SRB0 demux envelope and the emulated IP packet

ENVELOPE_LEN = 6
_ENVELOPE = struct.Struct(">IH")  # UE identity, message length


def pack_envelope(ue_tmp_id: int, msg: bytes) -> bytes:
    """Prefix a common-channel payload with its target UE identity."""
    if len(msg) > 0xFFFF:
        raise InvalidMessageError("envelope payload too long")
    return _ENVELOPE.pack(ue_tmp_id, len(msg)) + msg


def unpack_envelope(data: bytes) -> tuple[int, bytes]:
    if len(data) < ENVELOPE_LEN:
        raise TruncatedError(f"envelope of {len(data)} bytes")
    ue_tmp_id, msg_len = _ENVELOPE.unpack_from(data)
    msg = data[ENVELOPE_LEN:]
    if len(msg) != msg_len:
        raise TruncatedError(f"envelope length field {msg_len}, payload {len(msg)}")
    return ue_tmp_id, msg


IP_HEADER_LEN = 9
_IP_HEADER = struct.Struct(">4sBHH")  # destination, protocol, L4 destination port, payload length


def pack_ip_packet(ip_dst: bytes, ip_proto: int, l4_dst: int, payload: bytes) -> bytes:
    """Fixed 9-byte pseudo-header standing in for IP+L4 on data paths."""
    if len(payload) > 0xFFFF:
        raise InvalidMessageError("ip payload too long")
    return _IP_HEADER.pack(ip_dst, ip_proto, l4_dst, len(payload)) + payload


def unpack_ip_packet(data: bytes) -> tuple[bytes, int, int, bytes]:
    if len(data) < IP_HEADER_LEN:
        raise TruncatedError(f"ip packet of {len(data)} bytes")
    ip_dst, ip_proto, l4_dst, length = _IP_HEADER.unpack_from(data)
    payload = data[IP_HEADER_LEN:]
    if len(payload) != length:
        raise TruncatedError(f"ip length field {length}, payload {len(payload)}")
    return ip_dst, ip_proto, l4_dst, payload
