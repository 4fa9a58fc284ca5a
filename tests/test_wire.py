import functools
import ipaddress
import random
import struct
from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bundled_scenario,
    generated_scenario,
    random_ip,
    random_match,
    random_message,
    random_port_spec,
    reference_decap_gtpu,
    reference_decap_sig,
    reference_decode_message,
    reference_encode_message,
    reference_iter_messages,
    reference_unpack_envelope,
    reference_unpack_ip_packet,
)
from open5gsim import wire
from open5gsim.controller import CONTROLLER_IP, Controller, default_layer_config
from open5gsim.errors import (
    BadGtpuFlagsError,
    BadSigFlagsError,
    BadVersionError,
    InvalidMessageError,
    MalformedTlvError,
    Open5GError,
    TruncatedError,
    UnknownTypeError,
    WireDecodeError,
)
from open5gsim.netsim import Simulator
from open5gsim.node import DataPlaneNode, Rat
from open5gsim.wire import (
    BearerKind,
    ConfigTlv,
    ErrorMsg,
    FlowMatch,
    FlowMod,
    FlowModCommand,
    GtpTunnel,
    Hello,
    MatchType,
    PortMod,
    PortModCommand,
    RadioBearer,
    SigTunnel,
    decode_message,
    encode_message,
)


def test_hello_encodes_to_known_bytes():
    assert encode_message(Hello(xid=7)) == bytes.fromhex("0101000800000007")


def test_hello_decodes_from_known_bytes():
    assert decode_message(bytes.fromhex("0101000800000007")) == Hello(xid=7)


def test_empty_input_is_truncated():
    with pytest.raises(TruncatedError):
        decode_message(b"")


def test_bad_version_rejected():
    data = bytearray(encode_message(Hello(1)))
    data[0] = 0x02
    with pytest.raises(BadVersionError):
        decode_message(bytes(data))


def test_unknown_type_rejected():
    data = bytearray(encode_message(Hello(1)))
    data[1] = 0x63
    with pytest.raises(UnknownTypeError):
        decode_message(bytes(data))


def test_trailing_bytes_rejected():
    with pytest.raises(MalformedTlvError):
        decode_message(encode_message(Hello(1)) + b"\x00")


def test_length_field_longer_than_input_is_truncated():
    data = bytearray(encode_message(Hello(1)))
    struct.pack_into(">H", data, 2, 32)
    with pytest.raises(TruncatedError):
        decode_message(bytes(data))


def test_sig_port_mod_round_trips():
    msg = PortMod(
        xid=3,
        command=PortModCommand.CREATE,
        port_id=2,
        port_spec=SigTunnel(wire.ip_bytes("10.255.0.1"), tunnel_id=1),
    )
    assert decode_message(encode_message(msg)) == msg


def test_drb_uplink_flow_mod_round_trips():
    # the uplink DRB-1 row: match (C-RNTI-1, bearer-id-1), output the NG-U port
    msg = FlowMod(
        xid=9,
        command=FlowModCommand.ADD,
        priority=120,
        match=FlowMatch(crnti=1, bearer_id=1),
        out_port=6,
    )
    encoded = encode_message(msg)
    assert struct.unpack(">H", encoded[2:4])[0] == len(encoded)
    decoded = decode_message(encoded)
    assert decoded == msg
    # a plain tuple of the same values would compare equal
    assert type(decoded.match) is FlowMatch


def test_srb_bearer_id_outside_registry_is_invalid():
    spec = RadioBearer(crnti=5, bearer_id=7, bearer_kind=BearerKind.SRB)
    msg = PortMod(1, PortModCommand.CREATE, 1, spec)
    with pytest.raises(InvalidMessageError):
        encode_message(msg)


def test_zero_crnti_on_dedicated_bearer_is_invalid():
    spec = RadioBearer(crnti=0, bearer_id=1, bearer_kind=BearerKind.DRB)
    with pytest.raises(InvalidMessageError):
        encode_message(PortMod(1, PortModCommand.CREATE, 1, spec))


def test_empty_match_is_invalid():
    with pytest.raises(InvalidMessageError):
        encode_message(FlowMod(1, FlowModCommand.ADD, 1, FlowMatch(), 1))


def test_crnti_without_bearer_is_invalid():
    with pytest.raises(InvalidMessageError):
        encode_message(FlowMod(1, FlowModCommand.ADD, 1, FlowMatch(crnti=4), 1))


def test_delete_port_mod_carries_no_spec():
    msg = PortMod(4, PortModCommand.DELETE, 17, None)
    encoded = encode_message(msg)
    assert len(encoded) == 8 + 6
    assert decode_message(encoded) == msg


# -- randomized round-trips ---------------------------------------------------


def test_generator_round_trips_every_type():
    rng = random.Random(1234)
    seen = set()
    for i in range(2000):
        msg = random_message(rng, force_type=i % 4)
        seen.add(type(msg).__name__)
        assert decode_message(encode_message(msg)) == msg
    assert seen == {"Hello", "ErrorMsg", "PortMod", "FlowMod"}


@st.composite
def valid_messages(draw):
    rng = random.Random(draw(st.integers(0, 2**48)))
    return random_message(rng)


@given(valid_messages())
@settings(max_examples=300)
def test_round_trip_property(msg):
    encoded = encode_message(msg)
    assert struct.unpack(">H", encoded[2:4])[0] == len(encoded)
    assert decode_message(encoded) == msg


@given(st.binary(max_size=64))
@settings(max_examples=500)
def test_decoder_total_on_fuzzed_input(data):
    try:
        msg = decode_message(data)
    except WireDecodeError:
        return
    assert decode_message(encode_message(msg)) == msg


# -- differential properties against the reference codec ----------------------
# tests/helpers.py keeps the codec as it was before the precompiled structs.
# Both must agree on every input: the same message or bytes, or the same
# exception class with the same text (a node's ERROR carries that text). A
# field of the wrong type may fail in Python's own words, but with the same
# class.


def _outcome(fn, arg):
    """The result's repr, which names the type of every field, or the error's class and text."""
    try:
        return "ok", repr(fn(arg))
    except Open5GError as exc:
        return type(exc), str(exc)
    except Exception as exc:  # a field of the wrong type: the class must agree
        return type(exc), None


def _assert_decoders_agree(data: bytes) -> None:
    assert _outcome(decode_message, data) == _outcome(reference_decode_message, data)


def _assert_encoders_agree(msg) -> None:
    assert _outcome(encode_message, msg) == _outcome(reference_encode_message, msg)


@given(st.binary(max_size=96))
@settings(max_examples=500)
def test_decoder_agrees_with_reference_on_arbitrary_bytes(data):
    _assert_decoders_agree(data)


@given(st.integers(0, 255), st.binary(max_size=88))
@settings(max_examples=500)
def test_decoder_agrees_with_reference_on_arbitrary_bodies(msg_type, body):
    # a well-formed header, so that the body parsers see every input
    _assert_decoders_agree(struct.pack(">BBHI", 1, msg_type, 8 + len(body), 5) + body)


def _damaged(frame: bytes):
    """Every cut of the frame, with its length field as it was and, from 4
    bytes on, set to the cut; the frame with 1 and 3 bytes appended, its
    length field counting them; and every position set to each edge value."""
    for cut in range(len(frame) + 1):
        yield frame[:cut]
        if cut >= 4:
            yield frame[:2] + struct.pack(">H", cut) + frame[4:cut]
    for extra in (b"\x00", b"\x01\x02\x03"):
        yield frame[:2] + struct.pack(">H", len(frame) + len(extra)) + frame[4:] + extra
    for i, old in enumerate(frame):
        for new in {0, 1, 2, 3, 4, 31, 32, 0x7F, 0xFF, (old + 1) & 0xFF, (old - 1) & 0xFF} - {old}:
            yield frame[:i] + bytes([new]) + frame[i + 1 :]


@given(valid_messages())
@settings(max_examples=150)
def test_decoder_agrees_with_reference_on_damaged_frames(msg):
    for data in _damaged(encode_message(msg)):
        _assert_decoders_agree(data)


@given(valid_messages())
@settings(max_examples=150)
def test_every_decoded_message_passes_the_encoders_check(msg):
    """The decoder checks only the rules a parsed frame can break; what it
    returns must pass every rule that `encode_message` checks."""
    for data in _damaged(encode_message(msg)):
        try:
            decoded = decode_message(data)
        except WireDecodeError:
            continue
        wire.validate_message(decoded)


def _field_paths(obj, path=()):
    """Every attribute path below a message, tuple indexes included; a
    NamedTuple's fields are walked by name."""
    if hasattr(obj, "_fields"):
        children = list(zip(obj._fields, obj))
    elif isinstance(obj, tuple):
        children = list(enumerate(obj))
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


def _replaced(obj, path, value):
    """`obj` with the field at `path` set to `value`, rebuilt as its own type."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    if isinstance(key, int):
        out = obj[:key] + (_replaced(obj[key], rest, value),) + obj[key + 1 :]
    else:
        out = obj._replace(**{key: _replaced(getattr(obj, key), rest, value)})
    assert type(out) is type(obj)
    return out


# boundary and out-of-range values of every kind a field holds, and a few of
# the wrong kind
_REPLACEMENTS = [
    -1, 0, 1, 2, 3, 4, 7, 31, 32, 255, 256, wire.CRNTI_MAX, wire.CRNTI_MAX + 1,
    0xFFFF, 1 << 16, 0xFFFFFFFF, 1 << 32, True, 1.0, "x", None,
    b"", b"\x0a\x00\x01", b"\x0a\x00\x01\x01", b"\x0a\x00\x01\x01\x00", bytes(1 << 16),
    PortModCommand.DELETE, FlowModCommand.DELETE, BearerKind.SRB, BearerKind.DRB,
    FlowMatch(), FlowMatch(crnti=1), FlowMatch(bearer_id=1), FlowMatch(ip_proto=6),
    RadioBearer(1, 1, BearerKind.DRB), SigTunnel(b"\x0a\x00\x00\x01", 1), Hello(1), (),
]


@given(valid_messages())
@settings(max_examples=150)
def test_encoder_agrees_with_reference_with_one_field_replaced(msg):
    _assert_encoders_agree(msg)
    for path in _field_paths(msg):
        for value in _REPLACEMENTS:
            _assert_encoders_agree(_replaced(msg, path, value))


def test_encode_refuses_what_is_no_message():
    with pytest.raises(InvalidMessageError) as exc:
        encode_message(object())
    assert str(exc.value) == "unknown message class"


def test_encode_refuses_a_message_its_length_field_cannot_hold():
    """An ERROR's detail may be 65,535 bytes, but then the whole message is longer."""
    with pytest.raises(InvalidMessageError) as exc:
        encode_message(ErrorMsg(1, 2, bytes(0xFFFF)))
    assert str(exc.value) == "message too long"


def test_a_frame_sequence_ending_in_a_partial_header_is_truncated():
    with pytest.raises(TruncatedError) as exc:
        list(wire.iter_messages(encode_message(Hello(1)) + b"\x01\x01"))
    assert str(exc.value) == "partial header in frame sequence"


def test_a_frame_sequence_with_a_length_field_of_zero_is_malformed():
    """A length of 0 would never advance the split."""
    with pytest.raises(MalformedTlvError) as exc:
        list(wire.iter_messages(encode_message(Hello(1)) + bytes.fromhex("0101000000000002")))
    assert str(exc.value) == "length field 0 below header size"


# -- encapsulations -------------------------------------------------------------


def test_gtpu_round_trip():
    frame = wire.encap_gtpu(b"abc", teid=1)
    assert len(frame) == 8 + 3
    assert wire.decap_gtpu(frame) == (1, b"abc")


def test_gtpu_short_frame_truncated():
    with pytest.raises(TruncatedError):
        wire.decap_gtpu(b"\x30\xff\x00\x00\x00\x00\x00")


def test_gtpu_bad_flags():
    frame = bytearray(wire.encap_gtpu(b"x", 5))
    frame[0] = 0x32
    with pytest.raises(BadGtpuFlagsError):
        wire.decap_gtpu(bytes(frame))


def test_gtpu_length_field_must_match_the_payload():
    frame = wire.encap_gtpu(b"abc", 1)
    with pytest.raises(TruncatedError) as exc:
        wire.decap_gtpu(frame + b"x")
    assert str(exc.value) == "GTP-U length field 3, payload 4"


@pytest.mark.parametrize(
    "pack, message",
    [
        (lambda payload: wire.encap_gtpu(payload, 1), "GTP-U payload too long"),
        (lambda payload: wire.pack_envelope(1, payload), "envelope payload too long"),
        (lambda payload: wire.pack_ip_packet(wire.ip_bytes("10.0.1.2"), 6, 34, payload), "ip payload too long"),
    ],
    ids=["gtpu", "envelope", "ip_packet"],
)
def test_a_payload_its_u16_length_field_cannot_hold_is_refused(pack, message):
    assert len(pack(bytes(0xFFFF))) > 0xFFFF  # the largest length still packs
    with pytest.raises(InvalidMessageError) as exc:
        pack(bytes(0x10000))
    assert str(exc.value) == message


def test_sig_round_trip():
    frame = wire.encap_sig(b"rrc-bytes", tunnel_id=2)
    assert len(frame) == 8 + 9
    assert wire.decap_sig(frame) == (2, b"rrc-bytes")


def test_sig_bad_flags():
    frame = bytearray(wire.encap_sig(b"x", 2))
    frame[0] = 0x00
    with pytest.raises(BadSigFlagsError):
        wire.decap_sig(bytes(frame))


@given(st.binary(max_size=512), st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_encap_round_trip_property(payload, tunnel):
    assert wire.decap_gtpu(wire.encap_gtpu(payload, tunnel)) == (tunnel, payload)
    assert wire.decap_sig(wire.encap_sig(payload, tunnel)) == (tunnel, payload)


_U32 = st.integers(0, 2**32 - 1)
_SHORT = st.binary(max_size=24)
# any bytes, and each kind's valid frame as it is, one byte short and one byte long
_FRAMES = st.one_of(
    st.binary(max_size=40),
    st.builds(wire.encap_gtpu, _SHORT, _U32),
    st.builds(wire.encap_sig, _SHORT, _U32),
    st.builds(wire.pack_envelope, _U32, _SHORT),
    st.builds(
        wire.pack_ip_packet, st.binary(min_size=4, max_size=4), st.integers(0, 255), st.integers(0, 65535), _SHORT
    ),
).flatmap(lambda frame: st.sampled_from([frame, frame[:-1], frame + b"\0"]))


@pytest.mark.parametrize(
    "decode, reference",
    [
        (wire.decap_gtpu, reference_decap_gtpu),
        (wire.decap_sig, reference_decap_sig),
        (wire.unpack_envelope, reference_unpack_envelope),
        (wire.unpack_ip_packet, reference_unpack_ip_packet),
    ],
    ids=["gtpu", "sig", "envelope", "ip_packet"],
)
@given(data=_FRAMES)
@settings(max_examples=300)
def test_header_decoders_match_the_slice_and_unpack_reference(decode, reference, data):
    assert _outcome(decode, data) == _outcome(reference, data)


def test_envelope_round_trip():
    data = wire.pack_envelope(42, b"setup")
    assert len(data) == 6 + 5
    assert wire.unpack_envelope(data) == (42, b"setup")


def test_ip_packet_round_trip():
    packet = wire.pack_ip_packet(wire.ip_bytes("10.0.1.2"), 6, 34, b"payload")
    assert wire.unpack_ip_packet(packet) == (wire.ip_bytes("10.0.1.2"), 6, 34, b"payload")


_NEAR_MISSES = [
    "01.2.3.4", "1.02.3.4", "1.2.3.00", "256.1.1.1", "1.2.3.1000", "1..2.3", "1.2.3", "1.2.3.4.5",
    "1.2.3.4 ", " 1.2.3.4", "1.2.3.4\n", "\uff11.2.3.4", "\u0663.2.3.4", "+1.2.3.4", "-1.2.3.4",
    "1_0.2.3.4", "1.2.3.4/8", "0x1.2.3.4", "", ".", "...", "1.2.3.", "0.0.0.0", "255.255.255.255",
    "1" * 5000 + ".2.3.4",
]
_OCTET = st.one_of(
    st.integers(0, 300).map(str),
    st.text(alphabet="0123456789+-_ x\u0663\uff11", max_size=4),
)


@given(
    st.one_of(
        st.sampled_from(_NEAR_MISSES),
        st.text(),
        st.lists(_OCTET, min_size=3, max_size=5).map(".".join),
        st.binary(min_size=4, max_size=4).map(wire.ip_str),
    )
)
@settings(max_examples=500)
def test_ip_bytes_accepts_exactly_what_ipaddress_accepts(text):
    try:
        want = ipaddress.IPv4Address(text).packed
    except ValueError:
        with pytest.raises(ValueError):
            wire.ip_bytes(text)
    else:
        assert wire.ip_bytes(text) == want


@given(st.one_of(st.binary(min_size=4, max_size=4), st.binary(max_size=8)))
def test_ip_str_formats_as_ipaddress_does(packed):
    if len(packed) == 4:
        assert wire.ip_str(packed) == str(ipaddress.IPv4Address(packed))
    else:
        with pytest.raises(ValueError):
            ipaddress.IPv4Address(packed)
        with pytest.raises(ValueError):
            wire.ip_str(packed)


# -- match-field error messages ---------------------------------------------------
# These messages become the detail bytes of a node's ERROR, so they reach the
# trace digests; each row pins one match field's checks.

# name, TLV type, wire width, valid value, out-of-range value, validation message
MATCH_FIELD_CASES = [
    ("in_port", 1, 4, 7, 2**32, "in_port out of range"),
    ("crnti", 2, 2, 61, 2**16, "crnti out of range"),
    ("bearer_id", 3, 1, 1, 256, "bearer_id out of range"),
    ("ip_dst", 4, 4, wire.ip_bytes("10.0.1.1"), b"\x0a\x00\x01", "bad ip_dst length"),
    ("ip_proto", 5, 1, 6, 256, "ip_proto out of range"),
    ("l4_dst", 6, 2, 43, 2**16, "l4_dst out of range"),
]
_IDS = [case[0] for case in MATCH_FIELD_CASES]
_FULL_MATCH = FlowMatch(**{case[0]: case[3] for case in MATCH_FIELD_CASES})


def _encode_match(match: FlowMatch) -> bytes:
    return encode_message(FlowMod(1, FlowModCommand.ADD, 100, match, 1))


def _flow_mod_frame(tlvs: list[tuple[int, bytes]]) -> bytes:
    """A FLOW_MOD ADD with the given raw match TLVs, built without the codec."""
    body = struct.pack(">BHB", 0, 100, len(tlvs))
    body += b"".join(struct.pack(">HH", mtype, len(value)) + value for mtype, value in tlvs)
    body += struct.pack(">BI", 1, 1)
    return struct.pack(">BBHI", 1, 4, 8 + len(body), 9) + body


def _error_detail(frame: bytes) -> bytes:
    """The detail of the ERROR a node answers the frame with."""
    err = decode_message(DataPlaneNode("n", Rat.NR).handle_open5g(frame))
    assert (err.xid, err.code) == (0, MalformedTlvError.code)
    return err.detail


@pytest.mark.parametrize("index", range(len(MATCH_FIELD_CASES)), ids=_IDS)
def test_match_validation_reports_the_first_bad_field(index):
    """Every field from `index` on is out of range; the first one is named."""
    bad = {case[0]: case[4] for case in MATCH_FIELD_CASES[index:]}
    with pytest.raises(InvalidMessageError) as exc:
        _encode_match(_FULL_MATCH._replace(**bad))
    assert str(exc.value) == MATCH_FIELD_CASES[index][5]


def test_crnti_reserved_range_is_checked_right_after_its_range():
    with pytest.raises(InvalidMessageError) as exc:
        _encode_match(FlowMatch(crnti=wire.CRNTI_MAX + 1, bearer_id=256))
    assert str(exc.value) == "crnti above reserved range"
    frame = _flow_mod_frame([(2, struct.pack(">H", wire.CRNTI_MAX + 1)), (3, b"\x01")])
    with pytest.raises(MalformedTlvError) as exc:
        decode_message(frame)
    assert str(exc.value) == "crnti above reserved range"
    assert _error_detail(frame) == b"crnti above reserved range"


@pytest.mark.parametrize("name, mtype, width", [case[:3] for case in MATCH_FIELD_CASES], ids=_IDS)
def test_match_tlv_decode_messages(name, mtype, width):
    upper = name.upper()
    cases = [
        ([(mtype, bytes(width + 1))], f"match {upper} has length {width + 1}, want {width}"),
        ([(mtype, bytes(width - 1))], f"match {upper} has length {width - 1}, want {width}"),
        ([(mtype, bytes(width)), (mtype, bytes(width))], f"duplicate match field {upper}"),
    ]
    for tlvs, message in cases:
        frame = _flow_mod_frame(tlvs)
        with pytest.raises(MalformedTlvError) as exc:
            decode_message(frame)
        assert str(exc.value) == message
        assert _error_detail(frame) == message.encode()


@pytest.mark.parametrize("mtype", [0, 7, 0xFFFF])
def test_unknown_match_type_message(mtype):
    frame = _flow_mod_frame([(mtype, b"\x00")])
    with pytest.raises(MalformedTlvError) as exc:
        decode_message(frame)
    assert str(exc.value) == f"unknown match type {mtype}"
    assert _error_detail(frame) == f"unknown match type {mtype}".encode()


@pytest.mark.parametrize(
    "tlvs, message",
    [
        ([], "empty match"),
        ([(2, struct.pack(">H", 61))], "crnti and bearer_id must appear together"),
        ([(3, b"\x01"), (5, b"\x06")], "crnti and bearer_id must appear together"),
        ([(3, b"\x01"), (2, struct.pack(">H", wire.CRNTI_MAX + 1))], "crnti above reserved range"),
    ],
    ids=["empty", "crnti_alone", "bearer_alone", "crnti_reserved"],
)
def test_flow_mod_rules_a_parsed_frame_can_break(tlvs, message):
    frame = _flow_mod_frame(tlvs)
    assert _outcome(decode_message, frame) == (MalformedTlvError, message)
    assert _outcome(reference_decode_message, frame) == (MalformedTlvError, message)
    assert _error_detail(frame) == message.encode()


# -- the shape table -----------------------------------------------------------
# The controller sends six command shapes, and encode_message and
# decode_message take each through one whole-frame struct. A message or a
# frame near those shapes must still give the reference codec's bytes, its
# message with every field of the same type, or its error class and text.

_U32_TOP = (1 << 32) - 1


def _shape_commands(rng: random.Random) -> list:
    """Commands of the six shapes, built by the controller's own builders on
    a node of a random RAT with random ids and addresses: three radio ports
    (SRB0, SRB1 or SRB2, a DRB), each with the RAT's TLV block, a GTP-U port,
    a signaling port, and a FLOW_MOD ADD matching each of {crnti, bearer_id},
    {in_port} and {ip_dst, ip_proto, l4_dst}."""
    rat = rng.choice(list(Rat))
    ctl = Controller(admission_cap=1)
    ctl.register_node("n", rat, wire.ip_str(random_ip(rng)))
    node = ctl.nodes["n"]
    node.next_port_id = rng.choice([0, _U32_TOP - 4, rng.randrange(_U32_TOP - 4)])
    node.next_xid = rng.choice([0, _U32_TOP - 7, rng.randrange(_U32_TOP - 7)])
    crnti = rng.choice([1, wire.CRNTI_MAX, rng.randint(1, wire.CRNTI_MAX)])
    layers = default_layer_config(rat)
    radio = [
        RadioBearer(0, 0, BearerKind.SRB, layers),
        RadioBearer(crnti, rng.choice([3, 4]), BearerKind.SRB, layers),
        RadioBearer(crnti, rng.randrange(32), BearerKind.DRB, layers),
    ]
    radio_port, create_radio = ctl._create_port(node, radio[0])
    commands = [create_radio] + [ctl._create_port(node, spec)[1] for spec in radio[1:]]
    gtp = GtpTunnel(node.ngu_ip, random_ip(rng), rng.randrange(1 << 16), rng.randrange(1 << 32))
    sig_port, create_sig = ctl._create_port(node, SigTunnel(CONTROLLER_IP, rng.randrange(1 << 32)))
    commands += [ctl._create_port(node, gtp)[1], create_sig]
    matches = [
        FlowMatch(crnti=crnti, bearer_id=rng.randrange(256)),
        FlowMatch(in_port=sig_port),
        FlowMatch(ip_dst=random_ip(rng), ip_proto=rng.randrange(256), l4_dst=rng.randrange(1 << 16)),
    ]
    for match in matches:
        commands.append(ctl._add_flow(node, rng.choice([0, 0xFFFF, rng.randrange(1 << 16)]), match, radio_port))
    return commands


@functools.total_ordering
class _IntLike:
    """No int, though it compares and hashes as one and struct packs it
    through `__index__`, as a NumPy integer does."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self):
        return self.value

    def __eq__(self, other):
        return self.value == other

    def __lt__(self, other):
        return self.value < other

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"_IntLike({self.value})"


class _WideTlv(NamedTuple):
    """Has a ConfigTlv's fields, and one more."""

    tlv_type: int
    value: bytes
    note: int


# bool, IntEnum, an int-like object, negative, over-width and edge ints,
# addresses of 3 and 5 bytes, C-RNTI_MAX + 1, SRB bearer 5, C-RNTI 0, TLV
# type 65536, a TLV value too long for its frame, and layer configs of other
# types, one holding a TLV that is no ConfigTlv but has its fields
_HOSTILE = [
    _IntLike(1), _IntLike(3), (_WideTlv(1, b"x", 0),),
    True, False, BearerKind.SRB, BearerKind.DRB, MatchType.CRNTI, PortModCommand.CREATE, FlowModCommand.ADD,
    PortModCommand.MODIFY, -1, 0, 1, 5, 31, 32, 255, 256, wire.CRNTI_MAX, wire.CRNTI_MAX + 1, 0xFFFF, 1 << 16,
    _U32_TOP, 1 << 32, 1.0, None, "x", b"\x0a\x00\x01", b"\x0a\x00\x01\x01\x00", bytearray(b"\x0a\x00\x01\x01"),
    bytes(0xFFF0), bytes(1 << 16), (), [ConfigTlv(1, b"x")], (ConfigTlv(1, b"x"),), ((1, b"x"),),
    FlowMatch(crnti=1), RadioBearer(1, 1, BearerKind.DRB),
]


def test_the_six_shapes_have_their_sizes():
    commands = _shape_commands(random.Random(7))
    block = sum(4 + len(tlv.value) for tlv in commands[0].port_spec.layer_config)
    sizes = [len(encode_message(msg)) for msg in commands]
    assert sizes == [18 + block] * 3 + [28, 22, 28, 25, 36]


@given(st.integers(0, 2**48))
@settings(max_examples=15, deadline=None)
def test_each_shape_with_one_field_made_hostile_agrees_with_reference(seed):
    for msg in _shape_commands(random.Random(seed)):
        frame = encode_message(msg)
        assert frame == reference_encode_message(msg)
        assert repr(decode_message(frame)) == repr(msg)
        for path in _field_paths(msg):
            for value in _HOSTILE:
                _assert_encoders_agree(_replaced(msg, path, value))


def test_a_short_address_beside_one_with_no_length_is_a_bad_ip_length():
    """The validator tests the local address first and stops at its length."""
    msg = PortMod(1, PortModCommand.CREATE, 1, GtpTunnel(b"\x0a\x00\x01", 5, 2152, 1))
    assert _outcome(encode_message, msg) == (InvalidMessageError, "bad ip length")
    _assert_encoders_agree(msg)


def _match_tlvs(frame: bytes) -> tuple[list[bytes], bytes]:
    """A FLOW_MOD frame's match TLVs, and the action after them."""
    tlvs, off = [], 12
    for _ in range(frame[11]):
        (length,) = struct.unpack_from(">H", frame, off + 2)
        tlvs.append(frame[off : off + 4 + length])
        off += 4 + length
    return tlvs, frame[off:]


def _with_tlvs(frame: bytes, tlvs: list[bytes], action: bytes) -> bytes:
    """A FLOW_MOD frame with other match TLVs, its count and length set to them."""
    body = frame[8:11] + bytes([len(tlvs)]) + b"".join(tlvs) + action
    return frame[:2] + struct.pack(">H", 8 + len(body)) + frame[4:8] + body


def _shape_damage(frame: bytes):
    """`_damaged`, each bit of each byte flipped and each byte inverted, one
    byte added with the length field as it was, and in a FLOW_MOD each pair of
    neighbouring match TLVs swapped and each match TLV given twice."""
    yield from _damaged(frame)
    for i, old in enumerate(frame):
        for mask in (1, 2, 4, 8, 16, 32, 64, 128, 0xFF):
            yield frame[:i] + bytes([old ^ mask]) + frame[i + 1 :]
    yield frame + b"\x00"
    if frame[1] == wire.MsgType.FLOW_MOD:
        tlvs, action = _match_tlvs(frame)
        for i in range(len(tlvs)):
            yield _with_tlvs(frame, tlvs[:i] + [tlvs[i]] + tlvs[i:], action)
            if i + 1 < len(tlvs):
                yield _with_tlvs(frame, tlvs[:i] + [tlvs[i + 1], tlvs[i]] + tlvs[i + 2 :], action)


def _split_outcome(split, data: bytes):
    """The reprs of the messages a splitter yields, then its error's class and text."""
    got = []
    try:
        for msg in split(data):
            got.append(repr(msg))
    except Open5GError as exc:
        return got, type(exc), str(exc)
    return got, "ok"


@given(st.integers(0, 2**48))
@settings(max_examples=5, deadline=None)
def test_each_shape_damaged_decodes_as_the_reference_does(seed):
    commands = _shape_commands(random.Random(seed))
    frames = [encode_message(msg) for msg in commands]
    for k, frame in enumerate(frames):
        _assert_decoders_agree(bytearray(frame))  # a radio port's TLV values are bytearrays too
        before, after = frames[k - 1], frames[(k + 1) % len(frames)]
        for data in _shape_damage(frame):
            _assert_decoders_agree(data)
            joined = before + data + after
            assert _split_outcome(wire.iter_messages, joined) == _split_outcome(reference_iter_messages, joined)


def test_the_tlv_block_caches_stay_bounded_and_right():
    """More distinct layer configs than a cache holds, each encoded and decoded
    twice: every frame and message agrees with the reference codec."""
    for i in range(3 * wire._CACHE_MAX):
        layers = (ConfigTlv(i, bytes([i % 256]) * (i % 7)), ConfigTlv(0xFFFF - i, b""))
        msg = PortMod(i, PortModCommand.CREATE, i, RadioBearer(1, 1, BearerKind.DRB, layers))
        for _ in range(2):
            frame = encode_message(msg)
            assert frame == reference_encode_message(msg)
            assert repr(decode_message(frame)) == repr(reference_decode_message(frame))
        assert len(wire._TLV_BLOCKS) <= wire._CACHE_MAX
        assert wire._layer_config.cache_info().currsize <= wire._CACHE_MAX


def test_a_layer_config_that_can_change_is_written_anew_each_time():
    """A list, or a TLV value in a bytearray, may change between two encodes;
    each encode writes what it holds then."""
    value = bytearray(b"x")
    for layers, change in [
        ([ConfigTlv(1, b"x")], lambda layers: layers.append(ConfigTlv(2, b"yz"))),
        ((ConfigTlv(1, value),), lambda _: value.extend(b"yz")),
    ]:
        msg = PortMod(1, PortModCommand.CREATE, 1, RadioBearer(1, 1, BearerKind.DRB, layers))
        first = encode_message(msg)
        change(layers)
        assert first != encode_message(msg) == reference_encode_message(msg)


@pytest.mark.parametrize(
    "build",
    [lambda: bundled_scenario("initial_access"), lambda: bundled_scenario("multi_rat"), lambda: generated_scenario(128)],
    ids=["initial_access", "multi_rat", "multi_rat_128_ues"],
)
def test_every_command_the_controller_sends_goes_through_the_shape_table(monkeypatch, build):
    """The walker starts with `validate_message` when it encodes and with
    `_read` when it decodes; no command of a run may reach either."""
    calls = _count_walker(monkeypatch)
    monkeypatch.setattr(wire, "encode_message", _counted(calls, "encode", wire.encode_message))
    monkeypatch.setattr(wire, "decode_message", _counted(calls, "decode", wire.decode_message))
    Simulator(*build()).run()
    assert calls["encode"] == calls["decode"] > 0
    assert calls["walker encode"] == calls["walker decode"] == 0
    # a message and a frame that break a rule reach the walker once each
    msg = FlowMod(1, FlowModCommand.ADD, 1, FlowMatch(crnti=1, bearer_id=1), 1)
    frame = wire.encode_message(msg)
    with pytest.raises(InvalidMessageError, match="crnti above reserved range"):
        wire.encode_message(msg._replace(match=FlowMatch(crnti=wire.CRNTI_MAX + 1, bearer_id=1)))
    with pytest.raises(MalformedTlvError, match="crnti above reserved range"):
        wire.decode_message(frame[:16] + struct.pack(">H", wire.CRNTI_MAX + 1) + frame[18:])
    assert calls["walker encode"] == calls["walker decode"] == 1


def _counted(calls: Counter, name: str, fn):
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


def _count_walker(monkeypatch) -> Counter:
    """Counts calls of the walker's two entry points, `validate_message`, which
    encode_message calls, and `_read`, which decode_message calls."""
    calls = Counter()
    monkeypatch.setattr(wire, "validate_message", _counted(calls, "walker encode", wire.validate_message))
    monkeypatch.setattr(wire, "_read", _counted(calls, "walker decode", wire._read))
    return calls


_OTHER_KINDS = {
    "port_mod_modify": lambda rng, xid: PortMod(
        xid, PortModCommand.MODIFY, rng.randrange(1 << 32), random_port_spec(rng)
    ),
    "port_mod_delete": lambda rng, xid: PortMod(xid, PortModCommand.DELETE, rng.randrange(1 << 32)),
    "flow_mod_delete": lambda rng, xid: FlowMod(
        xid, FlowModCommand.DELETE, rng.randrange(1 << 16), random_match(rng), rng.randrange(1 << 32)
    ),
    "hello": lambda rng, xid: Hello(xid),
    "error": lambda rng, xid: ErrorMsg(xid, rng.randrange(1 << 16), rng.randbytes(rng.randrange(40))),
}


@pytest.mark.parametrize("kind", sorted(_OTHER_KINDS))
def test_each_other_kind_goes_through_a_compiled_entry(monkeypatch, kind):
    """Random messages of the kinds the controller does not send encode and
    decode through their shapes' compiled entries, as the reference codec
    does: an exact-match FLOW_MOD DELETE sets any fields, and a PORT_MOD
    MODIFY carries any spec."""
    calls = _count_walker(monkeypatch)
    rng = random.Random(kind)
    for _ in range(300):
        msg = _OTHER_KINDS[kind](rng, rng.choice([0, _U32_TOP, rng.randrange(_U32_TOP)]))
        frame = encode_message(msg)
        assert frame == reference_encode_message(msg)
        assert repr(decode_message(frame)) == repr(msg) == repr(reference_decode_message(frame))
    assert calls == Counter()
