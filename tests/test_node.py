import copy

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from open5gsim import errors, wire
from open5gsim.errors import (
    DuplicateEntryError,
    TruncatedError,
    UnknownOutPortError,
    UnsupportedLayerError,
)
from open5gsim.node import DataPlaneNode, Rat
from open5gsim.wire import (
    BearerKind,
    ConfigTlv,
    FlowMatch,
    FlowMod,
    FlowModCommand,
    GtpTunnel,
    Hello,
    LayerTlv,
    PortMod,
    PortModCommand,
    RadioBearer,
    SigTunnel,
    decode_message,
    encode_message,
)

NODE_IP = wire.ip_bytes("10.0.0.1")
UPF_IP = wire.ip_bytes("10.9.0.1")
SRC_IP = wire.ip_bytes("10.255.0.1")
IP1 = wire.ip_bytes("10.0.1.1")
IP2 = wire.ip_bytes("10.0.1.2")
TCP = 6

# Port ids mirror the reference d-gNB layout used in the switch tests.
LP_NGU, LP_SIG, LP_SRB1, LP_DRB1, LP_DRB2 = 1, 2, 3, 4, 5


def reference_batch() -> bytes:
    """One batched byte stream installing the full reference configuration."""
    port_mods = [
        PortMod(1, PortModCommand.CREATE, LP_NGU, GtpTunnel(NODE_IP, UPF_IP, 2152, 1)),
        PortMod(2, PortModCommand.CREATE, LP_SIG, SigTunnel(SRC_IP, 2)),
        PortMod(3, PortModCommand.CREATE, LP_SRB1, RadioBearer(1, 3, BearerKind.SRB)),
        PortMod(4, PortModCommand.CREATE, LP_DRB1, RadioBearer(1, 1, BearerKind.DRB)),
        PortMod(5, PortModCommand.CREATE, LP_DRB2, RadioBearer(1, 2, BearerKind.DRB)),
    ]
    flow_mods = [
        FlowMod(6, FlowModCommand.ADD, 120, FlowMatch(crnti=1, bearer_id=1), LP_NGU),
        FlowMod(7, FlowModCommand.ADD, 120, FlowMatch(crnti=1, bearer_id=2), LP_NGU),
        FlowMod(8, FlowModCommand.ADD, 110, FlowMatch(ip_dst=IP1, ip_proto=TCP, l4_dst=43), LP_DRB1),
        FlowMod(9, FlowModCommand.ADD, 110, FlowMatch(ip_dst=IP1, ip_proto=TCP, l4_dst=23), LP_DRB1),
        FlowMod(10, FlowModCommand.ADD, 110, FlowMatch(ip_dst=IP2, ip_proto=TCP, l4_dst=34), LP_DRB2),
        FlowMod(11, FlowModCommand.ADD, 100, FlowMatch(crnti=1, bearer_id=3), LP_SIG),
        FlowMod(12, FlowModCommand.ADD, 100, FlowMatch(in_port=LP_SIG), LP_SRB1),
    ]
    return b"".join(encode_message(m) for m in port_mods + flow_mods)


def reference_node() -> DataPlaneNode:
    n = DataPlaneNode("gnb1", Rat.NR)
    assert n.handle_open5g(reference_batch()) is None
    return n


@pytest.fixture
def node() -> DataPlaneNode:
    return reference_node()


# -- command handling ----------------------------------------------------------


def test_valid_commands_produce_no_response(node):
    assert len(node.registry.ports) == 5
    assert len(node.table) == 7


def test_hello_is_silent():
    n = DataPlaneNode("gnb1", Rat.NR)
    assert n.handle_open5g(encode_message(Hello(1))) is None


def test_each_error_class_reports_its_fixed_code():
    """A node puts these numbers on the wire, in ERROR messages."""
    classes = [c for c in _subclasses(errors.Open5GError) if c.__module__ == errors.__name__]
    codes = {c.__name__: c.code for c in classes if "code" in vars(c)}
    assert codes == {
        "Open5GError": 0, "TruncatedError": 1, "BadVersionError": 2, "UnknownTypeError": 3, "MalformedTlvError": 4,
        "InvalidMessageError": 5, "DuplicatePortError": 6, "UnknownPortError": 7, "DuplicateBearerError": 8,
        "UnknownOutPortError": 9, "DuplicateEntryError": 10, "UnsupportedLayerError": 11, "BadGtpuFlagsError": 12,
        "BadSigFlagsError": 13,
    }


def _subclasses(cls: type) -> list[type]:
    return [cls] + [sub for direct in cls.__subclasses__() for sub in _subclasses(direct)]


def test_malformed_bytes_produce_single_error():
    n = DataPlaneNode("gnb1", Rat.NR)
    err = decode_message(n.handle_open5g(b"\x01\x04\x00\x0b\x00\x00\x00\x01junk"))
    assert err.code == TruncatedError.code  # flow-mod body shorter than its header claims
    assert err.xid == 0  # offending message never decoded; no xid to echo


def test_flow_mod_to_unknown_port_errors_and_preserves_table(node):
    before = copy.deepcopy(node.table.entries)
    bad = FlowMod(99, FlowModCommand.ADD, 50, FlowMatch(in_port=1), 77)
    err = decode_message(node.handle_open5g(encode_message(bad)))
    assert err.code == UnknownOutPortError.code
    assert err.xid == 99
    assert node.table.entries == before


def test_duplicate_flow_mod_add_error_detail_shows_the_match(node):
    # the detail is the error text cut to 64 bytes; it reaches the trace digests
    dup = FlowMod(99, FlowModCommand.ADD, 100, FlowMatch(crnti=1, bearer_id=3), LP_SIG)
    err = decode_message(node.handle_open5g(encode_message(dup)))
    assert (err.xid, err.code) == (99, DuplicateEntryError.code)
    assert err.detail == b"entry (priority 100, FlowMatch(in_port=None, crnti=1, bearer_id="


def test_batch_stops_at_first_failure():
    n = DataPlaneNode("gnb1", Rat.NR)
    good = PortMod(1, PortModCommand.CREATE, 1, SigTunnel(SRC_IP, 1))
    bad = PortMod(2, PortModCommand.CREATE, 1, SigTunnel(SRC_IP, 9))
    tail = PortMod(3, PortModCommand.CREATE, 7, SigTunnel(SRC_IP, 7))
    out = n.handle_open5g(b"".join(encode_message(m) for m in (good, bad, tail)))
    assert decode_message(out).xid == 2
    assert 1 in n.registry.ports and 7 not in n.registry.ports


def test_wlan_rejects_sdap_and_pdcp_layers():
    n = DataPlaneNode("wt1", Rat.WLAN)
    spec = RadioBearer(1, 1, BearerKind.DRB, (ConfigTlv(int(LayerTlv.PDCP), b""),))
    out = n.handle_open5g(encode_message(PortMod(1, PortModCommand.CREATE, 1, spec)))
    assert decode_message(out).code == UnsupportedLayerError.code
    assert len(n.registry.ports) == 0


def test_wlan_accepts_mac_phy_layers():
    n = DataPlaneNode("wt1", Rat.WLAN)
    spec = RadioBearer(
        1, 1, BearerKind.DRB,
        (ConfigTlv(int(LayerTlv.MAC), b""), ConfigTlv(int(LayerTlv.PHY), b"")),
    )
    assert n.handle_open5g(encode_message(PortMod(1, PortModCommand.CREATE, 1, spec))) is None


# -- packet paths --------------------------------------------------------------


def test_uplink_drb_data_goes_to_ngu_tunnel(node):
    spec, frame = node.ingress_radio(crnti=1, bearer_id=1, payload=b"data")
    assert spec is node.registry.get(LP_NGU) and isinstance(spec, GtpTunnel)
    assert wire.decap_gtpu(frame) == (1, b"data")


def test_uplink_srb1_goes_to_sig_tunnel(node):
    spec, frame = node.ingress_radio(crnti=1, bearer_id=3, payload=b"rrc")
    assert spec is node.registry.get(LP_SIG) and isinstance(spec, SigTunnel)
    assert wire.decap_sig(frame) == (2, b"rrc")


def test_downlink_ngu_frame_reaches_matching_drb(node):
    packet = wire.pack_ip_packet(IP2, TCP, 34, b"web")
    spec, frame = node.ingress_ngu(wire.encap_gtpu(packet, teid=1))
    assert isinstance(spec, RadioBearer)
    assert (spec.crnti, spec.bearer_id) == (1, 2)
    assert frame == packet


def test_downlink_sig_frame_reaches_srb1(node):
    spec, frame = node.ingress_sigtunnel(wire.encap_sig(b"rrc-dl", tunnel_id=2))
    assert isinstance(spec, RadioBearer)
    assert (spec.crnti, spec.bearer_id) == (1, 3)
    assert frame == b"rrc-dl"


def srb0_node() -> DataPlaneNode:
    """A node with only the common SRB0 pair: sig tunnel 1 <-> radio (0, 0)."""
    n = DataPlaneNode("gnb1", Rat.NR)
    batch = b"".join(
        encode_message(m)
        for m in (
            PortMod(1, PortModCommand.CREATE, 1, SigTunnel(SRC_IP, 1)),
            PortMod(2, PortModCommand.CREATE, 2, RadioBearer(0, 0, BearerKind.SRB)),
            FlowMod(3, FlowModCommand.ADD, 100, FlowMatch(crnti=0, bearer_id=0), 1),
            FlowMod(4, FlowModCommand.ADD, 100, FlowMatch(in_port=1), 2),
        )
    )
    assert n.handle_open5g(batch) is None
    return n


def test_srb0_downlink_addressed_by_envelope():
    """The node passes the envelope on unopened: the air side reads the address."""
    n = srb0_node()
    envelope = wire.pack_envelope(42, b"setup")
    spec, frame = n.ingress_sigtunnel(wire.encap_sig(envelope, tunnel_id=1))
    assert spec is n.registry.get(2)
    assert (spec.crnti, spec.bearer_id) == (0, 0)
    assert frame == envelope
    assert n.drop_count == 0


def test_unknown_crnti_drops(node):
    assert node.ingress_radio(9, 1, b"x") is None
    assert node.drop_count == 1


def test_unknown_sig_tunnel_drops(node):
    assert node.ingress_sigtunnel(wire.encap_sig(b"x", tunnel_id=99)) is None
    assert node.drop_count == 1


def test_unmatched_downlink_tuple_drops(node):
    packet = wire.pack_ip_packet(IP1, 17, 9999, b"x")
    assert node.ingress_ngu(wire.encap_gtpu(packet, 1)) is None
    assert node.drop_count == 1


def test_bad_gtpu_frame_drops(node):
    assert node.ingress_ngu(b"\xff\x00") is None
    assert node.drop_count == 1


def test_conservation_over_mixed_traffic(node):
    sent = 0
    delivered = 0
    for crnti, bearer in [(1, 1), (1, 2), (1, 3), (9, 1), (1, 7)]:
        sent += 1
        delivered += node.ingress_radio(crnti, bearer, b"p") is not None
    for dst, l4 in [(IP1, 43), (IP1, 23), (IP2, 34), (IP2, 99)]:
        sent += 1
        packet = wire.pack_ip_packet(dst, TCP, l4, b"p")
        delivered += node.ingress_ngu(wire.encap_gtpu(packet, 1)) is not None
    assert sent == delivered + node.drop_count


def test_port_delete_cascade_via_commands(node):
    delete = PortMod(20, PortModCommand.DELETE, LP_DRB1, None)
    assert node.handle_open5g(encode_message(delete)) is None
    assert len(node.table) == 4
    assert node.ingress_radio(1, 1, b"x") is None  # uplink row is gone too
    assert node.drop_count == 1


# -- drop paths ------------------------------------------------------------------


@pytest.mark.parametrize(
    "frame", [b"\x20\x00", b"\x00\x00\x00\x00\x00\x00\x00\x02rrc"], ids=["truncated", "bad_flags"]
)
def test_bad_sig_frame_drops(node, frame):
    assert node.ingress_sigtunnel(frame) is None
    assert node.drop_count == 1


def test_entry_whose_out_port_is_gone_drops(node):
    """An entry can outlive its out-port only through `table.entries = [...]`;
    every ingress then drops what it matches."""
    node.table.entries = [e._replace(out_port=77) for e in node.table.entries]
    packet = wire.pack_ip_packet(IP2, TCP, 34, b"web")
    assert node.ingress_radio(1, 1, b"data") is None
    assert node.ingress_ngu(wire.encap_gtpu(packet, teid=1)) is None
    assert node.ingress_sigtunnel(wire.encap_sig(b"rrc-dl", tunnel_id=2)) is None
    assert node.drop_count == 3


_PACKETS = st.one_of(
    st.binary(max_size=48),
    st.builds(
        wire.pack_ip_packet,
        st.sampled_from([IP1, IP2]),
        st.sampled_from([TCP, 17]),
        st.sampled_from([23, 34, 43, 9999]),
        st.binary(max_size=16),
    ),
)


@given(
    data=_PACKETS,
    crnti=st.sampled_from([0, 1, 9]) | st.integers(0, 0xFFFF),
    bearer_id=st.integers(0, 7),
    tunnel=st.integers(0, 3),
)
@example(data=b"\x30\xff", crnti=1, bearer_id=1, tunnel=1)  # a short GTP-U frame
@example(data=b"rrc", crnti=1, bearer_id=3, tunnel=99)  # an unknown tunnel
@example(data=wire.pack_envelope(42, b"setup"), crnti=0, bearer_id=0, tunnel=1)  # an envelope on SRB0
def test_one_packet_in_at_most_one_out_every_drop_counted(data, crnti, bearer_id, tunnel):
    """Each ingress returns None exactly when it counts a drop, and otherwise
    one of the node's own port specs with the frame leaving on it."""
    for n in (reference_node(), srb0_node()):
        calls = (
            (n.ingress_radio, (crnti, bearer_id, data)),
            (n.ingress_ngu, (data,)),
            (n.ingress_ngu, (wire.encap_gtpu(data, tunnel),)),
            (n.ingress_sigtunnel, (data,)),
            (n.ingress_sigtunnel, (wire.encap_sig(data, tunnel),)),
        )
        for ingress, args in calls:
            before = n.drop_count
            out = ingress(*args)
            assert n.drop_count == before + (out is None)
            if out is not None:
                spec, frame = out
                assert isinstance(frame, bytes)
                assert any(spec is n.registry.get(p) for p in n.registry.ports)


def test_batch_with_undecodable_second_frame():
    """The ERROR for a frame that never decoded carries xid 0, even though
    the batch's first command decoded and stays applied."""
    n = DataPlaneNode("gnb1", Rat.NR)
    good = encode_message(PortMod(5, PortModCommand.CREATE, 1, SigTunnel(SRC_IP, 1)))
    err = decode_message(n.handle_open5g(good + b"\x01\x04\x00\x0b\x00\x00\x00\x06junk"))
    assert (err.xid, err.code) == (0, TruncatedError.code)
    assert 1 in n.registry.ports
