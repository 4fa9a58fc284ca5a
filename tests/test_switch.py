import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ScanFlowTable, ScanPortRegistry, oracle_match, random_context, random_entries
from open5gsim import wire
from open5gsim.errors import (
    DuplicateBearerError,
    DuplicateEntryError,
    DuplicatePortError,
    Open5GError,
    UnknownOutPortError,
    UnknownPortError,
)
from open5gsim.switch import FlowTable, PortRegistry
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

IP1 = wire.ip_bytes("10.0.1.1")
IP2 = wire.ip_bytes("10.0.1.2")
TCP = 6

# Port ids for the reference d-gNB table: LP1 = NG-U tunnel, LP2 = SRC tunnel,
# LP3 = SRB-1 radio, LP4 = DRB-1 radio, LP5 = DRB-2 radio.
LP1, LP2, LP3, LP4, LP5 = 1, 2, 3, 4, 5


def reference_ports() -> PortRegistry:
    registry = PortRegistry()
    specs = {
        LP1: GtpTunnel(wire.ip_bytes("10.0.0.1"), wire.ip_bytes("10.9.0.1"), udp_port=1, teid=1),
        LP2: SigTunnel(wire.ip_bytes("10.255.0.1"), tunnel_id=2),
        LP3: RadioBearer(1, 3, BearerKind.SRB),
        LP4: RadioBearer(1, 1, BearerKind.DRB),
        LP5: RadioBearer(1, 2, BearerKind.DRB),
    }
    for port_id, spec in specs.items():
        registry.apply_port_mod(PortMod(1, PortModCommand.CREATE, port_id, spec))
    return registry


def reference_rows() -> list[FlowMod]:
    """The seven (match, out-port) rows of the reference flow table, in order."""
    return [
        FlowMod(1, FlowModCommand.ADD, 120, FlowMatch(crnti=1, bearer_id=1), LP1),
        FlowMod(1, FlowModCommand.ADD, 120, FlowMatch(crnti=1, bearer_id=2), LP1),
        FlowMod(1, FlowModCommand.ADD, 110, FlowMatch(ip_dst=IP1, ip_proto=TCP, l4_dst=43), LP4),
        FlowMod(1, FlowModCommand.ADD, 110, FlowMatch(ip_dst=IP1, ip_proto=TCP, l4_dst=23), LP4),
        FlowMod(1, FlowModCommand.ADD, 110, FlowMatch(ip_dst=IP2, ip_proto=TCP, l4_dst=34), LP5),
        FlowMod(1, FlowModCommand.ADD, 100, FlowMatch(crnti=1, bearer_id=3), LP2),
        FlowMod(1, FlowModCommand.ADD, 100, FlowMatch(in_port=LP2), LP3),
    ]


@pytest.fixture
def reference_state():
    registry = reference_ports()
    table = FlowTable()
    for msg in reference_rows():
        table.apply_flow_mod(msg, registry)
    return registry, table


# -- port registry -----------------------------------------------------------


def test_create_sig_port_on_empty_registry():
    registry = PortRegistry()
    msg = PortMod(1, PortModCommand.CREATE, 1, SigTunnel(wire.ip_bytes("10.255.0.1"), 1))
    registry.apply_port_mod(msg)
    assert len(registry.ports) == 1


def test_create_duplicate_port_id_rejected():
    registry = reference_ports()
    msg = PortMod(1, PortModCommand.CREATE, LP1, SigTunnel(wire.ip_bytes("10.255.0.1"), 9))
    with pytest.raises(DuplicatePortError):
        registry.apply_port_mod(msg)


def test_duplicate_bearer_rejected():
    registry = reference_ports()
    msg = PortMod(1, PortModCommand.CREATE, 9, RadioBearer(1, 1, BearerKind.DRB))
    with pytest.raises(DuplicateBearerError):
        registry.apply_port_mod(msg)


def test_modify_unknown_port_rejected():
    registry = PortRegistry()
    msg = PortMod(1, PortModCommand.MODIFY, 4, RadioBearer(1, 1, BearerKind.DRB))
    with pytest.raises(UnknownPortError):
        registry.apply_port_mod(msg)


def test_delete_unknown_port_rejected():
    with pytest.raises(UnknownPortError):
        PortRegistry().apply_port_mod(PortMod(1, PortModCommand.DELETE, 4, None))


def test_delete_cascades_to_referencing_entries(reference_state):
    registry, table = reference_state
    spec = registry.apply_port_mod(PortMod(1, PortModCommand.DELETE, LP4, None))
    removed = table.drop_port_references(LP4, spec)
    # rows 1, 3, 4 reference DRB-1: its uplink match and both downlink outputs
    assert removed == 3
    assert len(table) == 4
    for entry in table.entries:
        assert entry.out_port != LP4
        assert not (entry.match.crnti == 1 and entry.match.bearer_id == 1)


def test_cascade_matches_brute_force_scan(reference_state):
    registry, table = reference_state
    from open5gsim.switch import entry_references_port

    for victim in (LP1, LP2, LP3, LP4, LP5):
        registry2 = reference_ports()
        table2 = FlowTable()
        for msg in reference_rows():
            table2.apply_flow_mod(msg, registry2)
        spec = registry2.apply_port_mod(PortMod(1, PortModCommand.DELETE, victim, None))
        expected = [e for e in table2.entries if not entry_references_port(e, victim, spec)]
        table2.drop_port_references(victim, spec)
        assert table2.entries == expected


# -- flow table --------------------------------------------------------------


def test_install_all_seven_rows(reference_state):
    _, table = reference_state
    assert len(table) == 7


def test_add_with_unknown_out_port_rejected():
    registry = PortRegistry()
    table = FlowTable()
    msg = FlowMod(1, FlowModCommand.ADD, 1, FlowMatch(in_port=1), 99)
    with pytest.raises(UnknownOutPortError):
        table.apply_flow_mod(msg, registry)


def test_duplicate_entry_rejected(reference_state):
    registry, table = reference_state
    with pytest.raises(DuplicateEntryError):
        table.apply_flow_mod(reference_rows()[0], registry)
    with pytest.raises(DuplicateEntryError) as exc:
        table.apply_flow_mod(reference_rows()[2], registry)
    assert str(exc.value) == (
        "entry (priority 110, FlowMatch(in_port=None, crnti=None, bearer_id=None, "
        "ip_dst=b'\\n\\x00\\x01\\x01', ip_proto=6, l4_dst=43)) already present"
    )


def test_exact_match_delete(reference_state):
    registry, table = reference_state
    row3 = reference_rows()[2]
    table.apply_flow_mod(
        FlowMod(1, FlowModCommand.DELETE, 0, row3.match, row3.out_port), registry
    )
    assert len(table) == 6
    ctx = FlowMatch(ip_dst=IP1, ip_proto=TCP, l4_dst=43)
    assert table.match(ctx) is None


# -- matching ------------------------------------------------------------------


def test_uplink_drb1_maps_to_ngu_tunnel(reference_state):
    _, table = reference_state
    assert table.match(FlowMatch(crnti=1, bearer_id=1)) == LP1


def test_downlink_flow3_maps_to_drb2(reference_state):
    _, table = reference_state
    ctx = FlowMatch(ip_dst=IP2, ip_proto=TCP, l4_dst=34)
    assert table.match(ctx) == LP5


def test_unknown_ue_has_no_match(reference_state):
    _, table = reference_state
    assert table.match(FlowMatch(crnti=9, bearer_id=1)) is None


def test_reference_table_is_exactly_the_seven_pairs(reference_state):
    _, table = reference_state
    got = [(e.match, e.out_port) for e in table.entries]
    want = [(m.match, m.out_port) for m in reference_rows()]
    assert got == want


def test_exhaustive_cross_product_matches_oracle(reference_state):
    _, table = reference_state
    tuples = [(IP1, TCP, 43), (IP1, TCP, 23), (IP2, TCP, 34)]
    contexts = [
        FlowMatch(crnti=crnti, bearer_id=bearer)
        for crnti in (1, 9)
        for bearer in (1, 2, 3)
    ] + [FlowMatch(ip_dst=d, ip_proto=p, l4_dst=l) for d, p, l in tuples]
    for ctx in contexts:
        assert table.match(ctx) == oracle_match(table.entries, ctx)


def test_equal_priority_ties_break_by_install_order():
    registry = reference_ports()
    table = FlowTable()
    first = FlowMod(1, FlowModCommand.ADD, 50, FlowMatch(crnti=1, bearer_id=1), LP1)
    second = FlowMod(1, FlowModCommand.ADD, 50, FlowMatch(in_port=LP4), LP2)
    table.apply_flow_mod(first, registry)
    table.apply_flow_mod(second, registry)
    ctx = FlowMatch(crnti=1, bearer_id=1, in_port=LP4)
    assert table.match(ctx) == LP1


def test_higher_priority_wins():
    registry = reference_ports()
    table = FlowTable()
    low = FlowMod(1, FlowModCommand.ADD, 10, FlowMatch(crnti=1, bearer_id=1), LP1)
    high = FlowMod(1, FlowModCommand.ADD, 90, FlowMatch(crnti=1, bearer_id=1), LP2)
    # same match at different priorities is allowed; higher must win
    table.apply_flow_mod(low, registry)
    table.apply_flow_mod(high, registry)
    assert table.match(FlowMatch(crnti=1, bearer_id=1)) == LP2


def test_match_equals_oracle_on_large_random_table():
    rng = random.Random(77)
    table = FlowTable()
    table.entries = random_entries(rng, 1000)
    for _ in range(500):
        ctx = random_context(rng)
        assert table.match(ctx) == oracle_match(table.entries, ctx)


def test_determinism_of_command_replay():
    def build():
        registry = reference_ports()
        table = FlowTable()
        for msg in reference_rows():
            table.apply_flow_mod(msg, registry)
        return registry, table

    r1, t1 = build()
    r2, t2 = build()
    assert list(r1.ports.items()) == list(r2.ports.items())
    assert t1.entries == t2.entries


# -- indexes -------------------------------------------------------------------


def _create(registry: PortRegistry, port_id: int, spec) -> None:
    registry.apply_port_mod(PortMod(1, PortModCommand.CREATE, port_id, spec))


def _gtp(udp_port: int, teid: int) -> GtpTunnel:
    return GtpTunnel(IP1, IP2, udp_port, teid)


def test_shared_teid_resolves_to_earliest_created_port():
    registry = PortRegistry()
    _create(registry, 7, _gtp(2152, 9))
    _create(registry, 3, _gtp(2153, 9))
    assert registry.gtp_port(9) == 7
    registry.apply_port_mod(PortMod(1, PortModCommand.DELETE, 7, None))
    assert registry.gtp_port(9) == 3
    registry.apply_port_mod(PortMod(1, PortModCommand.DELETE, 3, None))
    assert registry.gtp_port(9) is None


def test_modify_into_shared_teid_keeps_creation_order():
    registry = PortRegistry()
    _create(registry, 1, RadioBearer(1, 1, BearerKind.DRB))
    _create(registry, 2, _gtp(2152, 9))
    registry.apply_port_mod(PortMod(1, PortModCommand.MODIFY, 1, _gtp(2153, 9)))
    assert registry.gtp_port(9) == 1  # created first, though modified last


def test_modify_frees_the_old_key():
    registry = PortRegistry()
    _create(registry, 1, RadioBearer(1, 1, BearerKind.DRB))
    registry.apply_port_mod(PortMod(1, PortModCommand.MODIFY, 1, RadioBearer(1, 2, BearerKind.DRB)))
    assert registry.radio_port(1, 1) is None
    assert registry.radio_port(1, 2) == 1
    _create(registry, 2, RadioBearer(1, 1, BearerKind.DRB))
    assert registry.radio_port(1, 1) == 2
    with pytest.raises(DuplicateBearerError):
        _create(registry, 3, RadioBearer(1, 2, BearerKind.DRB))


def test_modify_across_classes_frees_the_old_key():
    registry = PortRegistry()
    _create(registry, 1, _gtp(2152, 9))
    registry.apply_port_mod(PortMod(1, PortModCommand.MODIFY, 1, SigTunnel(IP1, 4)))
    assert registry.gtp_port(9) is None
    assert registry.sig_port(4) == 1
    _create(registry, 2, _gtp(2152, 9))
    assert registry.gtp_port(9) == 2
    with pytest.raises(DuplicatePortError):
        _create(registry, 3, SigTunnel(IP2, 4))


def test_delete_removes_the_port_from_its_index():
    registry = reference_ports()
    for port_id in (LP1, LP2, LP4):
        registry.apply_port_mod(PortMod(1, PortModCommand.DELETE, port_id, None))
    assert registry.gtp_port(1) is None
    assert registry.sig_port(2) is None
    assert registry.radio_port(1, 1) is None
    assert registry.radio_port(1, 2) == LP5
    _create(registry, 9, RadioBearer(1, 1, BearerKind.DRB))
    assert registry.radio_port(1, 1) == 9


def test_assigning_entries_rebuilds_the_classifier(reference_state):
    _, table = reference_state
    ctx = FlowMatch(crnti=1, bearer_id=1)
    assert table.match(ctx) == LP1
    table.entries = [e for e in table.entries if e.match != FlowMatch(crnti=1, bearer_id=1)]
    assert table.match(ctx) is None
    assert table.match(FlowMatch(in_port=LP2)) == LP3
    table.entries = []
    assert table.match(FlowMatch(in_port=LP2)) is None


# -- differential test against the linear-scan reference ----------------------

_PORT_IDS = st.integers(0, 5)
_SPECS = st.one_of(
    st.builds(RadioBearer, st.integers(0, 2), st.sampled_from([0, 1, 3]), st.just(BearerKind.DRB), st.just(())),
    st.builds(GtpTunnel, st.just(IP1), st.just(IP2), st.integers(1, 2), st.integers(1, 2)),
    st.builds(SigTunnel, st.just(IP1), st.integers(1, 2)),
)
_CREATE = st.builds(PortMod, st.just(1), st.just(PortModCommand.CREATE), _PORT_IDS, _SPECS)
_MODIFY = st.builds(PortMod, st.just(1), st.just(PortModCommand.MODIFY), _PORT_IDS, _SPECS)
_DELETE = st.builds(PortMod, st.just(1), st.just(PortModCommand.DELETE), _PORT_IDS, st.none())
# field values; None leaves a match field unpopulated
_FIELDS = {
    "in_port": st.none() | _PORT_IDS,
    "crnti": st.none() | st.integers(1, 2),
    "bearer_id": st.none() | st.sampled_from([1, 3]),
    "ip_dst": st.none() | st.sampled_from([IP1, IP2]),
    "ip_proto": st.none() | st.sampled_from([6, 17]),
    "l4_dst": st.none() | st.sampled_from([23, 43]),
}
# mostly from a small pool of overlapping matches, so that duplicates, exact
# deletes and ties between shapes are common
_MATCH_POOL = [
    FlowMatch(),
    FlowMatch(in_port=1),
    FlowMatch(in_port=2),
    FlowMatch(crnti=1, bearer_id=1),
    FlowMatch(crnti=1, bearer_id=3),
    FlowMatch(crnti=2, bearer_id=1),
    FlowMatch(in_port=1, crnti=1, bearer_id=1),
    FlowMatch(ip_dst=IP1),
    FlowMatch(ip_dst=IP1, ip_proto=6, l4_dst=23),
    FlowMatch(ip_dst=IP1, ip_proto=6, l4_dst=43),
    FlowMatch(in_port=2, ip_dst=IP1, ip_proto=6, l4_dst=23),
]
_MATCHES = st.sampled_from(_MATCH_POOL) | st.builds(FlowMatch, **_FIELDS)
_PRIORITIES = st.sampled_from([100, 110])
# fixed sig ports 11-16 give entries distinct out-ports; port 6 is never
# created, and port 0 is a valid id that a miss (None) must not be taken for
_FIXED_PORTS = [PortMod(1, PortModCommand.CREATE, 10 + i, SigTunnel(IP2, 10 + i)) for i in range(1, 7)]
_OUT_PORTS = st.integers(0, 6) | st.integers(11, 16)
_ADD = st.builds(FlowMod, st.just(1), st.just(FlowModCommand.ADD), _PRIORITIES, _MATCHES, _OUT_PORTS)
_REMOVE = st.builds(FlowMod, st.just(1), st.just(FlowModCommand.DELETE), _PRIORITIES, _MATCHES, _OUT_PORTS)
# weighted so that ports and entries accumulate
_COMMANDS = st.sampled_from([_CREATE] * 3 + [_MODIFY, _DELETE] + [_ADD] * 6 + [_REMOVE]).flatmap(lambda s: s)


def _apply(registry, table, msg) -> tuple[type, str] | None:
    """Apply one command as a node does; returns the error raised, if any."""
    try:
        if isinstance(msg, PortMod):
            spec = registry.apply_port_mod(msg)
            if msg.command == PortModCommand.DELETE:
                table.drop_port_references(msg.port_id, spec)
        else:
            table.apply_flow_mod(msg, registry)
    except Open5GError as exc:
        return type(exc), str(exc)
    return None


def _overlay(ctx: FlowMatch, match: FlowMatch) -> FlowMatch:
    """`ctx` with the populated fields of `match` written over it."""
    return FlowMatch(**{**ctx._asdict(), **{k: v for k, v in match._asdict().items() if v is not None}})


@given(
    st.lists(_COMMANDS, min_size=10, max_size=60),
    st.lists(st.builds(FlowMatch, **_FIELDS), min_size=2, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_indexed_data_plane_agrees_with_linear_scan(commands, contexts):
    registry, table = PortRegistry(), FlowTable()
    ref_registry, ref_table = ScanPortRegistry(), ScanFlowTable()
    for msg in _FIXED_PORTS + commands:
        assert _apply(registry, table, msg) == _apply(ref_registry, ref_table, msg)
        assert list(registry.ports.items()) == list(ref_registry.ports.items())
        assert table.entries == ref_table.ordered_entries()  # each entry carries its id
        # packets that hit each entry, and each pair of successive entries
        entries = ref_table.entries
        probes = contexts + [_overlay(ctx, e.match) for e in entries for ctx in contexts[:2]]
        probes += [_overlay(_overlay(contexts[0], a.match), b.match) for a, b in zip(entries, entries[1:])]
        for ctx in probes:
            assert table.match(ctx) == ref_table.match(ctx)
        for key in range(4):
            assert registry.gtp_port(key) == ref_registry.gtp_port(key)
            assert registry.sig_port(key) == ref_registry.sig_port(key)
            for bearer in (0, 1, 3):
                assert registry.radio_port(key, bearer) == ref_registry.radio_port(key, bearer)


def test_match_fields_name_every_match_attribute():
    """One MATCH_FIELDS row per FlowMatch field, in TLV-type order: the
    codec, the classifier and the table rows agree."""
    names = [f.name for f in wire.MATCH_FIELDS]
    assert names == list(FlowMatch._fields)
    assert [f.mtype for f in wire.MATCH_FIELDS] == list(wire.MatchType)
    # the decoder puts a TLV of type t at FlowMatch index t - 1
    assert [int(t) for t in wire.MatchType] == list(range(1, len(names) + 1))
