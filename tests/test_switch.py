import functools
import random
from collections import Counter
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ScanFlowTable,
    ScanPortRegistry,
    bundled_scenario,
    generated_scenario,
    oracle_match,
    random_context,
    random_entries,
    reference_render_rows,
)
from open5gsim import switch, wire
from open5gsim.errors import (
    DuplicateBearerError,
    DuplicateEntryError,
    DuplicatePortError,
    Open5GError,
    UnknownOutPortError,
    UnknownPortError,
)
from open5gsim.netsim import Simulator
from open5gsim.node import DataPlaneNode, Rat
from open5gsim.switch import FlowEntry, FlowTable, PortRegistry
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


# -- entry ids, the ADD path and the rows ---------------------------------------


def test_an_assignment_raises_the_next_entry_id_past_its_ids():
    """ADDs after an assignment get ids above every given one, so they are
    listed after the entries of their priority that the assignment gave."""
    registry = reference_ports()
    table = FlowTable()
    table.entries = [FlowEntry(5, 100, FlowMatch(in_port=2), LP1)]
    for bearer in (1, 2, 3, 4):
        table.apply_flow_mod(FlowMod(1, FlowModCommand.ADD, 100, FlowMatch(crnti=1, bearer_id=bearer), LP1), registry)
    assert [e.entry_id for e in table.entries] == [5, 6, 7, 8, 9]
    assert table.entries[0].match == FlowMatch(in_port=2)
    # the installation order still breaks the tie between two hits
    assert table.match(FlowMatch(in_port=2, crnti=1, bearer_id=1)) == LP1
    # an assignment of lower ids lowers nothing
    table.entries = [FlowEntry(1, 100, FlowMatch(in_port=2), LP1)]
    table.apply_flow_mod(FlowMod(1, FlowModCommand.ADD, 100, FlowMatch(crnti=1, bearer_id=1), LP1), registry)
    assert [e.entry_id for e in table.entries] == [1, 10]


class _Kind(IntEnum):
    FIVE = 5


class _Loud(int):
    def __str__(self) -> str:
        return f"loud{int(self)}"


# match values an f-string renders in its own way, and addresses ip_str refuses
_HOSTILE = [True, False, _Kind.FIVE, _Loud(5), _Loud(0)]
_BAD_IPS = [b"\x0a\x00\x01", b"\x0a\x00\x01\x01\x00"]


@pytest.mark.parametrize("value", _HOSTILE + _BAD_IPS, ids=repr)
@pytest.mark.parametrize("field", FlowMatch._fields)
def test_a_hostile_match_value_renders_as_the_reference_does(field, value):
    """Alone in its match, and beside an ip_dst and a crnti, whether the rows
    are kept when it is added or rendered in full afterwards."""
    for others in ({}, {"ip_dst": IP1, "crnti": 7}):
        match = FlowMatch(**{**others, field: value})
        for rows_kept in (True, False):
            registry, table = reference_ports(), FlowTable()
            if rows_kept:
                table.rows(registry)
            for msg in reference_rows()[:3] + [FlowMod(1, FlowModCommand.ADD, 110, match, LP2)]:
                table.apply_flow_mod(msg, registry)
            assert _outcome(table.rows, registry) == _outcome(reference_render_rows, table.entries, registry)
            if value in _BAD_IPS and field == "ip_dst":
                assert _outcome(table.rows, registry)[0] is ValueError


def _outcome(fn, *args) -> tuple:
    """What a call gives back, or the class and text of the exception it raises."""
    try:
        return "ok", fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


# any priority, in any order; ports 1-3 are radio ports, 4-5 GTP-U, 6-7 signaling
_ANY_PRIORITIES = st.sampled_from([0, 1, 99, 100, 110, 120, 0xFFFF]) | st.integers(0, 200)
_VALUES = {
    "in_port": st.sampled_from([1, 2, 4, 6, True, _Loud(2)]),
    "crnti": st.sampled_from([1, 2, True, _Kind.FIVE, _Loud(1), 5]),
    "bearer_id": st.sampled_from([1, 3, True, _Loud(3)]),
    "ip_dst": st.sampled_from([IP1, IP2] + _BAD_IPS),
    "ip_proto": st.sampled_from([6, 17, _Kind.FIVE]),
    "l4_dst": st.sampled_from([23, 43, False]),
}
_ANY_MATCHES = st.sampled_from(_MATCH_POOL) | st.builds(FlowMatch, **{k: st.none() | v for k, v in _VALUES.items()})
_ANY_FLOW_MOD = functools.partial(st.builds, FlowMod, st.just(1))
_ANY_ADD = _ANY_FLOW_MOD(st.just(FlowModCommand.ADD), _ANY_PRIORITIES, _ANY_MATCHES, st.integers(0, 8))
_ANY_REMOVE = _ANY_FLOW_MOD(st.just(FlowModCommand.DELETE), _ANY_PRIORITIES, _ANY_MATCHES, st.integers(0, 8))
_PORT_SPECS = st.one_of(
    st.builds(RadioBearer, st.integers(1, 2), st.sampled_from([1, 3]), st.just(BearerKind.DRB), st.just(())),
    st.builds(GtpTunnel, st.just(IP1), st.just(IP2), st.integers(1, 2), st.integers(1, 2)),
    st.builds(SigTunnel, st.just(IP1), st.integers(1, 3)),
)
_RE_PORT = st.builds(
    PortMod, st.just(1), st.sampled_from([PortModCommand.MODIFY, PortModCommand.DELETE]), st.integers(0, 8), _PORT_SPECS
)
# `entries = ...`: the indexes of current entries to keep, then entries with large ids
_BIG_ENTRY = st.builds(FlowEntry, st.integers(1000, 10**12), _ANY_PRIORITIES, _ANY_MATCHES, st.integers(0, 8))
_ASSIGN = st.tuples(st.lists(st.integers(0, 30), max_size=10), st.lists(_BIG_ENTRY, max_size=4))
_STEPS = st.sampled_from([_ANY_ADD] * 8 + [_ANY_REMOVE, _RE_PORT, _ASSIGN]).flatmap(lambda s: s)
_START_PORTS = [
    PortMod(1, PortModCommand.CREATE, 1, RadioBearer(1, 1, BearerKind.DRB)),
    PortMod(1, PortModCommand.CREATE, 2, RadioBearer(1, 3, BearerKind.SRB)),
    PortMod(1, PortModCommand.CREATE, 3, RadioBearer(2, 1, BearerKind.DRB)),
    PortMod(1, PortModCommand.CREATE, 4, GtpTunnel(IP1, IP2, 2152, 1)),
    PortMod(1, PortModCommand.CREATE, 5, GtpTunnel(IP1, IP2, 2153, 2)),
    PortMod(1, PortModCommand.CREATE, 6, SigTunnel(IP1, 1)),
    PortMod(1, PortModCommand.CREATE, 7, SigTunnel(IP1, 2)),
]


def _reference_step(registry: ScanPortRegistry, table: ScanFlowTable, msg) -> None:
    if isinstance(msg, PortMod):
        spec = registry.apply_port_mod(msg)
        if msg.command == PortModCommand.DELETE:
            table.drop_port_references(msg.port_id, spec)
    else:
        table.apply_flow_mod(msg, registry)


@given(st.lists(_STEPS, min_size=5, max_size=60), st.lists(st.builds(FlowMatch, **_FIELDS), min_size=2, max_size=4))
@settings(max_examples=200, deadline=None)
def test_the_add_path_agrees_with_linear_scan_and_full_render(steps, contexts):
    """A node's table, its kept rows and its lookups against the scan table
    and the full render, after every step, down to each error's class and text."""
    node = DataPlaneNode("gnb1", Rat.NR)
    ref_registry, ref_table = ScanPortRegistry(), ScanFlowTable()
    for step in _START_PORTS + steps:
        if isinstance(step, (PortMod, FlowMod)):  # before the plain tuple: a command is a NamedTuple
            got = _outcome(node._apply, step)
            assert got == _outcome(_reference_step, ref_registry, ref_table, step)
        else:
            keep, extra = step
            kept = [ref_table.entries[i] for i in keep if i < len(ref_table.entries)]
            kept = list(dict.fromkeys(kept))  # each entry once
            ids = {e.entry_id for e in kept}
            for entry in extra:  # large ids, each unique in the table
                if entry.entry_id not in ids:
                    ids.add(entry.entry_id)
                    kept.append(entry)
            node.table.entries = ref_table.entries = kept
        assert [repr(e) for e in node.table.entries] == [repr(e) for e in ref_table.ordered_entries()]
        rows = _outcome(node.table.rows, node.registry)
        assert rows == _outcome(reference_render_rows, ref_table.entries, ref_registry)
        entries = ref_table.entries
        probes = contexts + [_overlay(ctx, e.match) for e in entries for ctx in contexts[:1]]
        for ctx in probes:
            assert node.table.match(ctx) == ref_table.match(ctx)
    # the next ADD is listed after every entry of its priority
    table = node.table
    if table.entries and ref_registry.ports:
        out_port = next(iter(ref_registry.ports))
        priority = table.entries[-1].priority
        msg = FlowMod(1, FlowModCommand.ADD, priority, FlowMatch(l4_dst=0xFFFF), out_port)
        assert _outcome(node._apply, msg) == _outcome(_reference_step, ref_registry, ref_table, msg) == ("ok", None)
        assert table.entries[-1].match == msg.match


@pytest.mark.parametrize(
    "build",
    [lambda: bundled_scenario("initial_access"), lambda: bundled_scenario("multi_rat"), lambda: generated_scenario(128)],
    ids=["initial_access", "multi_rat", "multi_rat_128_ues"],
)
def test_no_flow_mod_add_the_controller_sends_bisects_the_entries(monkeypatch, build):
    """An ADD places its entry by the count of its priority run; the display
    order `_rank` is what any bisect or insort of entries would call."""
    calls = Counter()
    adding = []
    rank, apply_flow_mod = switch._rank, FlowTable.apply_flow_mod

    def counted_rank(entry):
        calls["rank in an ADD" if adding else "rank"] += 1
        return rank(entry)

    def counted_apply(self, msg, registry):
        calls["ADD"] += msg.command == FlowModCommand.ADD
        adding.append(msg)
        try:
            return apply_flow_mod(self, msg, registry)
        finally:
            adding.pop()

    monkeypatch.setattr(switch, "_rank", counted_rank)
    monkeypatch.setattr(FlowTable, "apply_flow_mod", counted_apply)
    Simulator(*build()).run()
    assert calls["ADD"] > 0
    assert calls["rank in an ADD"] == 0
    # an ADD of a match the table holds at another priority sorts its bucket,
    # and the counter sees it
    registry, table = reference_ports(), FlowTable()
    for msg in reference_rows() + [reference_rows()[0]._replace(priority=7)]:
        table.apply_flow_mod(msg, registry)
    assert calls["rank in an ADD"] > 0
