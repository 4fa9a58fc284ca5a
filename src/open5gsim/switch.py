"""Logical-port registry and flow table shared by all data-plane nodes.

A node owns one registry plus one table. Lookups are pure; mutation happens
only through apply_port_mod / apply_flow_mod so command streams replay
deterministically. The table also keeps its rows rendered for display.
"""

from __future__ import annotations

from bisect import bisect, insort
from functools import cache
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import (
    DuplicateBearerError,
    DuplicateEntryError,
    DuplicatePortError,
    UnknownOutPortError,
    UnknownPortError,
)
from .wire import (
    MATCH_FIELDS,
    FlowMatch,
    FlowMod,
    FlowModCommand,
    GtpTunnel,
    MatchType,
    PortMod,
    PortModCommand,
    PortSpec,
    RadioBearer,
    SigTunnel,
    ip_str,
)


class FlowEntry(NamedTuple):
    entry_id: int
    priority: int
    match: FlowMatch
    out_port: int  # the action, which is always OUTPUT


class PortRegistry:
    """Port specs by id, plus one exact-match index of port ids per port class."""

    def __init__(self):
        self.ports: dict[int, PortSpec] = {}  # in creation order
        self._reindex()

    def get(self, port_id: int) -> PortSpec | None:
        return self.ports.get(port_id)

    def radio_port(self, crnti: int, bearer_id: int) -> int | None:
        return self._radio.get((crnti, bearer_id))

    def gtp_port(self, teid: int) -> int | None:
        ports = self._gtp.get(teid)
        return next(iter(ports.values())) if ports else None  # the earliest created

    def sig_port(self, tunnel_id: int) -> int | None:
        return self._sig.get(tunnel_id)

    def _index(self, spec: PortSpec) -> tuple[dict, tuple[int, int] | int]:
        """The index that holds the spec's key (for GTP-U, its TEID's), and the key."""
        if isinstance(spec, RadioBearer):
            return self._radio, (spec.crnti, spec.bearer_id)
        if isinstance(spec, GtpTunnel):
            return self._gtp.setdefault(spec.teid, {}), spec.udp_port
        return self._sig, spec.tunnel_id

    def _reindex(self) -> None:
        self._radio: dict[tuple[int, int], int] = {}  # (crnti, bearer_id)
        self._gtp: dict[int, dict[int, int]] = {}  # teid -> udp_port -> port id, in creation order
        self._sig: dict[int, int] = {}  # tunnel_id
        for port_id, spec in self.ports.items():
            index, key = self._index(spec)
            index[key] = port_id

    def _check_uniqueness(self, port_id: int, spec: PortSpec) -> tuple[dict, tuple[int, int] | int]:
        """The spec's index and key, unless another port holds that key."""
        index, key = self._index(spec)
        other = index.get(key)
        if other is None or other == port_id:
            return index, key
        if isinstance(spec, RadioBearer):
            raise DuplicateBearerError(f"crnti {spec.crnti} bearer {spec.bearer_id} already on port {other}")
        if isinstance(spec, GtpTunnel):
            raise DuplicatePortError(f"gtp tunnel (port {spec.udp_port}, teid {spec.teid}) already exists")
        raise DuplicatePortError(f"sig tunnel {spec.tunnel_id} already exists")

    def apply_port_mod(self, msg: PortMod) -> PortSpec:
        """Apply one PORT_MOD; returns the port's spec (DELETE: the removed one).
        MODIFY and DELETE, which the controller never sends, rebuild the indexes."""
        port_id, spec = msg.port_id, msg.port_spec
        if msg.command == PortModCommand.CREATE:
            if port_id in self.ports:
                raise DuplicatePortError(f"port {port_id} already exists")
            index, key = self._check_uniqueness(port_id, spec)
            self.ports[port_id] = spec
            index[key] = port_id
            return spec
        if msg.command == PortModCommand.MODIFY:
            if port_id not in self.ports:
                raise UnknownPortError(f"port {port_id}")
            self._check_uniqueness(port_id, spec)
            self.ports[port_id] = spec  # keeps the port's creation-order slot
            self._reindex()  # drops the old key, which may be of another class
            return spec
        spec = self.ports.pop(port_id, None)
        if spec is None:
            raise UnknownPortError(f"port {port_id}")
        self._reindex()
        return spec


def entry_references_port(entry: FlowEntry, port_id: int, spec: PortSpec) -> bool:
    """A flow entry references a port through its out-port, in_port match, or
    a (crnti, bearer_id) match equal to a radio port's key."""
    if entry.out_port == port_id:
        return True
    if entry.match.in_port == port_id:
        return True
    if isinstance(spec, RadioBearer):
        if entry.match.crnti == spec.crnti and entry.match.bearer_id == spec.bearer_id:
            return True
    return False


@cache
def _getter(shape: tuple[int, ...]) -> Callable:
    """Reads the fields at a match shape's indexes from a FlowMatch. There
    is one getter per shape, so a getter also names its shape."""
    return itemgetter(*shape) if shape else lambda _: ()


def _slot(match: FlowMatch) -> tuple[Callable, object]:
    """The getter of the match's shape (the indexes of its set fields), and its key."""
    key_of = _getter(tuple([i for i, value in enumerate(match) if value is not None]))
    return key_of, key_of(match)


def _rank(entry: FlowEntry) -> tuple[int, int]:
    return -entry.priority, entry.entry_id


def _match_str(match: FlowMatch) -> str:
    return ",".join([
        f"{f.label}={ip_str(value) if f.mtype == MatchType.IP_DST else value}"
        for f, value in zip(MATCH_FIELDS, match)
        if value is not None
    ])


def _action_str(out_port: int, spec: PortSpec | None) -> str:
    if isinstance(spec, RadioBearer):
        return f"output radio(crnti={spec.crnti},bearer={spec.bearer_id})"
    if isinstance(spec, GtpTunnel):
        return f"output gtp(udp={spec.udp_port},teid={spec.teid})"
    if isinstance(spec, SigTunnel):
        return f"output sig(tunnel={spec.tunnel_id})"
    return f"output port={out_port}"  # no such port


def _row(entry: FlowEntry, spec: PortSpec | None) -> str:
    """One displayed row: priority, match, and the out-port's spec."""
    return f"{entry.priority} [{_match_str(entry.match)}] -> [{_action_str(entry.out_port, spec)}]"


class FlowTable:
    """Tuple-space classifier (Srinivasan, Suri & Varghese, SIGCOMM 1999).

    The table keeps its rows rendered in display order. An ADD renders and
    inserts its one row; any other change to what the rows show marks them
    stale, and the next `rows` call renders them all again.
    """

    def __init__(self):
        self.entries: list[FlowEntry] = []
        self._next_entry_id = 1

    @property
    def entries(self) -> list[FlowEntry]:
        """In display order: priority descending, then entry_id, which is installation order."""
        return self._ordered

    @entries.setter
    def entries(self, entries: list[FlowEntry]) -> None:
        self._ordered: list[FlowEntry] = sorted(entries, key=_rank)  # stable: equal ranks keep their order
        # shape getter -> field values -> the entries with exactly that match, by _rank
        self._shapes: dict[Callable, dict[object, list[FlowEntry]]] = {}
        for entry in self._ordered:
            key_of, key = _slot(entry.match)
            self._shapes.setdefault(key_of, {}).setdefault(key, []).append(entry)
        self._rows: list[str] | None = None  # the rows of _ordered; None while stale

    def __len__(self) -> int:
        return len(self._ordered)

    def apply_flow_mod(self, msg: FlowMod, registry: PortRegistry) -> None:
        key_of, key = _slot(msg.match)
        buckets = self._shapes.get(key_of, {})
        if msg.command == FlowModCommand.ADD:
            spec = registry.get(msg.out_port)
            if spec is None:
                raise UnknownOutPortError(f"out_port {msg.out_port}")
            if any(entry.priority == msg.priority for entry in buckets.get(key, ())):
                raise DuplicateEntryError(
                    f"entry (priority {msg.priority}, {msg.match}) already present"
                )
            entry = FlowEntry(self._next_entry_id, msg.priority, msg.match, msg.out_port)
            self._next_entry_id += 1
            i = bisect(self._ordered, _rank(entry), key=_rank)
            self._ordered.insert(i, entry)
            insort(self._shapes.setdefault(key_of, {}).setdefault(key, []), entry, key=_rank)
            if self._rows is not None:
                self._rows.insert(i, _row(entry, spec))
        elif key in buckets:
            # exact-match delete: drop every entry whose match equals exactly
            self.entries = [e for e in self._ordered if e.match != msg.match]

    def note_port_mod(self, msg: PortMod) -> None:
        """Mark the rows stale on an applied MODIFY. A DELETE reaches the rows
        through drop_port_references; a CREATE changes none of the kept rows."""
        if msg.command == PortModCommand.MODIFY:
            self._rows = None

    def drop_port_references(self, port_id: int, spec: PortSpec) -> int:
        """Cascade after a port DELETE; returns the number of entries removed."""
        before = len(self._ordered)
        self.entries = [e for e in self._ordered if not entry_references_port(e, port_id, spec)]
        return before - len(self._ordered)

    def match(self, packet: FlowMatch) -> int | None:
        """Classify a packet's fields: the out-port of the best entry, or None if
        none matches. Highest priority wins; earliest installed wins among equals."""
        best: FlowEntry | None = None
        for key_of, buckets in self._shapes.items():
            bucket = buckets.get(key_of(packet))
            if bucket and (best is None or _rank(bucket[0]) < _rank(best)):
                best = bucket[0]
        return best.out_port if best else None

    def rows(self, registry: PortRegistry) -> list[str]:
        """The rendered rows in display order, as a new list. They are kept only
        if every out-port exists, so no kept row shows a missing port."""
        if self._rows is None:
            ports = registry.ports
            rows = [_row(e, ports.get(e.out_port)) for e in self._ordered]
            if not all(e.out_port in ports for e in self._ordered):
                return rows
            self._rows = rows
        return self._rows.copy()
