"""Logical-port registry and flow table shared by all data-plane nodes.

A node owns one registry plus one table. Lookups are pure; mutation happens
only through apply_port_mod / apply_flow_mod so command streams replay
deterministically. The table also keeps its rows rendered for display, and
a FLOW_MOD ADD costs the same whatever the table holds.
"""

from __future__ import annotations

from bisect import insort
from functools import cache
from operator import is_not, itemgetter
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

_CREATE, _MODIFY, _ADD = PortModCommand.CREATE, PortModCommand.MODIFY, FlowModCommand.ADD
_NONES = (None,) * len(MATCH_FIELDS)
_IP_DST = MatchType.IP_DST - 1  # the FlowMatch index of ip_dst


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
        if msg.command == _CREATE:
            if port_id in self.ports:
                raise DuplicatePortError(f"port {port_id} already exists")
            index, key = self._check_uniqueness(port_id, spec)
            self.ports[port_id] = spec
            index[key] = port_id
            return spec
        if msg.command == _MODIFY:
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
def _shape(mask: tuple[bool, ...]) -> tuple[Callable, str, bool]:
    """A match shape, by which fields it sets: the getter of its classifier key
    (one per shape, so a getter also names its shape), its row template, and
    whether it sets ip_dst. The template's arguments are the priority, the
    action, ip_dst through ip_str, then the match's fields; str.format, like
    an f-string, formats each value with format(value, "")."""
    at = [i for i, is_set in enumerate(mask) if is_set]
    fields = ",".join([f"{MATCH_FIELDS[i].label}={{{2 if i == _IP_DST else i + 3}}}" for i in at])
    return (itemgetter(*at) if at else lambda _: ()), "{0} [" + fields + "] -> [{1}]", mask[_IP_DST]


def _rank(entry: FlowEntry) -> tuple[int, int]:
    return -entry.priority, entry.entry_id


def _action_str(out_port: int, spec: PortSpec | None) -> str:
    if isinstance(spec, RadioBearer):
        return f"output radio(crnti={spec.crnti},bearer={spec.bearer_id})"
    if isinstance(spec, GtpTunnel):
        return f"output gtp(udp={spec.udp_port},teid={spec.teid})"
    if isinstance(spec, SigTunnel):
        return f"output sig(tunnel={spec.tunnel_id})"
    return f"output port={out_port}"  # no such port


def _row(shape: tuple, entry: FlowEntry, spec: PortSpec | None) -> str:
    """One displayed row, in the template of the entry's shape: priority, match, and the out-port's spec."""
    _, template, has_ip = shape
    match = entry.match
    return template.format(entry.priority, _action_str(entry.out_port, spec), has_ip and ip_str(match[_IP_DST]), *match)


class FlowTable:
    """Tuple-space classifier (Srinivasan, Suri & Varghese, SIGCOMM 1999).

    The table keeps its rows rendered in display order. An ADD takes its
    match's cached shape, probes that shape's buckets once for a duplicate,
    and puts its entry, which has the largest id, and the entry's row at the
    end of its priority run, counted per priority. Every other change goes
    through the `entries` setter, which marks the rows stale, and the next
    `rows` call renders them all again.
    """

    def __init__(self):
        self._next_entry_id = 1
        self.entries: list[FlowEntry] = []

    @property
    def entries(self) -> list[FlowEntry]:
        """In display order: priority descending, then entry_id, which is installation order."""
        return self._ordered

    @entries.setter
    def entries(self, entries: list[FlowEntry]) -> None:
        self._ordered: list[FlowEntry] = sorted(entries, key=_rank)  # stable: equal ranks keep their order
        # shape getter -> field values -> the entries with exactly that match, by _rank
        self._shapes: dict[Callable, dict[object, list[FlowEntry]]] = {}
        self._runs: dict[int, int] = {}  # priority -> its number of entries
        for entry in self._ordered:
            key_of = _shape(tuple(map(is_not, entry.match, _NONES)))[0]
            self._shapes.setdefault(key_of, {}).setdefault(key_of(entry.match), []).append(entry)
            self._runs[entry.priority] = self._runs.get(entry.priority, 0) + 1
        # later ADDs get ids above every given one, so they are listed after them
        self._next_entry_id = max([self._next_entry_id, *[e.entry_id + 1 for e in self._ordered]])
        self._rows: list[str] | None = None  # the rows of _ordered; None while stale

    def __len__(self) -> int:
        return len(self._ordered)

    def apply_flow_mod(self, msg: FlowMod, registry: PortRegistry) -> None:
        match = msg.match
        shape = _shape(tuple(map(is_not, match, _NONES)))
        key_of = shape[0]
        key = key_of(match)
        buckets = self._shapes.get(key_of)
        bucket = buckets.get(key) if buckets else None
        if msg.command == _ADD:
            spec = registry.get(msg.out_port)
            if spec is None:
                raise UnknownOutPortError(f"out_port {msg.out_port}")
            priority = msg.priority
            for entry in bucket or ():
                if entry.priority == priority:
                    raise DuplicateEntryError(f"entry (priority {priority}, {match}) already present")
            entry = FlowEntry(self._next_entry_id, priority, match, msg.out_port)
            self._next_entry_id += 1
            # the largest id goes after every entry of its priority and above
            runs, i = self._runs, 0
            for p, n in runs.items():
                if p >= priority:
                    i += n
            runs[priority] = runs.get(priority, 0) + 1
            self._ordered.insert(i, entry)
            if bucket:
                insort(bucket, entry, key=_rank)
            else:
                self._shapes.setdefault(key_of, {})[key] = [entry]
            if self._rows is not None:
                try:
                    self._rows.insert(i, _row(shape, entry, spec))
                except (TypeError, ValueError):  # an ip_dst that ip_str refuses: `rows` raises it
                    self._rows = None
        elif bucket is not None:
            # exact-match delete: drop every entry whose match equals exactly
            self.entries = [e for e in self._ordered if e.match != match]

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
            rows = [_row(_shape(tuple(map(is_not, e.match, _NONES))), e, ports.get(e.out_port)) for e in self._ordered]
            if not all(e.out_port in ports for e in self._ordered):
                return rows
            self._rows = rows
        return self._rows.copy()
