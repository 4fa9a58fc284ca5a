"""Logical-port registry and flow table shared by all data-plane nodes.

A node owns one registry plus one table. Lookups are pure; mutation happens
only through apply_port_mod / apply_flow_mod so command streams replay
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DuplicateBearerError,
    DuplicateEntryError,
    DuplicatePortError,
    UnknownOutPortError,
    UnknownPortError,
)
from .wire import (
    FlowAction,
    FlowMatch,
    FlowModBody,
    FlowModCommand,
    GtpTunnel,
    PortModBody,
    PortModCommand,
    PortSpec,
    RadioBearer,
    SigTunnel,
)


@dataclass
class LogicalPort:
    port_id: int
    spec: PortSpec


@dataclass(frozen=True)
class FlowEntry:
    entry_id: int
    priority: int
    match: FlowMatch
    action: FlowAction


@dataclass
class PacketContext:
    """Ingress context matched against the flow table."""

    in_port: int | None = None
    crnti: int | None = None
    bearer_id: int | None = None
    ip_dst: bytes | None = None
    ip_proto: int | None = None
    l4_dst: int | None = None
    payload: bytes = b""


def match_context(match: FlowMatch, ctx: PacketContext) -> bool:
    """True iff every populated match field equals the context field."""
    for name in ("in_port", "crnti", "bearer_id", "ip_dst", "ip_proto", "l4_dst"):
        want = getattr(match, name)
        if want is not None and getattr(ctx, name) != want:
            return False
    return True


class PortRegistry:
    def __init__(self):
        self.ports: dict[int, LogicalPort] = {}

    def __len__(self) -> int:
        return len(self.ports)

    def __contains__(self, port_id: int) -> bool:
        return port_id in self.ports

    def get(self, port_id: int) -> LogicalPort | None:
        return self.ports.get(port_id)

    def radio_port(self, crnti: int, bearer_id: int) -> LogicalPort | None:
        for port in self.ports.values():
            spec = port.spec
            if isinstance(spec, RadioBearer) and spec.crnti == crnti and spec.bearer_id == bearer_id:
                return port
        return None

    def gtp_port(self, teid: int) -> LogicalPort | None:
        for port in self.ports.values():
            if isinstance(port.spec, GtpTunnel) and port.spec.teid == teid:
                return port
        return None

    def sig_port(self, tunnel_id: int) -> LogicalPort | None:
        for port in self.ports.values():
            if isinstance(port.spec, SigTunnel) and port.spec.tunnel_id == tunnel_id:
                return port
        return None

    def _check_uniqueness(self, port_id: int, spec: PortSpec) -> None:
        for other in self.ports.values():
            if other.port_id == port_id:
                continue
            if isinstance(spec, RadioBearer) and isinstance(other.spec, RadioBearer):
                if (spec.crnti, spec.bearer_id) == (other.spec.crnti, other.spec.bearer_id):
                    raise DuplicateBearerError(
                        f"crnti {spec.crnti} bearer {spec.bearer_id} already on port {other.port_id}"
                    )
            elif isinstance(spec, GtpTunnel) and isinstance(other.spec, GtpTunnel):
                if (spec.udp_port, spec.teid) == (other.spec.udp_port, other.spec.teid):
                    raise DuplicatePortError(
                        f"gtp tunnel (port {spec.udp_port}, teid {spec.teid}) already exists"
                    )
            elif isinstance(spec, SigTunnel) and isinstance(other.spec, SigTunnel):
                if spec.tunnel_id == other.spec.tunnel_id:
                    raise DuplicatePortError(f"sig tunnel {spec.tunnel_id} already exists")

    def apply_port_mod(self, body: PortModBody) -> LogicalPort:
        """Apply one PORT_MOD; returns the affected port (DELETE: the removed one)."""
        if body.command == PortModCommand.CREATE:
            if body.port_id in self.ports:
                raise DuplicatePortError(f"port {body.port_id} already exists")
            self._check_uniqueness(body.port_id, body.port_spec)
            port = LogicalPort(body.port_id, body.port_spec)
            self.ports[body.port_id] = port
            return port
        if body.command == PortModCommand.MODIFY:
            port = self.ports.get(body.port_id)
            if port is None:
                raise UnknownPortError(f"port {body.port_id}")
            self._check_uniqueness(body.port_id, body.port_spec)
            port.spec = body.port_spec
            return port
        port = self.ports.pop(body.port_id, None)
        if port is None:
            raise UnknownPortError(f"port {body.port_id}")
        return port


def entry_references_port(entry: FlowEntry, port: LogicalPort) -> bool:
    """A flow entry references a port through its action, in_port match, or
    a (crnti, bearer_id) match equal to a radio port's key."""
    if entry.action.out_port == port.port_id:
        return True
    if entry.match.in_port == port.port_id:
        return True
    spec = port.spec
    if isinstance(spec, RadioBearer):
        if entry.match.crnti == spec.crnti and entry.match.bearer_id == spec.bearer_id:
            return True
    return False


class FlowTable:
    def __init__(self):
        self.entries: list[FlowEntry] = []
        self._next_entry_id = 1

    def __len__(self) -> int:
        return len(self.entries)

    def apply_flow_mod(self, body: FlowModBody, registry: PortRegistry) -> None:
        if body.command == FlowModCommand.ADD:
            if body.action.out_port not in registry:
                raise UnknownOutPortError(f"out_port {body.action.out_port}")
            for entry in self.entries:
                if entry.priority == body.priority and entry.match == body.match:
                    raise DuplicateEntryError(
                        f"entry (priority {body.priority}, {body.match}) already present"
                    )
            self.entries.append(
                FlowEntry(self._next_entry_id, body.priority, body.match, body.action)
            )
            self._next_entry_id += 1
        else:
            # exact-match delete: drop every entry whose match equals exactly
            self.entries = [e for e in self.entries if e.match != body.match]

    def drop_port_references(self, port: LogicalPort) -> int:
        """Cascade after a port DELETE; returns the number of entries removed."""
        before = len(self.entries)
        self.entries = [e for e in self.entries if not entry_references_port(e, port)]
        return before - len(self.entries)

    def match(self, ctx: PacketContext) -> FlowAction | None:
        """Highest priority wins; earliest installed wins among equals."""
        best: FlowEntry | None = None
        for entry in self.entries:
            if not match_context(entry.match, ctx):
                continue
            if best is None or entry.priority > best.priority:
                best = entry
            # equal priority: keep the earlier entry_id (list is insertion-ordered)
        return best.action if best else None

    def ordered_entries(self) -> list[FlowEntry]:
        """Entries in display order: priority descending, then installation order."""
        return sorted(self.entries, key=lambda e: (-e.priority, e.entry_id))
