"""Shared generators and oracles used across the test suite."""

from __future__ import annotations

import random

from open5gsim import wire
from open5gsim.controller import QosFlowSpec, SessionSpec
from open5gsim.netsim import (
    NodeSpec,
    Settings,
    Simulator,
    Stimulus,
    Topology,
    UeSpec,
    render_flow_table,
)
from open5gsim.node import Rat
from open5gsim.switch import FlowEntry, match_context
from open5gsim.wire import (
    BearerKind,
    ConfigTlv,
    ErrorMsg,
    FlowAction,
    FlowMatch,
    FlowMod,
    FlowModBody,
    FlowModCommand,
    GtpTunnel,
    Hello,
    PortMod,
    PortModBody,
    PortModCommand,
    RadioBearer,
    SigTunnel,
)


def random_ip(rng: random.Random) -> bytes:
    return bytes(rng.randrange(256) for _ in range(4))


def random_port_spec(rng: random.Random):
    variant = rng.randrange(4)
    if variant == 0:  # common SRB0 port
        tlvs = random_tlvs(rng)
        return RadioBearer(0, 0, BearerKind.SRB, tlvs)
    if variant == 1:  # dedicated bearer
        if rng.random() < 0.5:
            kind, bearer = BearerKind.SRB, rng.choice([0, 3, 4])
        else:
            kind, bearer = BearerKind.DRB, rng.randrange(32)
        return RadioBearer(rng.randint(1, 65523), bearer, kind, random_tlvs(rng))
    if variant == 2:
        return GtpTunnel(random_ip(rng), random_ip(rng), rng.randrange(1 << 16), rng.randrange(1 << 32))
    return SigTunnel(random_ip(rng), rng.randrange(1 << 32))


def random_tlvs(rng: random.Random) -> tuple[ConfigTlv, ...]:
    return tuple(
        ConfigTlv(rng.randrange(1 << 16), rng.randbytes(rng.randrange(9)))
        for _ in range(rng.randrange(4))
    )


def random_match(rng: random.Random) -> FlowMatch:
    fields = {}
    while not fields:
        if rng.random() < 0.5:
            fields["crnti"] = rng.randrange(65524)
            fields["bearer_id"] = rng.randrange(256)
        if rng.random() < 0.3:
            fields["in_port"] = rng.randrange(1 << 32)
        if rng.random() < 0.3:
            fields["ip_dst"] = random_ip(rng)
        if rng.random() < 0.3:
            fields["ip_proto"] = rng.randrange(256)
        if rng.random() < 0.3:
            fields["l4_dst"] = rng.randrange(1 << 16)
    return FlowMatch(**fields)


def random_message(rng: random.Random, force_type: int | None = None):
    """One random valid Open5G message; covers every type and spec variant."""
    xid = rng.randrange(1 << 32)
    choice = force_type if force_type is not None else rng.randrange(4)
    if choice == 0:
        return Hello(xid)
    if choice == 1:
        return ErrorMsg(xid, rng.randrange(1 << 16), rng.randbytes(rng.randrange(16)))
    if choice == 2:
        command = rng.choice([PortModCommand.CREATE, PortModCommand.MODIFY, PortModCommand.DELETE])
        spec = None if command == PortModCommand.DELETE else random_port_spec(rng)
        return PortMod(xid, PortModBody(command, rng.randrange(1 << 32), spec))
    command = rng.choice([FlowModCommand.ADD, FlowModCommand.DELETE])
    return FlowMod(
        xid,
        FlowModBody(
            command,
            rng.randrange(1 << 16),
            random_match(rng),
            FlowAction(rng.randrange(1 << 32)),
        ),
    )


def oracle_match(entries: list[FlowEntry], ctx) -> FlowAction | None:
    """Naive linear scan with the documented tie-break: highest priority,
    then earliest entry_id. Independent of FlowTable.match."""
    best = None
    for entry in entries:
        if not match_context(entry.match, ctx):
            continue
        if best is None or (entry.priority, -entry.entry_id) > (best.priority, -best.entry_id):
            best = entry
    return best.action if best else None


# Small domains so random tables and contexts actually collide
_CRNTIS = [1, 2, 61]
_BEARERS = [0, 1, 2, 3]
_PORTS = [1, 2, 3, 4, 5]
_IPS = [bytes([10, 0, 1, 1]), bytes([10, 0, 1, 2])]
_PROTOS = [6, 17]
_L4S = [23, 34, 43]


def random_collision_match(rng: random.Random) -> FlowMatch:
    fields = {}
    while not fields:
        if rng.random() < 0.5:
            fields["crnti"] = rng.choice(_CRNTIS)
            fields["bearer_id"] = rng.choice(_BEARERS)
        if rng.random() < 0.3:
            fields["in_port"] = rng.choice(_PORTS)
        if rng.random() < 0.4:
            fields["ip_dst"] = rng.choice(_IPS)
        if rng.random() < 0.4:
            fields["ip_proto"] = rng.choice(_PROTOS)
        if rng.random() < 0.4:
            fields["l4_dst"] = rng.choice(_L4S)
    return FlowMatch(**fields)


def random_entries(rng: random.Random, count: int) -> list[FlowEntry]:
    return [
        FlowEntry(
            entry_id=i + 1,
            priority=rng.choice([100, 110, 120]),
            match=random_collision_match(rng),
            action=FlowAction(rng.choice(_PORTS)),
        )
        for i in range(count)
    ]


def random_context(rng: random.Random):
    from open5gsim.switch import PacketContext

    return PacketContext(
        in_port=rng.choice(_PORTS + [None]),
        crnti=rng.choice(_CRNTIS + [None, 9]),
        bearer_id=rng.choice(_BEARERS + [None, 9]),
        ip_dst=rng.choice(_IPS + [None]),
        ip_proto=rng.choice(_PROTOS + [None]),
        l4_dst=rng.choice(_L4S + [None]),
    )


class EveryDeliveryTables(Simulator):
    """Oracle for `Simulator.table_at_step`: renders every node's table after
    every delivery, whatever its channel, and looks tables up by step."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.snapshots: list[dict[str, list[str]]] = []  # index = step - 1

    def _process_delivery(self, d) -> None:
        super()._process_delivery(d)
        self.snapshots.append({name: render_flow_table(n) for name, n in self.nodes.items()})

    def oracle_table(self, node_id: str, at_step: int) -> list[str]:
        if at_step < 1 or not self.snapshots:
            return []
        return self.snapshots[min(at_step, len(self.snapshots)) - 1][node_id]


def generated_scenario(ues: int = 50) -> tuple[Topology, list[Stimulus], Settings]:
    """`ues` UEs round-robin over four nodes (NR, NR, LTE, WLAN), one attach
    per tick. Each has one session with two DRBs and two downlink flows, then
    sends two uplink and receives two downlink packets; one of each matches no
    flow entry and is dropped."""
    rats = (Rat.NR, Rat.NR, Rat.LTE, Rat.WLAN)
    nodes = tuple(NodeSpec(f"node{k + 1}", rat, f"10.0.0.{k + 1}") for k, rat in enumerate(rats))
    specs = []
    script = []
    data_tick = ues + 32  # an attach takes 17 ticks
    for i in range(ues):
        ip = wire.ip_bytes(f"10.1.{i}.1")
        flows = (QosFlowSpec(1, ip, 6, 80, drb=1), QosFlowSpec(2, ip, 17, 53, drb=2))
        name = f"ue{i + 1}"
        specs.append(UeSpec(name, nodes[i % len(nodes)].name, (SessionSpec(1, (1, 2), flows),)))
        script.append(Stimulus(i, "ue_power_on", (name,)))
        for bearer in (1, 7):  # bearer 7 has no flow entry
            script.append(Stimulus(data_tick + i, "send_uplink_data", (name, bearer, b"up")))
        for l4_dst in (80, 81):  # 81 has no flow entry
            stim = (name, f"10.1.{i}.1", 6, l4_dst, b"down")
            script.append(Stimulus(data_tick + i, "inject_downlink_data", stim))
    settings = Settings(admission_cap=-(-ues // len(nodes)), max_events=100 * ues)
    return Topology(nodes, tuple(specs)), script, settings
