"""Emulated data-plane nodes (d-gNB, d-eNB, d-WT).

A node consumes Open5G commands and moves packets between its radio side,
NG-U side, and controller signaling tunnels. Like an OpenFlow switch, it
matches a packet and sends it out of one port: an ingress returns that
out-port's spec and the frame leaving on it, or None for a drop. It answers
the controller only with one ERROR per failed batch; radio-layer processing
is a no-op annotated by each port's configuration TLVs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import wire
from .errors import Open5GError, UnsupportedLayerError, WireDecodeError
from .switch import FlowTable, PortRegistry
from .wire import (
    ErrorMsg,
    FlowMatch,
    FlowMod,
    GtpTunnel,
    LayerTlv,
    PortMod,
    PortModCommand,
    PortSpec,
    RadioBearer,
    SigTunnel,
)


class Rat(Enum):
    NR = "NR"
    LTE = "LTE"
    WLAN = "WLAN"


_WLAN, _MODIFY, _DELETE = Rat.WLAN, PortModCommand.MODIFY, PortModCommand.DELETE

# d-WT has no SDAP/PDCP; its radio stack is MAC/PHY (plus GRE toward the UE)
_WLAN_FORBIDDEN_TLVS = {int(LayerTlv.SDAP), int(LayerTlv.PDCP)}


@dataclass
class DataPlaneNode:
    node_id: str
    rat: Rat
    drop_count: int = field(default=0, init=False)
    registry: PortRegistry = field(default_factory=PortRegistry, init=False)
    table: FlowTable = field(default_factory=FlowTable, init=False)

    # -- controller channel ------------------------------------------------

    def _apply(self, msg) -> None:
        # commands as the decoder builds them, most of them FLOW_MODs; HELLO and ERROR change nothing
        if type(msg) is FlowMod:
            self.table.apply_flow_mod(msg, self.registry)
        elif isinstance(msg, PortMod):
            if self.rat is _WLAN and msg.command != _DELETE and isinstance(msg.port_spec, RadioBearer):
                for tlv in msg.port_spec.layer_config:
                    if tlv.tlv_type in _WLAN_FORBIDDEN_TLVS:
                        raise UnsupportedLayerError(
                            f"tlv {tlv.tlv_type} not supported on WLAN radio stack"
                        )
            spec = self.registry.apply_port_mod(msg)
            if msg.command == _DELETE:
                self.table.drop_port_references(msg.port_id, spec)
            elif msg.command == _MODIFY:
                # the rows showing the port's old spec render again; a CREATE changes no row
                self.table.entries = self.table.entries

    def handle_open5g(self, data: bytes) -> bytes | None:
        """Apply a (possibly batched) command byte stream.

        Valid commands produce no response at all; the first failure returns
        the encoded ERROR for it and stops processing of the batch.
        """
        try:
            for msg in wire.iter_messages(data):
                self._apply(msg)
        except Open5GError as exc:
            # echo the xid of the offending message, unless it never decoded
            xid = 0 if isinstance(exc, WireDecodeError) else msg.xid
            err = ErrorMsg(xid=xid, code=exc.code, detail=str(exc).encode()[:64])
            return wire.encode_message(err)
        return None

    # -- packet paths --------------------------------------------------------

    def _forward(self, packet: FlowMatch, payload: bytes) -> tuple[PortSpec, bytes] | None:
        """The best-matching entry's out-port and the frame that leaves on it,
        or None, counted as a drop, if no entry matches or its out-port is gone."""
        out_port = self.table.match(packet)
        spec = self.registry.get(out_port) if out_port is not None else None
        if spec is None:
            self.drop_count += 1
            return None
        if isinstance(spec, GtpTunnel):
            return spec, wire.encap_gtpu(payload, spec.teid)
        if isinstance(spec, SigTunnel):
            return spec, wire.encap_sig(payload, spec.tunnel_id)
        return spec, payload

    def ingress_radio(self, crnti: int, bearer_id: int, payload: bytes) -> tuple[PortSpec, bytes] | None:
        in_port = self.registry.radio_port(crnti, bearer_id)
        return self._forward(FlowMatch(in_port, crnti, bearer_id), payload)

    def ingress_ngu(self, frame: bytes) -> tuple[PortSpec, bytes] | None:
        try:
            teid, packet = wire.decap_gtpu(frame)
            ip_dst, ip_proto, l4_dst, _ = wire.unpack_ip_packet(packet)
        except WireDecodeError:
            self.drop_count += 1
            return None
        fields = FlowMatch(self.registry.gtp_port(teid), None, None, ip_dst, ip_proto, l4_dst)
        return self._forward(fields, packet)

    def ingress_sigtunnel(self, frame: bytes) -> tuple[PortSpec, bytes] | None:
        try:
            tunnel_id, payload = wire.decap_sig(frame)
        except WireDecodeError:
            self.drop_count += 1
            return None
        # an unknown tunnel leaves the fields empty, and no entry has an empty match
        return self._forward(FlowMatch(self.registry.sig_port(tunnel_id)), payload)
