"""Open5G southbound protocol and multi-RAT RAN control-plane simulator."""

from .controller import Controller, QosFlowSpec, SessionSpec
from .netsim import NodeSpec, Settings, Simulator, Stimulus, Topology, UeSpec
from .node import DataPlaneNode, Rat
from .scenario import Scenario, load_scenario, parse_scenario, serialize_scenario
from .switch import FlowTable, PortRegistry
from .trace import EventTrace, TraceRecord
from .wire import FlowMatch, decode_message, encode_message

__all__ = [
    "Controller",
    "DataPlaneNode",
    "EventTrace",
    "FlowMatch",
    "FlowTable",
    "NodeSpec",
    "PortRegistry",
    "QosFlowSpec",
    "Rat",
    "Scenario",
    "SessionSpec",
    "Settings",
    "Simulator",
    "Stimulus",
    "Topology",
    "TraceRecord",
    "UeSpec",
    "decode_message",
    "encode_message",
    "load_scenario",
    "parse_scenario",
    "serialize_scenario",
]

__version__ = "0.1.0"
