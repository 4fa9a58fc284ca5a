"""Span recorder for the traced benchmark run.

`SpanRecorder.patched()` wraps the public entry points of each
`open5gsim` module listed in `TARGETS`, records one span per call in
memory, and restores the originals on exit. Functions that other modules
imported by name are patched wherever that alias is looked up (for
example `netsim.fnv1a64` and `netsim.rrc_to_bytes`). Each `next()` of the
`wire.iter_messages` generator is its own span. A span's self time is its
duration minus the durations of its direct child spans, so the self times
of all spans under `Simulator.run` add up to the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from open5gsim.controller import ConfigBatch


def _config_messages(_args, emissions) -> int:
    return sum(len(em.messages) for em in emissions if isinstance(em, ConfigBatch))


@dataclass(frozen=True)
class Target:
    module: str  # open5gsim submodule that defines the function
    path: str  # "function" or "Class.method"
    group: str  # layer prefix of the metrics this span feeds
    # counter name -> f(args, result), added up over all calls
    tallies: dict[str, Callable] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return f"{self.module}.{self.path}"


_TUNNEL_CODECS = (
    "encap_gtpu", "decap_gtpu", "encap_sig", "decap_sig",
    "pack_envelope", "unpack_envelope", "pack_ip_packet", "unpack_ip_packet",
)

TARGETS = (
    Target("scenario", "parse_scenario", "scenario.parse"),
    Target("netsim", "Simulator.run", "netsim.harness"),
    Target("netsim", "Simulator.table_at_step", "netsim.table_query"),
    Target("netsim", "render_flow_table", "netsim.snapshot", {"netsim.snapshot.rows": lambda a, r: len(r)}),
    Target("netsim", "UpfStub.on_uplink", "netsim.upf"),
    Target("netsim", "UpfStub.downlink", "netsim.upf"),
    Target("netsim", "UpfStub.register_session", "netsim.upf"),
    Target("controller", "Controller.bootstrap_node", "controller.bootstrap"),
    Target("controller", "Controller.on_rrc_uplink", "controller.rrc", {"controller.open5g_msgs": _config_messages}),
    Target("controller", "Controller.on_ngap", "controller.ngap", {"controller.open5g_msgs": _config_messages}),
    Target("node", "DataPlaneNode.handle_open5g", "node.open5g"),
    Target("node", "DataPlaneNode.ingress_radio", "node.packet"),
    Target("node", "DataPlaneNode.ingress_ngu", "node.packet"),
    Target("node", "DataPlaneNode.ingress_sigtunnel", "node.packet"),
    Target(
        "switch",
        "FlowTable.match",
        "switch.match",
        {"switch.match.entries": lambda a, r: len(a[0]), "switch.match.hits": lambda a, r: r is not None},
    ),
    Target("switch", "PortRegistry.apply_port_mod", "switch.port_mod"),
    Target("switch", "FlowTable.apply_flow_mod", "switch.flow_mod"),
    Target("switch", "PortRegistry.radio_port", "switch.port_lookup"),
    Target("switch", "PortRegistry.gtp_port", "switch.port_lookup"),
    Target("switch", "PortRegistry.sig_port", "switch.port_lookup"),
    Target("wire", "encode_message", "wire.encode", {"wire.encode.bytes": lambda a, r: len(r)}),
    Target("wire", "decode_message", "wire.decode"),
    Target("wire", "iter_messages", "wire.iter"),
    *(Target("wire", fn, "wire.tunnel") for fn in _TUNNEL_CODECS),
    *(
        Target("messages", fn, "messages.codec")
        for fn in ("rrc_to_bytes", "rrc_from_bytes", "ngap_to_bytes", "ngap_from_bytes")
    ),
    Target("trace", "fnv1a64", "trace.digest", {"trace.digest.bytes": lambda a, r: len(a[0])}),
    Target("trace", "write_trace", "trace.io"),
    Target("trace", "read_trace", "trace.io"),
)


@dataclass
class Profile:
    """Spans of one traced pass, aggregated by span name and by group."""

    calls: Counter  # span name -> calls
    group_calls: Counter  # group -> calls
    group_self_s: Counter  # group -> self seconds
    tallies: Counter  # counter name -> total


class SpanRecorder:
    def __init__(self):
        # one [name, start, end, parent index] per span, in start order
        self.spans: list[list] = []
        self.tallies: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, stack, tallies, name = self.spans, self._stack, self.tallies, target.name
        measures = tuple(target.tallies.items())

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    span = [name, 0.0, 0.0, stack[-1] if stack else -1]
                    stack.append(len(spans))
                    spans.append(span)
                    span[1] = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span[2] = perf_counter()
                        stack.pop()
                    yield item

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            for counter, measure in measures:
                tallies[counter] += measure(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "open5gsim" or n.startswith("open5gsim.")]
        saved: list[tuple[object, str, object]] = []
        try:
            for target in TARGETS:
                owner = importlib.import_module(f"open5gsim.{target.module}")
                *classes, attr = target.path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = vars(owner)[attr]
                wrapper = self._wrap(target, original)
                owners = [owner] if classes else [m for m in modules if vars(m).get(attr) is original]
                for o in owners:
                    saved.append((o, attr, original))
                    setattr(o, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def profile(self) -> Profile:
        """Derive self times from the recorded spans."""
        group = {t.name: t.group for t in TARGETS}
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls, group_calls, group_self = Counter(), Counter(), Counter()
        for (name, start, end, _parent), children in zip(self.spans, child_s):
            calls[name] += 1
            group_calls[group[name]] += 1
            group_self[group[name]] += end - start - children
        return Profile(calls, group_calls, group_self, Counter(self.tallies))
