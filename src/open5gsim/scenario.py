"""Scenario file format: topology + script + settings in plain text.

Sections start with a bracketed header. [node], [ue], and [session] may
repeat; key lines are `key = value`. The [script] section holds one stimulus
per line: `<tick> <stimulus> <args...>`. A `#` starts a comment. Unknown
sections, keys, or values, references to unknown nodes or UEs and repeated
node or UE names are rejected with the offending line number; an error quotes
at most 80 characters of the token at fault.

A script line is split into its fields once and each field converted
directly: `int()` for numbers, so `+5`, `1_0` and Unicode digits read as
Python reads them, `bytes.fromhex` for payloads and `wire.ip_bytes` for
addresses. Only a line that fails there is walked again by the checks that
word its `ParseError`, in their fixed order.

Example:

    [settings]
    seed = 0

    [node]
    name = gnb1
    rat = NR
    ngu_ip = 10.0.0.1

    [ue]
    name = ue1
    attach = gnb1

    [session]
    ue = ue1
    id = 1
    drbs = 1,2
    flow = 1 10.0.1.1 tcp 43 drb=1

    [script]
    0 ue_power_on ue1
    40 send_uplink_data ue1 1 68656c6c6f
    41 inject_downlink_data ue1 10.0.1.2 tcp 34 6869
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn

from .controller import QosFlowSpec, SessionSpec
from .errors import SimulationError, quoted
from .netsim import STIMULI_ARITY, NodeSpec, Settings, Stimulus, Topology, UeSpec
from .node import Rat
from .wire import SRB_BEARER_IDS, ip_bytes, ip_str


class ParseError(SimulationError):
    def __init__(self, line: int | None, message: str):  # None: the file as a whole
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Scenario:
    topology: Topology
    script: tuple[Stimulus, ...]
    settings: Settings


_PROTO_NAMES = {"tcp": 6, "udp": 17, "icmp": 1}
_PROTO_BY_NUM = {v: k for k, v in _PROTO_NAMES.items()}

_SECTION_KEYS = {
    "settings": {"seed", "admission_cap", "max_events"},
    "node": {"name", "rat", "ngu_ip"},
    "ue": {"name", "attach"},
    "session": {"ue", "id", "drbs", "flow"},
}

def _parse_proto(token: str, lineno: int) -> int:
    if token in _PROTO_NAMES:
        return _PROTO_NAMES[token]
    try:
        proto = int(token)
    except ValueError:
        raise ParseError(lineno, f"unknown protocol {quoted(token)}") from None
    return _check_range(proto, 0, 255, lineno, "protocol")


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"bad {what} {quoted(token)}") from None


def _check_range(value: int, lo: int, hi: int, lineno: int, what: str) -> int:
    if not lo <= value <= hi:
        raise ParseError(lineno, f"{what} {value} out of range {lo}..{hi}")
    return value


def _parse_drb(token: str, lineno: int) -> int:
    drb = _parse_int(token, lineno, "drb")
    if drb in SRB_BEARER_IDS:
        raise ParseError(lineno, f"drb {drb} is an SRB bearer id (0, 3 or 4)")
    return _check_range(drb, 0, 31, lineno, "drb")


def _parse_l4_port(token: str, lineno: int) -> int:
    return _check_range(_parse_int(token, lineno, "l4 port"), 0, 65535, lineno, "l4 port")


def _parse_ip(token: str, lineno: int) -> bytes:
    try:
        return ip_bytes(token)
    except ValueError:
        raise ParseError(lineno, f"bad IPv4 address {quoted(token)}") from None


def _parse_hex(token: str, lineno: int) -> bytes:
    try:
        return bytes.fromhex(token)
    except ValueError:
        raise ParseError(lineno, f"bad hex payload {quoted(token)}") from None


# -- [script] lines: a parser per stimulus kind, and the checks that word a failure
#
# A parser gets the text after a line's tick and kind and the addresses read
# so far, and returns the stimulus's arguments. It splits off only as many
# fields as the kind takes, so no payload is scanned for whitespace; whitespace
# inside the payload field, which `bytes.fromhex` skips, means more fields than
# the kind takes, and shows as a field longer than twice its bytes. A parser
# raises ValueError or LookupError at any bad field, and `_script_line_error`
# then words the error.


def _power_on_args(rest: str, ips: dict[str, bytes]) -> tuple:
    (ue,) = rest.split()
    return (ue,)


def _uplink_args(rest: str, ips: dict[str, bytes]) -> tuple:
    ue, bearer, hex_payload = rest.split(None, 2)
    payload = bytes.fromhex(hex_payload)
    if 2 * len(payload) != len(hex_payload):
        raise ValueError("more than 3 arguments")
    return ue, int(bearer), payload


def _downlink_args(rest: str, ips: dict[str, bytes]) -> tuple:
    ue, ip_dst, proto, l4_dst, hex_payload = rest.split(None, 4)
    if ip_dst not in ips:
        ips[ip_dst] = ip_bytes(ip_dst)
    proto = _PROTO_NAMES[proto] if proto in _PROTO_NAMES else int(proto)
    l4_dst = int(l4_dst)
    payload = bytes.fromhex(hex_payload)
    if not (0 <= proto <= 255 and 0 <= l4_dst <= 65535 and 2 * len(payload) == len(hex_payload)):
        raise ValueError("a field out of range, or more than 5 arguments")
    return ue, ip_dst, proto, l4_dst, payload


_STIMULUS_PARSERS = {
    "ue_power_on": _power_on_args,
    "send_uplink_data": _uplink_args,
    "inject_downlink_data": _downlink_args,
}


def _script_line_error(lineno: int, tokens: list[str]) -> NoReturn:
    """Raise the ParseError of a script line that a stimulus parser rejected."""
    tick = _parse_int(tokens[0], lineno, "tick")
    if tick < 0:
        raise ParseError(lineno, f"negative tick {tick}")
    if len(tokens) < 2:
        raise ParseError(lineno, "script line wants: <tick> <stimulus> <args...>")
    kind, args = tokens[1], tokens[2:]
    if kind not in STIMULI_ARITY:
        raise ParseError(lineno, f"unknown stimulus {quoted(kind)}")
    if len(args) != STIMULI_ARITY[kind]:
        raise ParseError(lineno, f"{kind} wants {STIMULI_ARITY[kind]} arguments")
    if kind == "send_uplink_data":
        _parse_int(args[1], lineno, "bearer")
        _parse_hex(args[2], lineno)
    elif kind == "inject_downlink_data":
        _parse_ip(args[1], lineno)
        _parse_proto(args[2], lineno)
        _parse_l4_port(args[3], lineno)
        _parse_hex(args[4], lineno)
    raise AssertionError(f"line {lineno}: the stimulus parser rejected a line that every check passes")


class _SectionAccumulator:
    def __init__(self):
        self.nodes: list[NodeSpec] = []
        self.ues: list[tuple[UeSpec, int]] = []  # (spec, its attach line)
        self.sessions: list[tuple[str, int, SessionSpec]] = []  # (ue name, its line, spec)
        self.session_ids: set[tuple[str, int]] = set()  # (ue name, session id)
        self.drbs: set[tuple[str, int]] = set()  # (ue name, drb), over all its sessions
        self.names: set[tuple[str, str]] = set()  # (section, name) of every [node] and [ue]
        self.settings_kv: dict[str, int] = {}
        self.script: list[Stimulus] = []
        self.script_ues: dict[str, int] = {}  # UE name -> the first script line naming it
        self.ips: dict[str, bytes] = {}  # flow and downlink addresses already read

    def finish_section(self, name: str, start_line: int, pairs: list[tuple[int, str, str]]) -> None:
        got = {k for _, k, _ in pairs}
        if name == "settings":
            for lineno, key, value in pairs:
                if key in self.settings_kv:
                    raise ParseError(lineno, f"duplicate settings key {quoted(key)}")
                number = self.settings_kv[key] = _parse_int(value, lineno, key)
                if key == "admission_cap" and number < 1:
                    raise ParseError(lineno, f"admission_cap {number} is below 1")
            return
        if name == "node":
            kv = _unique_pairs(pairs)
            _require(got, {"name", "rat", "ngu_ip"}, start_line, "node")
            lineno, rat_value = kv["rat"]
            try:
                rat = Rat(rat_value)
            except ValueError:
                raise ParseError(lineno, f"unknown RAT {quoted(rat_value)}") from None
            _parse_ip(kv["ngu_ip"][1], kv["ngu_ip"][0])
            self.add_name("node", kv["name"])
            self.nodes.append(NodeSpec(kv["name"][1], rat, kv["ngu_ip"][1]))
            return
        if name == "ue":
            kv = _unique_pairs(pairs)
            _require(got, {"name", "attach"}, start_line, "ue")
            self.add_name("ue", kv["name"])
            self.ues.append((UeSpec(kv["name"][1], kv["attach"][1]), kv["attach"][0]))
            return
        # session
        kv = _unique_pairs(pairs, repeatable={"flow"})
        _require(got, {"ue", "id", "drbs"}, start_line, "session")
        ue_line, ue_name = kv["ue"]
        id_line, id_value = kv["id"]
        # 3GPP bounds PDU session ids to 1..15 and QoS flow ids (QFIs) to 0..63
        session_id = _check_range(_parse_int(id_value, id_line, "session id"), 1, 15, id_line, "session id")
        if (ue_name, session_id) in self.session_ids:
            raise ParseError(id_line, f"ue {ue_name} already has session {session_id}")
        self.session_ids.add((ue_name, session_id))
        drb_line, drb_value = kv["drbs"]
        drbs = tuple(_parse_drb(t.strip(), drb_line) for t in drb_value.split(","))
        for drb in drbs:
            if (ue_name, drb) in self.drbs:
                raise ParseError(drb_line, f"ue {ue_name} already uses drb {drb}")
            self.drbs.add((ue_name, drb))
        flows = []
        for lineno, key, value in pairs:
            if key != "flow":
                continue
            tokens = value.split()
            if len(tokens) != 5 or not tokens[4].startswith("drb="):
                raise ParseError(lineno, "flow wants: <id> <ip_dst> <proto> <l4_dst> drb=<n>")
            flow = QosFlowSpec(
                flow_id=_check_range(_parse_int(tokens[0], lineno, "flow id"), 0, 63, lineno, "flow id"),
                ip_dst=self.parse_ip(tokens[1], lineno),
                ip_proto=_parse_proto(tokens[2], lineno),
                l4_dst=_parse_l4_port(tokens[3], lineno),
                drb=_parse_int(tokens[4][4:], lineno, "drb"),
            )
            if flow.drb not in drbs:
                raise ParseError(lineno, f"flow {flow.flow_id} maps to absent DRB {flow.drb}")
            flows.append(flow)
        self.sessions.append((ue_name, ue_line, SessionSpec(session_id, drbs, tuple(flows))))

    def parse_ip(self, token: str, lineno: int) -> bytes:
        """`_parse_ip`, run once per distinct address in the file."""
        if token not in self.ips:
            self.ips[token] = _parse_ip(token, lineno)
        return self.ips[token]

    def add_name(self, section: str, name_pair: tuple[int, str]) -> None:
        lineno, name = name_pair
        if name.split() != [name]:  # a trace line holds each name as one field
            raise ParseError(lineno, f"{section} name {quoted(name)} is not one word")
        if (section, name) in self.names:
            raise ParseError(lineno, f"duplicate {section} name {quoted(name)}")
        self.names.add((section, name))


def _unique_pairs(pairs, repeatable: set[str] = frozenset()) -> dict[str, tuple[int, str]]:
    kv: dict[str, tuple[int, str]] = {}
    for lineno, key, value in pairs:
        if key in repeatable:
            continue
        if key in kv:
            raise ParseError(lineno, f"duplicate key {quoted(key)}")
        kv[key] = (lineno, value)
    return kv


def _require(got: set[str], want: set[str], lineno: int, what: str) -> None:
    missing = want - got
    if missing:
        raise ParseError(lineno, f"{what} section missing keys: {', '.join(sorted(missing))}")


def parse_scenario(text: str) -> Scenario:
    acc = _SectionAccumulator()
    section: str | None = None
    section_line = 0
    pairs: list[tuple[int, str, str]] = []

    def flush():
        if section is not None and section != "script":
            acc.finish_section(section, section_line, pairs)

    script, script_ues, ips = acc.script, acc.script_ues, acc.ips
    new_stimulus = tuple.__new__  # `Stimulus(...)` without its Python-level __new__
    in_script = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw[: raw.index("#")] if "#" in raw else raw).strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            flush()
            section = line[1:-1].strip()
            section_line = lineno
            pairs = []
            in_script = section == "script"
            if not in_script and section not in _SECTION_KEYS:
                raise ParseError(lineno, f"unknown section {quoted(section)}")
            continue
        if in_script:
            try:
                first, kind, rest = line.split(None, 2)
                tick = int(first)
                if tick < 0:
                    raise ValueError("negative tick")
                args = _STIMULUS_PARSERS[kind](rest, ips)
            except (ValueError, LookupError):
                _script_line_error(lineno, line.split())
            script.append(new_stimulus(Stimulus, (tick, kind, args)))
            script_ues.setdefault(args[0], lineno)
            continue
        if section is None:
            raise ParseError(lineno, "content before any section header")
        if "=" not in line:
            raise ParseError(lineno, "expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SECTION_KEYS[section]:
            raise ParseError(lineno, f"unknown key {quoted(key)} in [{section}]")
        pairs.append((lineno, key, value))
    flush()

    node_names = {n.name for n in acc.nodes}
    for ue, attach_line in acc.ues:
        if ue.attach not in node_names:
            raise ParseError(attach_line, f"ue {ue.name} attaches to unknown node {quoted(ue.attach)}")
    ue_names = {u.name for u, _ in acc.ues}
    sessions_by_ue: dict[str, list[SessionSpec]] = {name: [] for name in ue_names}
    for ue_name, ue_line, spec in acc.sessions:
        if ue_name not in ue_names:
            raise ParseError(ue_line, f"session references unknown UE {quoted(ue_name)}")
        sessions_by_ue[ue_name].append(spec)
    for ue_name, lineno in acc.script_ues.items():  # in line order
        if ue_name not in ue_names:
            raise ParseError(lineno, f"stimulus references unknown UE {quoted(ue_name)}")
    ues = tuple(
        UeSpec(u.name, u.attach, tuple(sessions_by_ue[u.name])) for u, _ in acc.ues
    )

    settings = Settings(**acc.settings_kv)
    topology = Topology(tuple(acc.nodes), ues, seed=settings.seed)
    return Scenario(topology, tuple(acc.script), settings)


def serialize_scenario(scenario: Scenario) -> str:
    out = []
    s = scenario.settings
    out.append("[settings]")
    out.append(f"seed = {s.seed}")
    out.append(f"admission_cap = {s.admission_cap}")
    out.append(f"max_events = {s.max_events}")
    for node in scenario.topology.nodes:
        out.append("")
        out.append("[node]")
        out.append(f"name = {node.name}")
        out.append(f"rat = {node.rat.value}")
        out.append(f"ngu_ip = {node.ngu_ip}")
    for ue in scenario.topology.ues:
        out.append("")
        out.append("[ue]")
        out.append(f"name = {ue.name}")
        out.append(f"attach = {ue.attach}")
        for session in ue.sessions:
            out.append("")
            out.append("[session]")
            out.append(f"ue = {ue.name}")
            out.append(f"id = {session.session_id}")
            out.append("drbs = " + ",".join(str(d) for d in session.drbs))
            for f in session.flows:
                proto = _PROTO_BY_NUM.get(f.ip_proto, str(f.ip_proto))
                out.append(f"flow = {f.flow_id} {ip_str(f.ip_dst)} {proto} {f.l4_dst} drb={f.drb}")
    out.append("")
    out.append("[script]")
    for stim in scenario.script:
        if stim.kind == "ue_power_on":
            out.append(f"{stim.tick} ue_power_on {stim.args[0]}")
        elif stim.kind == "send_uplink_data":
            ue, bearer, payload = stim.args
            out.append(f"{stim.tick} send_uplink_data {ue} {bearer} {payload.hex()}")
        else:
            ue, ip_dst, proto_num, l4_dst, payload = stim.args
            proto = _PROTO_BY_NUM.get(proto_num, str(proto_num))
            out.append(
                f"{stim.tick} inject_downlink_data {ue} {ip_dst} {proto} {l4_dst} {payload.hex()}"
            )
    return "\n".join(out) + "\n"


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParseError(None, f"cannot read scenario: {exc}") from None
    try:
        return parse_scenario(data.decode())
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, f"not UTF-8: {exc.reason}") from None
