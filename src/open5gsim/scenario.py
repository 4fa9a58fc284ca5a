"""Scenario file format: topology + script + settings in plain text.

Sections start with a bracketed header: [settings], [node], [ue], [session]
and [script]. All but [script] hold `key = value` lines, and [node], [ue] and
[session] may repeat. The [script] section holds one stimulus per line:
`<tick> <stimulus> <args...>`. A `#` starts a comment. Unknown sections, keys,
or values, references to unknown nodes or UEs and repeated node or UE names
are rejected with the offending line number; an error quotes at most 80
characters of the token at fault. README.md's "Scenario format" and the files
in `scenarios/` show whole scenarios.

Each section key is a row of `_SECTIONS` and each stimulus argument type a row
of `_ARGS`, while `netsim.STIMULI` gives each stimulus its argument types. A
row reads a value, words the ParseError of a bad one and writes the value
back; `serialize_scenario` checks its text by parsing it. Numbers read as
`int()` reads them, so `+5`, `1_0` and Unicode digits are numbers.
"""

from __future__ import annotations

from binascii import a2b_hex
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Any, Callable, NamedTuple, NoReturn

from .controller import QosFlowSpec, SessionSpec
from .errors import SimulationError, quoted
from .netsim import MAX_TICK_DIGITS, STIMULI, TICK_LIMIT, NodeSpec, Settings, Stimulus, Topology, UeSpec
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
# each distinct address a file names is converted once, for its flows and its
# downlinks alike; a parse empties the cache as it starts and again once it
# has read every line, so a parsed file's addresses do not stay in memory
_ip_bytes = lru_cache(maxsize=None)(ip_bytes)


# -- value checks: each reads one token, or raises the ParseError that words why not


def _converter(convert: Callable[[str], Any], error: str) -> Callable[[str, int], Any]:
    """The check that reads a token with `convert`, its ValueError worded `<error> <token>`."""

    def parse(token: str, lineno: int) -> Any:
        try:
            return convert(token)
        except ValueError:
            raise ParseError(lineno, f"{error} {quoted(token)}") from None

    return parse


_parse_ip = _converter(_ip_bytes, "bad IPv4 address")
_parse_hex = _converter(a2b_hex, "bad hex payload")
_parse_rat = _converter(Rat, "unknown RAT")


def _parse_proto(token: str, lineno: int) -> int:
    if token in _PROTO_NAMES:
        return _PROTO_NAMES[token]
    try:
        proto = int(token)
    except ValueError:
        raise ParseError(lineno, f"unknown protocol {quoted(token)}") from None
    return _check_range(token, proto, 0, 255, lineno, "protocol")


def _parse_int(token: str, lineno: int, what: str, lo: int | None = None, hi: int = 0) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(lineno, f"bad {what} {quoted(token)}") from None
    return value if lo is None else _check_range(token, value, lo, hi, lineno, what)


def _check_range(token: str, value: int, lo: int, hi: int, lineno: int, what: str) -> int:
    if not lo <= value <= hi:
        raise ParseError(lineno, f"{what} {quoted(token)} out of range {lo}..{hi}")
    return value


def _parse_drb(token: str, lineno: int) -> int:
    drb = _parse_int(token, lineno, "drb", 0, 31)  # each SRB bearer id is in range too
    if drb in SRB_BEARER_IDS:
        raise ParseError(lineno, f"drb {drb} is an SRB bearer id (0, 3 or 4)")
    return drb


_parse_l4_port = partial(_parse_int, what="l4 port", lo=0, hi=65535)


def _check_ip(token: str, lineno: int) -> str:
    _parse_ip(token, lineno)
    return token


def _parse_admission_cap(token: str, lineno: int) -> int:
    cap = _parse_int(token, lineno, "admission_cap")
    if cap < 1:
        raise ParseError(lineno, f"admission_cap {quoted(token)} is below 1")
    return cap


def _parse_flow(value: str, lineno: int) -> QosFlowSpec:
    tokens = value.split()
    if len(tokens) != 5 or not tokens[4].startswith("drb="):
        raise ParseError(lineno, "flow wants: <id> <ip_dst> <proto> <l4_dst> drb=<n>")
    return QosFlowSpec(
        _parse_int(tokens[0], lineno, "flow id", 0, 63),  # 3GPP bounds QFIs to 0..63
        _parse_ip(tokens[1], lineno),
        _parse_proto(tokens[2], lineno),
        _parse_l4_port(tokens[3], lineno),
        _parse_int(tokens[4][4:], lineno, "drb"),
    )


def _format_proto(proto: int) -> str:
    return _PROTO_BY_NUM.get(proto, str(proto))


def _format_flow(f: QosFlowSpec) -> str:
    return f"{f.flow_id} {ip_str(f.ip_dst)} {_format_proto(f.ip_proto)} {f.l4_dst} drb={f.drb}"


class _Field(NamedTuple):
    """How a section key's or a stimulus argument's text is read and written."""

    parse: Callable[[str, int], Any] = lambda text, lineno: text  # (text, its line) -> value
    format: Callable[[Any], str] = str
    required: bool = True  # of a section key: it must appear
    repeats: bool = False  # of a section key: one line per element of its tuple value


_NAME = _Field()  # of a node or a UE
_IP = _Field(_check_ip)
# stimulus argument type (see netsim.STIMULI) -> its field
_ARGS = {
    "ue": _NAME,
    "bearer": _Field(lambda token, lineno: _parse_int(token, lineno, "bearer")),
    "ip": _IP,
    "proto": _Field(_parse_proto, _format_proto),
    "l4_port": _Field(_parse_l4_port),
    "payload": _Field(_parse_hex, bytes.hex),
}


# -- [script] lines: a fast parser per stimulus kind, and the checks that word a failure
#
# A parser gets the text after a line's tick and kind and returns the
# stimulus's arguments. It splits off only as many fields as the kind takes,
# so no payload is scanned for whitespace; whitespace inside the payload
# field means more fields than the kind takes, and `a2b_hex` rejects it. A
# parser raises ValueError or LookupError at any bad field, and
# `_script_line_error` then words the error from the kind's argument types.


def _power_on_args(rest: str) -> tuple:
    (ue,) = rest.split()
    return (ue,)


def _uplink_args(rest: str) -> tuple:
    ue, bearer, hex_payload = rest.split(None, 2)
    return ue, int(bearer), a2b_hex(hex_payload)


def _downlink_args(rest: str) -> tuple:
    ue, ip_dst, proto, l4_dst, hex_payload = rest.split(None, 4)
    _ip_bytes(ip_dst)
    proto = _PROTO_NAMES[proto] if proto in _PROTO_NAMES else int(proto)
    l4_dst = int(l4_dst)
    if not (0 <= proto <= 255 and 0 <= l4_dst <= 65535):
        raise ValueError("a field out of range")
    return ue, ip_dst, proto, l4_dst, a2b_hex(hex_payload)


_STIMULUS_PARSERS = {
    "ue_power_on": _power_on_args,
    "send_uplink_data": _uplink_args,
    "inject_downlink_data": _downlink_args,
}


def _script_line_error(lineno: int, tokens: list[str]) -> NoReturn:
    """Raise the ParseError of a script line that a stimulus parser rejected."""
    tick = _parse_int(tokens[0], lineno, "tick")
    if tick < 0:
        raise ParseError(lineno, f"negative tick {quoted(tokens[0])}")
    if tick >= TICK_LIMIT:
        raise ParseError(lineno, f"tick {quoted(tokens[0])} has more than {MAX_TICK_DIGITS} digits")
    if len(tokens) < 2:
        raise ParseError(lineno, "script line wants: <tick> <stimulus> <args...>")
    kind, args = tokens[1], tokens[2:]
    if kind not in STIMULI:
        raise ParseError(lineno, f"unknown stimulus {quoted(kind)}")
    if len(args) != len(STIMULI[kind]):
        raise ParseError(lineno, f"{kind} wants {len(STIMULI[kind])} arguments")
    for arg_type, token in zip(STIMULI[kind], args):
        _ARGS[arg_type].parse(token, lineno)
    raise AssertionError(f"line {lineno}: the stimulus parser rejected a line that every check passes")


# -- key sections


class _SectionAccumulator:
    """The declarations of a file's sections, added one section at a time.

    A [node], [ue] or [session] section's key lines are first checked against
    its fields (`take`): each key at most once unless its field repeats, and
    every required key present. Its values are then parsed as its `add_`
    method reads them (`one`, `each`, `values`), so the checks it makes
    between reads run in the order it reads its keys."""

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
        self.fields: dict[str, _Field] = {}  # of the section being added
        self.kv: dict[str, Any] = {}  # its key -> (line, text), or their list if the key repeats

    def take(self, name: str, start_line: int, pairs: list[tuple[int, str, str]]) -> None:
        self.fields = fields = _SECTIONS[name]
        self.kv = kv = {}
        for lineno, key, value in pairs:
            if fields[key].repeats:
                kv.setdefault(key, []).append((lineno, value))
            elif key in kv:
                raise ParseError(lineno, f"duplicate key {quoted(key)}")
            else:
                kv[key] = (lineno, value)
        if not kv.keys() >= _REQUIRED[name]:
            missing = ", ".join(sorted(_REQUIRED[name] - kv.keys()))
            raise ParseError(start_line, f"{name} section missing keys: {missing}")

    def one(self, key: str) -> tuple[int, Any]:
        lineno, text = self.kv[key]
        return lineno, self.fields[key].parse(text, lineno)

    def each(self, key: str):
        """Each (line, value) of a repeating key, parsed as it is reached."""
        parse = self.fields[key].parse
        for lineno, text in self.kv.get(key, ()):
            yield lineno, parse(text, lineno)

    def values(self) -> dict[str, Any]:
        """The value of every key present, parsed in field order."""
        kv = self.kv
        return {key: field.parse(kv[key][1], kv[key][0]) for key, field in self.fields.items() if key in kv}

    def add_settings(self, start_line: int, pairs: list[tuple[int, str, str]]) -> None:
        # every [settings] section adds to the one Settings, a key at most once in all
        fields = _SECTIONS["settings"]
        for lineno, key, value in pairs:
            if key in self.settings_kv:
                raise ParseError(lineno, f"duplicate settings key {quoted(key)}")
            self.settings_kv[key] = fields[key].parse(value, lineno)

    def add_node(self, start_line: int, pairs: list[tuple[int, str, str]]) -> None:
        self.take("node", start_line, pairs)
        spec = NodeSpec(**self.values())
        self.add_name("node", self.kv["name"][0], spec.name)
        self.nodes.append(spec)

    def add_ue(self, start_line: int, pairs: list[tuple[int, str, str]]) -> None:
        self.take("ue", start_line, pairs)
        spec = UeSpec(**self.values())
        self.add_name("ue", self.kv["name"][0], spec.name)
        self.ues.append((spec, self.kv["attach"][0]))

    def add_session(self, start_line: int, pairs: list[tuple[int, str, str]]) -> None:
        self.take("session", start_line, pairs)
        (ue_line, ue_name), (id_line, session_id) = self.one("ue"), self.one("id")
        if (ue_name, session_id) in self.session_ids:
            raise ParseError(id_line, f"ue {quoted(ue_name)} already has session {session_id}")
        self.session_ids.add((ue_name, session_id))
        drb_line, drbs = self.one("drbs")
        for drb in drbs:
            if (ue_name, drb) in self.drbs:
                raise ParseError(drb_line, f"ue {quoted(ue_name)} already uses drb {drb}")
            self.drbs.add((ue_name, drb))
        flows = []
        for lineno, flow in self.each("flow"):
            if flow.drb not in drbs:
                raise ParseError(lineno, f"flow {flow.flow_id} maps to absent DRB {quoted(str(flow.drb))}")
            flows.append(flow)
        self.sessions.append((ue_name, ue_line, SessionSpec(session_id, drbs, tuple(flows))))

    def add_name(self, section: str, lineno: int, name: str) -> None:
        if name.split() != [name]:  # a trace line holds each name as one field
            raise ParseError(lineno, f"{section} name {quoted(name)} is not one word")
        if (section, name) in self.names:
            raise ParseError(lineno, f"duplicate {section} name {quoted(name)}")
        self.names.add((section, name))


# section -> its key's fields, in the order the text writes them; a section's
# lines are checked and added by `_SectionAccumulator.add_<section>`
_SECTIONS = {
    "settings": {
        "seed": _Field(lambda token, lineno: _parse_int(token, lineno, "seed"), required=False),
        "admission_cap": _Field(_parse_admission_cap, required=False),
        "max_events": _Field(lambda token, lineno: _parse_int(token, lineno, "max_events"), required=False),
    },
    "node": {"name": _NAME, "rat": _Field(_parse_rat, lambda rat: rat.value), "ngu_ip": _IP},
    "ue": {"name": _NAME, "attach": _NAME},
    "session": {
        "ue": _NAME,
        # 3GPP bounds PDU session ids to 1..15
        "id": _Field(lambda token, lineno: _parse_int(token, lineno, "session id", 1, 15)),
        "drbs": _Field(
            lambda value, lineno: tuple(_parse_drb(t.strip(), lineno) for t in value.split(",")),
            lambda drbs: ",".join(map(str, drbs)),
        ),
        "flow": _Field(_parse_flow, _format_flow, required=False, repeats=True),
    },
}


_REQUIRED = {  # section -> the keys it must have
    name: {key for key, field in fields.items() if field.required} for name, fields in _SECTIONS.items()
}


def parse_scenario(text: str) -> Scenario:
    _ip_bytes.cache_clear()
    acc = _SectionAccumulator()
    section: str | None = None
    section_line = 0
    pairs: list[tuple[int, str, str]] = []

    def flush():
        if section is not None and section != "script":
            getattr(acc, f"add_{section}")(section_line, pairs)

    script, script_ues = acc.script, acc.script_ues
    new_stimulus = tuple.__new__  # `Stimulus(...)` without its Python-level __new__
    in_script = False
    lines: list[str | None] = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        lines[lineno - 1] = None  # free each line once read: the lines and their scenario are not all held at once
        line = (raw[: raw.index("#")] if "#" in raw else raw).strip()
        if not line:
            continue
        if line[0] == "[" and line[-1] == "]":
            flush()
            section = line[1:-1].strip()
            section_line = lineno
            pairs = []
            in_script = section == "script"
            fields = _SECTIONS.get(section, {})
            if not in_script and not fields:
                raise ParseError(lineno, f"unknown section {quoted(section)}")
            continue
        if in_script:
            try:
                first, kind, rest = line.split(None, 2)
                tick = int(first)
                if not 0 <= tick < TICK_LIMIT:
                    raise ValueError("a negative tick, or one too long")
                args = _STIMULUS_PARSERS[kind](rest)
            except (ValueError, LookupError):
                _script_line_error(lineno, line.split())
            script.append(new_stimulus(Stimulus, (tick, kind, args)))
            script_ues.setdefault(args[0], lineno)
            continue
        if section is None:
            raise ParseError(lineno, "content before any section header")
        key, eq, value = line.partition("=")
        if not eq:
            raise ParseError(lineno, "expected key = value")
        key, value = key.strip(), value.strip()
        if key not in fields:
            raise ParseError(lineno, f"unknown key {quoted(key)} in [{section}]")
        pairs.append((lineno, key, value))
    flush()
    _ip_bytes.cache_clear()

    node_names = {n.name for n in acc.nodes}
    for ue, attach_line in acc.ues:
        if ue.attach not in node_names:
            raise ParseError(attach_line, f"ue {quoted(ue.name)} attaches to unknown node {quoted(ue.attach)}")
    ue_names = {u.name for u, _ in acc.ues}
    sessions_by_ue: dict[str, list[SessionSpec]] = {name: [] for name in ue_names}
    for ue_name, ue_line, spec in acc.sessions:
        if ue_name not in ue_names:
            raise ParseError(ue_line, f"session references unknown UE {quoted(ue_name)}")
        sessions_by_ue[ue_name].append(spec)
    for ue_name, lineno in acc.script_ues.items():  # in line order
        if ue_name not in ue_names:
            raise ParseError(lineno, f"stimulus references unknown UE {quoted(ue_name)}")
    ues = tuple(UeSpec(u.name, u.attach, tuple(sessions_by_ue[u.name])) for u, _ in acc.ues)

    settings = Settings(**acc.settings_kv)
    topology = Topology(tuple(acc.nodes), ues, seed=settings.seed)
    return Scenario(topology, tuple(acc.script), settings)


def _lines(scenario: Scenario) -> list[str]:
    """The lines of `scenario`'s text, one per key and per stimulus, and "" for its final newline."""
    sections = [("settings", vars(scenario.settings))] + [("node", vars(n)) for n in scenario.topology.nodes]
    for ue in scenario.topology.ues:
        sections.append(("ue", vars(ue)))
        for s in ue.sessions:
            sections.append(("session", {"ue": ue.name, "id": s.session_id, "drbs": s.drbs, "flow": s.flows}))
    out = []
    for name, values in sections:
        out.append(f"[{name}]")
        for key, field in _SECTIONS[name].items():
            out += [f"{key} = {field.format(v)}" for v in (values[key] if field.repeats else (values[key],))]
        out.append("")
    out.append("[script]")
    for tick, kind, args in scenario.script:
        types = STIMULI.get(kind, ())  # an unknown kind or a wrong arity is written for the parser to refuse
        words = [_ARGS[t].format(arg) for t, arg in zip(types, args)] if len(types) == len(args) else map(str, args)
        out.append(" ".join([str(tick), str(kind), *words]))
    out.append("")
    return out


def serialize_scenario(scenario: Scenario) -> str:
    """The canonical text of `scenario`, read back with `parse_scenario`: a
    ValueError quotes the first line that does not read back as written."""
    try:
        text = "\n".join(_lines(scenario))
    except ValueError as exc:  # a value with no text at all
        raise ValueError(f"cannot write the scenario: {exc}") from None
    try:
        result = parse_scenario(text)
    except ParseError as exc:
        raise ValueError(f"cannot write {quoted(text.splitlines()[exc.line - 1])}: {exc}") from None
    if result != scenario:
        # lines as written, so a value with a line break differs too; if all agree, only a type does
        for ours, theirs in zip(_lines(scenario), _lines(result)):
            if ours != theirs:
                raise ValueError(f"cannot write {quoted(ours)}: it reads back as {quoted(theirs)}")
    return text


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
