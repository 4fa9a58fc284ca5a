import contextlib
import dataclasses
import io
import ipaddress
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_parse_scenario, reference_run, run_outcome

from open5gsim.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_SIM_ERROR,
    main,
)
from open5gsim.controller import Controller, QosFlowSpec, RrcState, SessionSpec
from open5gsim.errors import InvalidMessageError, ProtocolViolationError
from open5gsim.netsim import STIMULI, NodeSpec, Settings, Simulator, Stimulus, Topology, UeSpec
from open5gsim.node import Rat
from open5gsim.scenario import (
    _ARGS,
    _SECTIONS,
    _STIMULUS_PARSERS,
    ParseError,
    Scenario,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)
from open5gsim.trace import read_trace, write_trace
from open5gsim.wire import SRB_BEARER_IDS, ip_str, pack_envelope

INITIAL_ACCESS = "scenarios/initial_access.scn"
MULTI_RAT = "scenarios/multi_rat.scn"
GOLDEN = "goldens/fig6_initial_access.trace"


# -- scenario format -----------------------------------------------------------


@pytest.mark.parametrize("path", [INITIAL_ACCESS, MULTI_RAT])
def test_parse_serialize_round_trip(path):
    scenario = load_scenario(path)
    text = serialize_scenario(scenario)
    assert parse_scenario(text) == scenario
    # canonical form is a fixed point
    assert serialize_scenario(parse_scenario(text)) == text


# every row's written form: a named and a numbered protocol, lowercase hex,
# the DRB list and the RAT's name
_CANONICAL = """[settings]
seed = 0
admission_cap = 8
max_events = 10000

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
flow = 2 10.0.1.2 47 34 drb=2

[script]
0 ue_power_on ue1
40 send_uplink_data ue1 1 68656c6c6f
41 inject_downlink_data ue1 10.0.1.2 udp 34 0aff
42 inject_downlink_data ue1 10.0.1.2 47 34 00
"""


def test_serialize_writes_the_canonical_text():
    assert serialize_scenario(parse_scenario(_CANONICAL.replace("0aff", "0AFF").replace("= 1,2", "= 1, 2"))) == _CANONICAL
    # the bundled scenario is canonical but for its comment header
    text = Path(INITIAL_ACCESS).read_text()
    assert serialize_scenario(parse_scenario(text)) == "".join(text.splitlines(True)[3:])


def test_bundled_scenarios_shape():
    scenario = load_scenario(INITIAL_ACCESS)
    assert [n.name for n in scenario.topology.nodes] == ["gnb1"]
    ue = scenario.topology.ues[0]
    assert ue.sessions[0].drbs == (1, 2)
    assert len(ue.sessions[0].flows) == 3

    multi = load_scenario(MULTI_RAT)
    assert [n.rat.value for n in multi.topology.nodes] == ["NR", "LTE", "WLAN"]


def expect_parse_error(text: str, lineno: int, fragment: str):
    with pytest.raises(ParseError) as exc:
        parse_scenario(text)
    assert exc.value.line == lineno
    assert fragment in str(exc.value)


def test_unknown_rat_names_the_line():
    text = "[node]\nname = n1\nrat = 6G\nngu_ip = 10.0.0.1\n"
    expect_parse_error(text, 3, "unknown RAT")


def test_unknown_key_rejected():
    expect_parse_error("[node]\nname = n1\ncolour = blue\n", 3, "unknown key")


def test_unknown_section_rejected():
    expect_parse_error("[frobnicator]\nx = 1\n", 1, "unknown section")


def test_missing_node_key_rejected():
    expect_parse_error("[node]\nname = n1\n", 1, "missing keys")


def test_bad_script_stimulus_rejected():
    expect_parse_error("[script]\n0 explode ue1\n", 2, "unknown stimulus")
    expect_parse_error("[script]\n-5 ue_power_on ue1\n", 2, "negative tick '-5'")
    expect_parse_error("[script]\n5\n", 2, "script line wants: <tick> <stimulus> <args...>")


def test_a_tick_a_trace_cannot_hold_is_rejected(tmp_path, capsys):
    """A trace holds times of at most 640 digits, so a tick has at most 639;
    the digits are the number's, whatever zeros lead the token."""
    head = NODE + UE + "[script]\n"  # the script line is line 9
    assert parse_scenario(head + "9" * 639 + " ue_power_on ue1\n").script[0].tick == 10**639 - 1
    assert parse_scenario(head + "0" * 700 + "1 ue_power_on ue1\n").script[0].tick == 1
    fragment = "tick '1" + "0" * 79 + "'... (700 characters) has more than 639 digits"
    expect_parse_error(head + "1" + "0" * 699 + " ue_power_on ue1\n", 9, fragment)
    scn = tmp_path / "long_tick.scn"
    scn.write_text(head + "0 ue_power_on ue1\n" + "1" + "0" * 699 + " send_uplink_data ue1 1 00\n")
    assert main(["run", str(scn), "-o", str(tmp_path / "o.trace")]) == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert err == f"parse error: line 10: {fragment}\n"
    assert len(err.encode()) < 512


def test_a_run_from_the_longest_tick_writes_a_trace_that_verifies(tmp_path, capsys):
    scn = tmp_path / "longest_tick.scn"
    scn.write_text(Path(INITIAL_ACCESS).read_text() + "9" * 639 + " send_uplink_data ue1 1 00\n")
    trace = str(tmp_path / "o.trace")
    assert main(["run", str(scn), "-o", trace]) == EXIT_OK
    assert main(["verify", trace, "--golden", trace]) == EXIT_OK


@pytest.mark.parametrize("cap", [0, -1])
def test_admission_cap_below_one_rejected(tmp_path, capsys, cap):
    """A cap of 0 would admit no UE and report nothing."""
    text = f"[settings]\nadmission_cap = {cap}\n" + NODE + UE + "[script]\n0 ue_power_on ue1\n"
    expect_parse_error(text, 2, f"admission_cap '{cap}' is below 1")
    scn = tmp_path / "cap.scn"
    scn.write_text(text)
    assert main(["run", str(scn), "-o", str(tmp_path / "o.trace")]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().err == f"parse error: line 2: admission_cap '{cap}' is below 1\n"


def test_bad_hex_payload_rejected():
    expect_parse_error("[script]\n0 send_uplink_data ue1 1 zz\n", 2, "bad hex")


def test_session_for_unknown_ue_rejected():
    text = "[session]\nue = ghost\nid = 1\ndrbs = 1\n"
    expect_parse_error(text, 2, "unknown UE")


NODE = "[node]\nname = gnb1\nrat = NR\nngu_ip = 10.0.0.1\n"
UE = "[ue]\nname = ue1\nattach = gnb1\n"


@pytest.mark.parametrize(
    "text, lineno, fragment",
    [
        (NODE + NODE, 6, "duplicate node name 'gnb1'"),
        (NODE + UE + UE, 9, "duplicate ue name 'ue1'"),
    ],
    ids=["node", "ue"],
)
def test_duplicate_names_rejected(tmp_path, capsys, text, lineno, fragment):
    expect_parse_error(text, lineno, fragment)
    scn = tmp_path / "dup.scn"
    scn.write_text(text + "[script]\n0 ue_power_on ue1\n")
    assert main(["run", str(scn), "-o", str(tmp_path / "o.trace")]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().err == f"parse error: line {lineno}: {fragment}\n"


@pytest.mark.parametrize("name", ["", "gnb 1", "gnb\t1"], ids=["empty", "space", "tab"])
@pytest.mark.parametrize("section, lineno", [("node", 2), ("ue", 6)])
def test_names_a_trace_line_cannot_hold_rejected(tmp_path, capsys, section, lineno, name):
    """A trace record holds each name as one space-separated field, so a
    trace naming such a node or UE would not read back."""
    old = "name = gnb1" if section == "node" else "name = ue1"
    text = (NODE + UE).replace(old, f"name = {name}")
    fragment = f"{section} name {name!r} is not one word"
    expect_parse_error(text, lineno, fragment)
    scn = tmp_path / "names.scn"
    scn.write_text(text + "[script]\n0 ue_power_on ue1\n")
    assert main(["run", str(scn), "-o", str(tmp_path / "o.trace")]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().err == f"parse error: line {lineno}: {fragment}\n"
    assert not (tmp_path / "o.trace").exists()


@pytest.mark.parametrize(
    "text, lineno, fragment",
    [
        (NODE + UE.replace("gnb1", "nowhere") + "[script]\n0 ue_power_on ue1\n", 7,
         "ue 'ue1' attaches to unknown node 'nowhere'"),
        (NODE + UE + "[script]\n0 ue_power_on ue1\n5 ue_power_on ghost\n", 10,
         "stimulus references unknown UE 'ghost'"),
    ],
    ids=["attach", "script"],
)
def test_unknown_node_or_ue_reference_rejected(tmp_path, capsys, text, lineno, fragment):
    """The simulator would raise ScriptError without a line; the parser names it."""
    expect_parse_error(text, lineno, fragment)
    scn = tmp_path / "unknown.scn"
    scn.write_text(text)
    assert main(["run", str(scn), "-o", str(tmp_path / "o.trace")]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().err == f"parse error: line {lineno}: {fragment}\n"


def test_each_bad_downlink_address_is_reported_at_its_line():
    """The parser checks each distinct address once; a bad one never passes."""
    head = NODE + UE + "[script]\n0 ue_power_on ue1\n"  # 9 lines

    def downlink(tick, addr):
        return f"{tick} inject_downlink_data ue1 {addr} tcp 34 00\n"

    good = head + downlink(30, "10.0.1.2") + downlink(31, "10.0.1.2")
    assert [stim.args[1] for stim in parse_scenario(good).script[1:]] == ["10.0.1.2", "10.0.1.2"]
    expect_parse_error(head + downlink(30, "10.0.0.999"), 10, "bad IPv4 address '10.0.0.999'")
    twice = head + downlink(30, "10.0.1.2") + downlink(31, "10.0.0.999") + downlink(32, "10.0.0.999")
    expect_parse_error(twice, 11, "bad IPv4 address '10.0.0.999'")


@pytest.mark.parametrize(
    "line, quoted",
    [
        ("0 send_uplink_data ue1 1 " + "ab" * 1399 + "g", "bad hex payload '" + "ab" * 40 + "'... (2799 characters)"),
        ("1" * 5000 + " ue_power_on ue1", "bad tick '" + "1" * 80 + "'... (5000 characters)"),
        ("0 " + "k" * 81 + " ue1", "unknown stimulus '" + "k" * 80 + "'... (81 characters)"),
        ("0 " + "k" * 80 + " ue1", "unknown stimulus '" + "k" * 80 + "'"),
        (
            "0 inject_downlink_data ue1 " + "9" * 100 + " tcp 34 00",
            "bad IPv4 address '" + "9" * 80 + "'... (100 characters)",
        ),
        ("-" + "1" * 3000 + " ue_power_on ue1", "negative tick '-" + "1" * 79 + "'... (3001 characters)"),
        (
            "0 inject_downlink_data ue1 10.0.1.1 tcp " + "9" * 100 + " 00",
            "l4 port '" + "9" * 80 + "'... (100 characters) out of range 0..65535",
        ),
    ],
    ids=["hex", "tick", "kind-81", "kind-80", "address", "negative-tick", "l4-port"],
)
def test_a_parse_error_quotes_at_most_80_characters_of_its_token(tmp_path, capsys, line, quoted):
    text = NODE + UE + "[script]\n" + line + "\n"  # the script line is line 9
    expect_parse_error(text, 9, quoted)
    scn = tmp_path / "long_token.scn"
    scn.write_text(text)
    assert main(["run", str(scn), "-o", str(tmp_path / "o.trace")]) == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert err == f"parse error: line 9: {quoted}\n"
    assert len(err.encode()) < 512


_LONG_UE = "u" * 3000
_LONG_UE_SECTION = UE.replace("ue1", _LONG_UE)
_LONG_SESSION = f"[session]\nue = {_LONG_UE}\nid = {{}}\ndrbs = 1\n"


@pytest.mark.parametrize(
    "text, lineno, fragment",
    [
        (NODE + _LONG_UE_SECTION + _LONG_SESSION.format(1) * 2, 14, "already has session 1"),
        (NODE + _LONG_UE_SECTION + _LONG_SESSION.format(1) + _LONG_SESSION.format(2), 15, "already uses drb 1"),
        (NODE + _LONG_UE_SECTION.replace("gnb1", "nowhere"), 7, "attaches to unknown node 'nowhere'"),
    ],
    ids=["session", "drb", "attach"],
)
def test_an_error_about_a_ue_quotes_at_most_80_characters_of_its_name(tmp_path, capsys, text, lineno, fragment):
    expect_parse_error(text, lineno, f"ue '{'u' * 80}'... (3000 characters) {fragment}")
    scn = tmp_path / "long_ue.scn"
    scn.write_text(text)
    assert main(["run", str(scn), "-o", str(tmp_path / "o.trace")]) == EXIT_PARSE_ERROR
    assert len(capsys.readouterr().err.encode()) < 512


# -- the parser against the reference parser -----------------------------------
# Each example is a canonical scenario, damaged line by line. Both parsers must
# give an equal Scenario, or raise the same error with the same text and line.

_WHITESPACE = [" ", "  ", "\t", " \t ", "\xa0", "\u3000", "\x1f", "\u2003"]
_LINE_BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
_BAD_TOKENS = [
    # numbers as Python reads them, and numbers it does not read
    "+5", "1_0", "\u0663", "\uff15", "-1", "-0", "007", "0x1f", "1e3", "", "99999", "65536", "256", "1" * 90,
    # payloads
    "zz", "abc", "AB", "aa bb", "aa\tbb", "\uff41\uff41", "0" * 200 + "g",
    # addresses
    "01.2.3.4", "256.1.1.1", "1..2.3", "1.2.3", "1.2.3.4.5", "\uff11.2.3.4", "1.2.3.4/8", "10.0.1.1", "10.0.9.9",
    # kinds, names and protocols
    "ue_power_off", "UE_POWER_ON", "explode", "ue9", "ue1", "udp", "icmp", "TCP", "[script]", "x" * 100,
    # key-line pieces
    "=", "name", "flow", "drb=9", "NR",
]
_TICKS = ["-5", "-0", "+5", "-1_0", "1_0", "\u0663", "-\u0663", "007", "-", "5."]
_EXTRA_LINES = [
    "[script]", "[ script ]", "[node]", "[bogus]", "[", "]", "[ue1", "[0 ue_power_on ue1]", "# a comment [x]",
    "0 ue_power_on ue1", "-5", "-5 ue_power_on", "-5 explode ue1", "-5 send_uplink_data ue1", "5",
    "5 send_uplink_data ue1 1",
    "7 inject_downlink_data ue1 010.0.1.2 tcp 34 00", "7 inject_downlink_data ue2 10.0.1.2 udp 80 00 00",
    "key = value", "seed = 3",
]
_COMMENT = st.text(alphabet="ab #[]=\t", max_size=8).map(lambda t: "#" + t)


def _damage(draw, lines: list[str], script_start: int) -> None:
    """Damage one line, most often one after `script_start`."""
    ops = ["comment", "space", "pad", "break", "tick", "tick", "token", "drop", "add", "insert", "delete", "dup"]
    op = draw(st.sampled_from(ops))
    first = draw(st.sampled_from([0, script_start, script_start]))
    if op == "insert":
        lines.insert(draw(st.integers(min(first, len(lines)), len(lines))), draw(st.sampled_from(_EXTRA_LINES)))
        return
    if first >= len(lines):
        return
    i = draw(st.integers(first, len(lines) - 1))
    line = lines[i]
    tokens = line.split(" ")
    if op == "comment":
        lines[i] = line + draw(st.sampled_from(["", " ", "\t"])) + draw(_COMMENT)
    elif op == "space":
        k = draw(st.integers(0, len(tokens) - 1))
        lines[i] = " ".join(tokens[:k]) + draw(st.sampled_from(_WHITESPACE)) + " ".join(tokens[k:])
    elif op == "pad":
        lines[i] = draw(st.sampled_from(_WHITESPACE)) + line + draw(st.sampled_from(_WHITESPACE))
    elif op == "break":
        k = draw(st.integers(0, len(line)))
        lines[i] = line[:k] + draw(st.sampled_from(_LINE_BREAKS)) + line[k:]
    elif op == "tick":
        lines[i] = " ".join([draw(st.sampled_from(_TICKS)), *tokens[1:]])
    elif op == "token":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
        lines[i] = " ".join(tokens)
    elif op == "drop":
        del tokens[draw(st.integers(0, len(tokens) - 1))]
        lines[i] = " ".join(tokens)
    elif op == "add":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_BAD_TOKENS)))
        lines[i] = " ".join(tokens)
    elif op == "delete":
        del lines[i]
    else:
        lines.insert(i, line)


# hex as the parser writes it and in upper case, and payloads it must reject as
# the reference parser does: odd length, whitespace inside, non-ASCII digits
_HEX = st.one_of(
    st.binary(min_size=1, max_size=8).map(bytes.hex),
    st.binary(min_size=1, max_size=8).map(lambda data: data.hex().upper()),
    st.sampled_from(["a", "abc", "AbC", "ab cd", "ab\tcd", "ab\x0bcd", "ab\xa0cd", "\u0663\u0663", "a\uff10"]),
)
_SCRIPT_LINE = st.one_of(
    st.builds("{} ue_power_on {}".format, st.integers(0, 99), st.sampled_from(["ue1", "ue2", "ue3"])),
    st.builds(
        "{} send_uplink_data {} {} {}".format,
        st.integers(0, 99),
        st.sampled_from(["ue1", "ue2", "ue3"]),
        st.integers(0, 31),
        _HEX,
    ),
    st.builds(
        "{} inject_downlink_data {} {} {} {} {}".format,
        st.integers(0, 99),
        st.sampled_from(["ue1", "ue2", "ue3"]),
        st.sampled_from(["10.0.1.1", "10.0.2.1", "10.0.3.1", "192.168.0.255"]),
        st.sampled_from(["tcp", "udp", "icmp", "0", "255", "47", "sctp"]),
        st.integers(0, 65535),
        _HEX,
    ),
)


@st.composite
def _damaged_scenarios(draw) -> str:
    head = serialize_scenario(load_scenario(MULTI_RAT)).splitlines()
    lines = head + draw(st.lists(_SCRIPT_LINE, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 4))):
        _damage(draw, lines, head.index("[script]") + 1)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n", "\u2028"]))


def _outcome(parse, text: str):
    try:
        return parse(text)
    except Exception as exc:  # an error must match in class, text and line
        return type(exc), str(exc), getattr(exc, "line", None)


@given(_damaged_scenarios())
@settings(max_examples=600, deadline=None)
def test_parse_agrees_with_the_reference_parser(text):
    assert _outcome(parse_scenario, text) == _outcome(reference_parse_scenario, text)


_SESSION = "[session]\nue = ue1\nid = 1\ndrbs = 1\n"


@pytest.mark.parametrize(
    "text",
    [
        NODE + UE + _SESSION + "[session]\nue = ue1\nid = 1\ndrbs = x\n",
        NODE + UE + _SESSION + "[session]\nue = ue1\nid = 2\ndrbs = 1\nflow = bad\n",
        NODE + UE + _SESSION.replace("drbs = 1\n", "drbs = 1\nflow = 1 10.0.0.1 tcp 1 drb=2\nflow = bad\n"),
        NODE + NODE.replace("rat = NR", "rat = 6G"),
        NODE.replace("gnb1", "a b").replace("10.0.0.1", "bad"),
        "[settings]\nseed = x\nseed = 1\n",
        "[settings]\nmax_events = x\nseed = y\n",
        "[settings]\nseed = 1\n[settings]\nseed = x\n",
    ],
    ids=[
        "session-id-before-drbs", "drb-before-flows", "flow-by-flow", "rat-before-name", "ngu_ip-before-name",
        "settings-value-before-duplicate", "settings-in-line-order", "settings-across-sections",
    ],
)
def test_a_file_with_two_faults_gets_the_reference_parsers_error(text):
    """Which error a bad file gets depends on the order the checks run in."""
    outcome = _outcome(parse_scenario, text)
    assert outcome[0] is ParseError
    assert outcome == _outcome(reference_parse_scenario, text)


@pytest.mark.parametrize("path", [INITIAL_ACCESS, MULTI_RAT])
def test_bundled_scenarios_parse_as_the_reference_parses_them(path):
    text = Path(path).read_text()
    assert parse_scenario(text) == reference_parse_scenario(text)


@pytest.mark.parametrize(
    "stim, error",
    [
        (
            Stimulus(40, "send_uplink_data", ("ue1", 1, b"")),
            "'40 send_uplink_data ue1 1 ': line 24: send_uplink_data wants 3 arguments",
        ),
        (
            Stimulus(41, "inject_downlink_data", ("ue1", "10.0.1.2", 6, 34, b"")),
            "'41 inject_downlink_data ue1 10.0.1.2 tcp 34 ': line 24: inject_downlink_data wants 5 arguments",
        ),
        (Stimulus(-5, "ue_power_on", ("ue1",)), "'-5 ue_power_on ue1': line 24: negative tick '-5'"),
    ],
    ids=["uplink", "downlink", "negative_tick"],
)
def test_serialize_rejects_a_stimulus_it_cannot_write(stim, error):
    """The hex of no bytes is no token at all, and no tick is negative: the parser refuses each line."""
    scenario = load_scenario(INITIAL_ACCESS)
    with pytest.raises(ValueError) as exc:
        serialize_scenario(dataclasses.replace(scenario, script=(stim,)))
    assert str(exc.value) == f"cannot write {error}"


@pytest.mark.parametrize(
    "address, node_error, stimulus_error",
    [
        ("10.0.0.1#x", "it reads back as 'ngu_ip = 10.0.0.1'", "inject_downlink_data wants 5 arguments"),
        ("10.0.0.1 x", "line 9: bad IPv4 address '10.0.0.1 x'", "inject_downlink_data wants 5 arguments"),
        ("10.0.0.01", "line 9: bad IPv4 address '10.0.0.01'", "bad IPv4 address '10.0.0.01'"),
        ("", "line 9: bad IPv4 address ''", "inject_downlink_data wants 5 arguments"),
    ],
    ids=["hash", "space", "zero", "empty"],
)
def test_serialize_rejects_an_address_it_cannot_write(address, node_error, stimulus_error):
    """`ngu_ip = 10.0.0.1#x` would read back as 10.0.0.1."""
    scenario = load_scenario(INITIAL_ACCESS)
    (node,) = scenario.topology.nodes
    topology = dataclasses.replace(scenario.topology, nodes=(dataclasses.replace(node, ngu_ip=address),))
    with pytest.raises(ValueError) as exc:
        serialize_scenario(dataclasses.replace(scenario, topology=topology))
    assert str(exc.value) == f"cannot write {f'ngu_ip = {address}'!r}: {node_error}"
    stim = Stimulus(41, "inject_downlink_data", ("ue1", address, 6, 34, b"x"))
    with pytest.raises(ValueError) as exc:
        serialize_scenario(dataclasses.replace(scenario, script=(stim,)))
    line = f"41 inject_downlink_data ue1 {address} tcp 34 78"
    assert str(exc.value) == f"cannot write {line!r}: line 24: {stimulus_error}"


def test_serialize_quotes_a_long_stimulus_in_short():
    scenario = load_scenario(INITIAL_ACCESS)
    stim = Stimulus(41, "inject_downlink_data", ("ue1", "10.0.1.2#x", 6, 34, b"\xab" * 1400))
    with pytest.raises(ValueError) as exc:
        serialize_scenario(dataclasses.replace(scenario, script=(stim,)))
    quoted = repr("41 inject_downlink_data ue1 10.0.1.2#x tcp 34 " + "ab" * 17)
    error = "line 24: inject_downlink_data wants 5 arguments"
    assert str(exc.value) == f"cannot write {quoted}... (2846 characters): {error}"
    assert len(str(exc.value)) < 512


# -- every row of the format writes what it reads ------------------------------
# One value strategy per section key and per stimulus argument type; a row
# added to the format without one fails the first test.

_NAMES = st.text(alphabet="abuexyz019_-.", min_size=1, max_size=6)
# a row also meets names it cannot write: with a comment or whitespace, or empty
_ANY_NAMES = st.text(alphabet="abuxyz019_-.# \t\xa0", max_size=6)
_IPS = st.binary(min_size=4, max_size=4).map(ip_str)
# a row also meets addresses it cannot write: with a comment, a space, a leading zero
_ANY_IPS = st.one_of(_IPS, _IPS.map(lambda ip: ip + "#x"), st.sampled_from(["1.2.3.4 5", "01.2.3.4", "1.2.3", ""]))
_PROTOS = st.one_of(st.sampled_from([6, 17, 1]), st.integers(0, 255))  # named and numbered
_PAYLOADS = st.binary(min_size=1, max_size=12)
_DRBS = [d for d in range(32) if d not in SRB_BEARER_IDS]


def _flows(drbs) -> st.SearchStrategy:
    return st.builds(
        QosFlowSpec,
        st.integers(0, 63),
        st.binary(min_size=4, max_size=4),
        _PROTOS,
        st.integers(0, 65535),
        st.sampled_from(drbs),
    )


_ROW_VALUES = {
    ("settings", "seed"): st.integers(),
    ("settings", "admission_cap"): st.integers(min_value=1),
    ("settings", "max_events"): st.integers(),
    ("node", "name"): _ANY_NAMES,
    ("node", "rat"): st.sampled_from(Rat),
    ("node", "ngu_ip"): _ANY_IPS,
    ("ue", "name"): _ANY_NAMES,
    ("ue", "attach"): _ANY_NAMES,
    ("session", "ue"): _ANY_NAMES,
    ("session", "id"): st.integers(1, 15),
    ("session", "drbs"): st.lists(st.sampled_from(_DRBS), min_size=1, max_size=4, unique=True).map(tuple),
    ("session", "flow"): _flows(_DRBS),
    ("stimulus", "ue"): _ANY_NAMES,
    ("stimulus", "bearer"): st.integers(),
    ("stimulus", "ip"): _ANY_IPS,
    ("stimulus", "proto"): _PROTOS,
    ("stimulus", "l4_port"): st.integers(0, 65535),
    ("stimulus", "payload"): st.binary(max_size=12),  # b"" has no script form
}
_ROWS = {(section, key): field for section, fields in _SECTIONS.items() for key, field in fields.items()}
_ROWS.update({("stimulus", arg_type): field for arg_type, field in _ARGS.items()})


def test_every_row_has_a_value_strategy():
    assert set(_ROWS) == set(_ROW_VALUES)
    assert {t for types in STIMULI.values() for t in types} == set(_ARGS)
    # the parser and the Simulator look for a stimulus's UE in its first argument
    assert all(types[0] == "ue" for types in STIMULI.values())
    assert set(_STIMULUS_PARSERS) == set(STIMULI)  # each kind has its fast line parser


@pytest.mark.parametrize("row", sorted(_ROW_VALUES), ids="{0[0]}.{0[1]}".format)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_each_row_reads_back_the_value_it_writes(row, data):
    field, value = _ROWS[row], data.draw(_ROW_VALUES[row])
    if (
        value == b""
        or (_ROW_VALUES[row] is _ANY_NAMES and not writable(value))
        or (_ROW_VALUES[row] is _ANY_IPS and not writable_ip(value))
    ):
        with pytest.raises(ValueError, match="^cannot write "):
            serialize_scenario(_holding(row, value))
        return
    text = field.format(value)
    if row[0] == "stimulus":
        assert text.split() == [text] and "#" not in text  # one field of a script line
    else:
        assert text == text.strip() and text.splitlines() == [text] and "#" not in text
    assert field.parse(text, 7) == value


def test_the_rows_cover_an_empty_payload_and_both_kinds_of_protocol():
    """The property's draws should reach these; they are pinned here too."""
    assert _ROWS[("stimulus", "proto")].format(17) == "udp"
    assert _ROWS[("stimulus", "proto")].format(47) == "47"
    assert _ROWS[("stimulus", "proto")].parse("udp", 1) == 17
    with pytest.raises(ValueError, match="^cannot write '40 send_uplink_data ue1 1 ': line 25: "):
        serialize_scenario(_holding(("stimulus", "payload"), b""))


def _holding(row: tuple[str, str], value) -> Scenario:
    """The initial-access scenario with `value` in `row`: a name wherever the
    name is used, an address or a payload in one stimulus added to its script."""
    scenario = load_scenario(INITIAL_ACCESS)
    topology, (node,), (ue,) = scenario.topology, scenario.topology.nodes, scenario.topology.ues
    if row in {("node", "name"), ("ue", "attach")}:
        nodes, ues = (dataclasses.replace(node, name=value),), (dataclasses.replace(ue, attach=value),)
        return dataclasses.replace(scenario, topology=dataclasses.replace(topology, nodes=nodes, ues=ues))
    if row in {("ue", "name"), ("session", "ue"), ("stimulus", "ue")}:
        ues = (dataclasses.replace(ue, name=value),)
        script = tuple(stim._replace(args=(value, *stim.args[1:])) for stim in scenario.script)
        return dataclasses.replace(scenario, topology=dataclasses.replace(topology, ues=ues), script=script)
    if row == ("node", "ngu_ip"):
        nodes = (dataclasses.replace(node, ngu_ip=value),)
        return dataclasses.replace(scenario, topology=dataclasses.replace(topology, nodes=nodes))
    stim = {
        ("stimulus", "ip"): Stimulus(41, "inject_downlink_data", ("ue1", value, 6, 34, b"x")),
        ("stimulus", "payload"): Stimulus(40, "send_uplink_data", ("ue1", 1, value)),
    }[row]
    return dataclasses.replace(scenario, script=scenario.script + (stim,))


def writable(name: str) -> bool:
    """A name that reads back as itself: one word, and no comment in it."""
    return "#" not in name and name.split() == [name]


def writable_ip(address: str) -> bool:
    """An address that reads back as itself: one `ipaddress` accepts, as `wire.ip_bytes` does."""
    try:
        ipaddress.IPv4Address(address)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize(
    "name, ue_error, stimulus_error",
    [
        ("ue#1", "it reads back as 'name = ue'", "line 24: stimulus references unknown UE 'ue'"),
        ("ue 1", "line 12: ue name 'ue 1' is not one word", "line 24: ue_power_on wants 1 arguments"),
        ("ue\xa01", "line 12: ue name 'ue\\xa01' is not one word", "line 24: ue_power_on wants 1 arguments"),
        ("", "line 12: ue name '' is not one word", "line 24: ue_power_on wants 1 arguments"),
    ],
    ids=["hash", "space", "nbsp", "empty"],
)
def test_serialize_rejects_a_name_it_cannot_write(name, ue_error, stimulus_error):
    """`name = ue#1` would read back as a UE named `ue`."""
    scenario = load_scenario(INITIAL_ACCESS)
    (ue,) = scenario.topology.ues
    topology = dataclasses.replace(scenario.topology, ues=(dataclasses.replace(ue, name=name),))
    with pytest.raises(ValueError) as exc:
        serialize_scenario(dataclasses.replace(scenario, topology=topology, script=()))
    assert str(exc.value) == f"cannot write {f'name = {name}'!r}: {ue_error}"
    stim = Stimulus(0, "ue_power_on", (name,))
    with pytest.raises(ValueError) as exc:
        serialize_scenario(dataclasses.replace(scenario, script=(stim,)))
    assert str(exc.value) == f"cannot write {f'0 ue_power_on {name}'!r}: {stimulus_error}"


@st.composite
def _scenarios(draw) -> Scenario:
    node_names = draw(st.lists(_NAMES, min_size=1, max_size=3, unique=True))
    nodes = tuple(NodeSpec(name, draw(st.sampled_from(Rat)), draw(_IPS)) for name in node_names)
    ues = []
    for name in draw(st.lists(_NAMES, max_size=3, unique=True)):
        free, sessions = list(_DRBS), []
        for session_id in draw(st.lists(st.integers(1, 15), max_size=2, unique=True)):
            drbs = tuple(draw(st.lists(st.sampled_from(free), min_size=1, max_size=3, unique=True)))
            free = [d for d in free if d not in drbs]
            sessions.append(SessionSpec(session_id, drbs, tuple(draw(st.lists(_flows(drbs), max_size=3)))))
        ues.append(UeSpec(name, draw(st.sampled_from(node_names)), tuple(sessions)))
    script = []
    if ues:
        ue_names = st.sampled_from([u.name for u in ues])
        stimuli = st.one_of(
            st.tuples(st.just("ue_power_on"), st.tuples(ue_names)),
            st.tuples(st.just("send_uplink_data"), st.tuples(ue_names, st.integers(), _PAYLOADS)),
            st.tuples(
                st.just("inject_downlink_data"),
                st.tuples(ue_names, _IPS, _PROTOS, st.integers(0, 65535), _PAYLOADS),
            ),
        )
        ticks = st.one_of(st.integers(0, 99), st.integers(0, 10**639 - 1))
        script = [Stimulus(draw(ticks), kind, args) for kind, args in draw(st.lists(stimuli, max_size=6))]
    values = Settings(draw(st.integers()), draw(st.integers(min_value=1)), draw(st.integers()))
    return Scenario(Topology(nodes, tuple(ues), seed=values.seed), tuple(script), values)


@given(_scenarios())
@settings(max_examples=150, deadline=None)
def test_every_scenario_reads_back_from_its_text(scenario):
    text = serialize_scenario(scenario)
    assert parse_scenario(text) == scenario
    assert serialize_scenario(parse_scenario(text)) == text


def _replaced(obj, path: tuple, value):
    """`obj` with the value at `path`, of field names and tuple indices, made `value`."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(head, int):
        items = list(obj)
        items[head] = _replaced(items[head], rest, value)
        return tuple(items)
    inner = _replaced(getattr(obj, head), rest, value)
    return obj._replace(**{head: inner}) if isinstance(obj, Stimulus) else dataclasses.replace(obj, **{head: inner})


# a value past its rule: each stays one word, so the writer has text for it
_NOT_A_TICK = st.one_of(st.integers(max_value=-1), st.integers(10**639, 10**640 - 1))
_NOT_A_PORT = st.one_of(st.integers(max_value=-1), st.integers(min_value=65536))
_NOT_A_PROTO = st.one_of(st.integers(max_value=-1), st.integers(min_value=256))
_NOT_A_NAME = st.one_of(st.just(""), st.builds("{}{}{}".format, _NAMES, st.sampled_from(["#", " "]), _NAMES))


@st.composite
def _damaged_values(draw) -> Scenario:
    """A scenario of `_scenarios()` with one value damaged past the parser's rule for it."""
    scenario = draw(_scenarios())
    nodes, ues, script = scenario.topology.nodes, scenario.topology.ues, scenario.script
    targets = [(("settings", "admission_cap"), st.integers(max_value=0))]
    for i in range(len(nodes)):
        targets.append((("topology", "nodes", i, "name"), _NOT_A_NAME if i == 0 else st.just(nodes[0].name)))
    for i, ue in enumerate(ues):
        at = ("topology", "ues", i)
        targets += [(at + ("name",), _NOT_A_NAME), (at + ("attach",), st.just("ghost"))]
        for j, session in enumerate(ue.sessions):
            at_session = at + ("sessions", j)
            targets.append((at_session + ("session_id",), st.sampled_from([0, 16])))
            targets.append((at_session + ("drbs", 0), st.sampled_from([0, 3, 4, 32])))
            absent = st.sampled_from([d for d in _DRBS if d not in session.drbs])
            for k in range(len(session.flows)):
                at_flow = at_session + ("flows", k)
                targets += [(at_flow + ("l4_dst",), _NOT_A_PORT), (at_flow + ("ip_proto",), _NOT_A_PROTO)]
                targets.append((at_flow + ("drb",), absent))
    for i, stim in enumerate(script):
        at = ("script", i)
        targets += [(at + ("tick",), _NOT_A_TICK), (at + ("args", 0), st.just("ghost"))]
        if stim.kind != "ue_power_on":
            targets.append((at + ("args", -1), st.just(b"")))
        if stim.kind == "inject_downlink_data":
            targets += [(at + ("args", 2), _NOT_A_PROTO), (at + ("args", 3), _NOT_A_PORT)]
    path, values = draw(st.sampled_from(targets))
    return _replaced(scenario, path, draw(values))


@given(_damaged_values())
@settings(max_examples=300, deadline=None)
def test_serialize_refuses_or_reads_back_a_damaged_scenario(scenario):
    """The writer's contract: text that would not read back as the scenario is refused."""
    try:
        text = serialize_scenario(scenario)
    except ValueError as exc:
        assert str(exc).startswith("cannot write ") and len(str(exc)) < 512
        return
    # each way the parser may refuse it fails this one assertion, so Hypothesis shrinks one failure
    assert _outcome(parse_scenario, text) == scenario


_DOWNLINK = ("script", 1)  # the stimulus the test adds after the bundled power-on


@pytest.mark.parametrize(
    "path, value",
    [
        (("script", 0, "tick"), -5),
        (("script", 0, "tick"), 10**639),
        (("script", 0, "tick"), 10**4999),  # str() refuses it under the default limit of 4,300 digits
        (_DOWNLINK + ("args", 3), 70000),
        (("topology", "ues", 0, "sessions", 0, "flows", 0, "l4_dst"), 70000),
        (_DOWNLINK + ("args", 2), 300),
        (("topology", "ues", 0, "sessions", 0, "flows", 0, "ip_proto"), 300),
        (("topology", "ues", 0, "sessions", 0, "session_id"), 0),
        (("topology", "ues", 0, "sessions", 0, "drbs", 0), 3),
        (("settings", "admission_cap"), 0),
        (("topology", "ues", 0, "sessions", 0, "flows", 0, "drb"), 9),
        (("topology", "ues", 0, "attach"), "ghost"),
        (_DOWNLINK + ("args", 0), "ghost"),
        (("topology", "nodes"), (NodeSpec("gnb1", Rat.NR, "10.0.0.1"), NodeSpec("gnb1", Rat.NR, "10.0.0.2"))),
        (("topology", "nodes", 0, "ngu_ip"), "10.0.0.1\n[node]\nname = gnb2\nrat = NR\nngu_ip = 10.0.0.2"),
        (("topology", "ues", 0, "sessions", 0, "flows", 0, "ip_dst"), b"\x01" * 5000),
        (("script", 0, "kind"), "ue_power_off"),
        (("script", 0, "args"), ("ue1", "ue1")),
    ],
    ids=[
        "negative_tick", "tick_of_640_digits", "tick_of_5000_digits", "stimulus_port", "flow_port",
        "stimulus_protocol", "flow_protocol", "session_id", "srb_as_drb", "admission_cap", "flow_on_absent_drb",
        "unknown_attach", "unknown_script_ue", "repeated_node_name", "line_break", "flow_address_of_5000_bytes",
        "unknown_kind", "arity",
    ],
)
def test_serialize_refuses_a_value_the_parser_refuses(path, value):
    scenario = load_scenario(INITIAL_ACCESS)
    downlink = Stimulus(41, "inject_downlink_data", ("ue1", "10.0.1.2", 6, 34, b"x"))
    with_a_downlink = dataclasses.replace(scenario, script=scenario.script + (downlink,))
    assert serialize_scenario(with_a_downlink)
    with pytest.raises(ValueError, match="^cannot write ") as exc:
        serialize_scenario(_replaced(with_a_downlink, path, value))
    assert len(str(exc.value)) < 512


def test_a_stimulus_is_the_tuple_of_its_fields():
    stim = parse_scenario(NODE + UE + "[script]\n40 send_uplink_data ue1 1 6869\n").script[0]
    assert stim == (40, "send_uplink_data", ("ue1", 1, b"hi")) == Stimulus(40, "send_uplink_data", ("ue1", 1, b"hi"))
    assert (stim.tick, stim.kind, stim.args) == tuple(stim)


# -- CLI ------------------------------------------------------------------------


def test_run_writes_trace(tmp_path):
    out = tmp_path / "out.trace"
    assert main(["run", INITIAL_ACCESS, "-o", str(out)]) == EXIT_OK
    assert len(read_trace(str(out)).records) == 20


def test_run_rejects_malformed_scenario(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("[node]\nname = n1\n")
    out = tmp_path / "o.trace"
    out.write_text("an earlier trace\n")
    assert main(["run", str(bad), "-o", str(out)]) == EXIT_PARSE_ERROR
    assert out.read_text() == "an earlier trace\n"


def _missing(tmp_path):
    return tmp_path / "nope.scn"


def _directory(tmp_path):
    return tmp_path


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.scn"
    path.write_bytes(NODE.encode() + "[ue]\nname = ué1\n".encode("latin-1"))
    return path


@pytest.mark.parametrize("command", ["run", "table"])
@pytest.mark.parametrize(
    "make, err",
    [
        (_missing, "parse error: cannot read scenario: [Errno 2] No such file or directory: "),
        (_directory, "parse error: cannot read scenario: [Errno 21] Is a directory: "),
        (_not_utf8, "parse error: line 6: not UTF-8: invalid continuation byte\n"),
    ],
    ids=["missing", "directory", "not_utf8"],
)
def test_unreadable_scenario_is_a_parse_error(tmp_path, capsys, command, make, err):
    path = str(make(tmp_path))
    argv = ["-o", str(tmp_path / "o.trace")] if command == "run" else ["--node", "gnb1", "--at", "3"]
    assert main([command, path, *argv]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().err.startswith(err)
    assert not (tmp_path / "o.trace").exists()


@pytest.mark.parametrize(
    "out, err",
    [
        ("no_such_dir/o.trace", "cannot write trace: [Errno 2] No such file or directory: "),
        (".", "cannot write trace: [Errno 21] Is a directory: "),
    ],
    ids=["missing_dir", "directory"],
)
def test_unwritable_trace_is_a_parse_error(tmp_path, capsys, out, err):
    assert main(["run", INITIAL_ACCESS, "-o", str(tmp_path / out)]) == EXIT_PARSE_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith(err)
    assert captured.out == ""


@pytest.mark.parametrize(
    "old, new",
    [("ue1", "gnb1"), ("ue1", "src"), ("ue1", "amf"), ("ue1", "upf"), ("gnb1", "src"), ("gnb1", "amf")],
    ids=["ue_gnb1", "ue_src", "ue_amf", "ue_upf", "node_src", "node_amf"],
)
def test_names_never_decide_where_a_delivery_goes(tmp_path, old, new):
    """A UE may share its name with a node, the controller (`src`) or a core
    stub, and a node with the controller or a stub: each send names its handler."""
    text = re.sub(rf"\b{old}\b", new, Path(INITIAL_ACCESS).read_text())
    scn = tmp_path / "renamed.scn"
    scn.write_text(text)
    out = tmp_path / "renamed.trace"
    assert main(["run", str(scn), "-o", str(out)]) == EXIT_OK
    records = read_trace(str(out)).records
    assert len(records) == 20
    assert [(r.channel, r.kind) for r in records] == [(r.channel, r.kind) for r in read_trace(GOLDEN).records]
    scenario = load_scenario(str(scn))
    sim = Simulator(scenario.topology, list(scenario.script), scenario.settings)
    sim.run()
    assert sim.controller.ue_contexts[1].rrc_state == RrcState.CONFIGURED


BAD_FLOW_SCENARIO = (
    "[node]\nname = gnb1\nrat = NR\nngu_ip = 10.0.0.1\n"
    "[ue]\nname = ue1\nattach = gnb1\n"
    "[session]\nue = ue1\nid = 1\ndrbs = 1\nflow = {flow}\n"
    "[script]\n0 ue_power_on ue1\n"
)


@pytest.mark.parametrize(
    "flow, fragment",
    [
        ("1 10.0.1.1 tcp 99999 drb=1", "line 12: l4 port '99999' out of range 0..65535"),
        ("1 10.0.1.1 tcp 43 drb=7", "line 12: flow 1 maps to absent DRB '7'"),
        ("-5 10.0.1.1 tcp 43 drb=1", "line 12: flow id '-5' out of range 0..63"),
        ("64 10.0.1.1 tcp 43 drb=1", "line 12: flow id '64' out of range 0..63"),
        ("99999999999999999999 10.0.1.1 tcp 43 drb=1", "line 12: flow id '99999999999999999999' out of range 0..63"),
        ("1 10.0.1.1 sctp 43 drb=1", "line 12: unknown protocol 'sctp'"),
        ("1 10.0.1.1 tcp 43", "line 12: flow wants: <id> <ip_dst> <proto> <l4_dst> drb=<n>"),
        ("1 10.0.1.1 tcp 43 1", "line 12: flow wants: <id> <ip_dst> <proto> <l4_dst> drb=<n>"),
    ],
    ids=[
        "l4_dst_out_of_range", "drb_not_in_session", "flow_id_negative", "flow_id_above_63", "flow_id_huge",
        "unknown_protocol", "four_fields", "no_drb",
    ],
)
def test_run_rejects_bad_flow_at_parse_time(tmp_path, capsys, flow, fragment):
    scn = tmp_path / "bad_flow.scn"
    scn.write_text(BAD_FLOW_SCENARIO.format(flow=flow))
    assert main(["run", str(scn), "-o", str(tmp_path / "o.trace")]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().err == f"parse error: {fragment}\n"


TWO_SESSIONS_SCENARIO = (
    "[node]\nname = gnb1\nrat = NR\nngu_ip = 10.0.0.1\n"
    "[ue]\nname = ue1\nattach = gnb1\n"
    "[session]\nue = ue1\nid = 1\ndrbs = {drbs}\n"
    "[session]\nue = ue1\nid = {second_id}\ndrbs = {second_drbs}\n"
    "[script]\n0 ue_power_on ue1\n"
)


@pytest.mark.parametrize(
    "drbs, second_id, second_drbs, fragment",
    [
        ("0", 2, "5", "line 11: drb 0 is an SRB bearer id (0, 3 or 4)"),
        ("1,3", 2, "5", "line 11: drb 3 is an SRB bearer id (0, 3 or 4)"),
        ("1", 2, "4", "line 15: drb 4 is an SRB bearer id (0, 3 or 4)"),
        ("32", 2, "5", "line 11: drb '32' out of range 0..31"),
        ("1,1", 2, "5", "line 11: ue 'ue1' already uses drb 1"),
        ("1,2", 2, "5,2", "line 15: ue 'ue1' already uses drb 2"),
        ("1", 1, "2", "line 14: ue 'ue1' already has session 1"),
        ("1", 0, "2", "line 14: session id '0' out of range 1..15"),
        ("1", 16, "2", "line 14: session id '16' out of range 1..15"),
        ("1", -1, "2", "line 14: session id '-1' out of range 1..15"),
        ("1", 99999999999, "2", "line 14: session id '99999999999' out of range 1..15"),
    ],
    ids=[
        "srb0", "srb1", "srb2", "above_31", "twice_in_session", "twice_across_sessions", "session_id_twice",
        "session_id_0", "session_id_16", "session_id_negative", "session_id_huge",
    ],
)
def test_run_rejects_bad_session_and_drb_ids_at_parse_time(
    tmp_path, capsys, drbs, second_id, second_drbs, fragment
):
    scn = tmp_path / "bad_ids.scn"
    scn.write_text(TWO_SESSIONS_SCENARIO.format(drbs=drbs, second_id=second_id, second_drbs=second_drbs))
    assert main(["run", str(scn), "-o", str(tmp_path / "o.trace")]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().err == f"parse error: {fragment}\n"


SECOND_SESSION = "[session]\nue = ue1\nid = 2\ndrbs = 5\nflow = 4 10.0.9.9 udp 53 drb=5\n\n"


@pytest.mark.parametrize(
    "path, extra_session, golden",
    [
        (INITIAL_ACCESS, "", "goldens/initial_access.full.trace"),
        (MULTI_RAT, "", "goldens/multi_rat.full.trace"),
        (INITIAL_ACCESS, SECOND_SESSION, "goldens/two_sessions.full.trace"),
    ],
    ids=["initial_access", "multi_rat", "two_sessions"],
)
def test_trace_matches_full_golden(path, extra_session, golden):
    """Whole trace lines, payload digests included: a reordered port id or
    xid in any Open5G command changes a digest and fails here."""
    scn = parse_scenario(Path(path).read_text().replace("[script]", extra_session + "[script]"))
    trace = Simulator(scn.topology, list(scn.script), scn.settings).run()
    assert trace.to_text() == Path(golden).read_text()


@pytest.mark.parametrize(
    "path, node", [(INITIAL_ACCESS, "gnb1"), (MULTI_RAT, "gnb1"), (MULTI_RAT, "enb1"), (MULTI_RAT, "wt1")]
)
def test_final_table_matches_golden(capsys, path, node):
    """`table --at` past the last step prints the node's final table, every row."""
    assert main(["table", path, "--node", node, "--at", "100000"]) == EXIT_OK
    assert capsys.readouterr().out == Path(f"goldens/{Path(path).stem}.{node}.table").read_text()


def test_two_sessions_with_distinct_ids_and_drbs_run(tmp_path):
    scn = tmp_path / "two_sessions.scn"
    scn.write_text(TWO_SESSIONS_SCENARIO.format(drbs="1,2", second_id=2, second_drbs="5,31"))
    assert main(["run", str(scn), "-o", str(tmp_path / "o.trace")]) == EXIT_OK


@pytest.mark.parametrize(
    "proto, l4_dst, fragment",
    [
        ("tcp", 65536, "l4 port '65536' out of range"),
        (256, 43, "protocol '256' out of range"),
        ("sctp", 43, "unknown protocol 'sctp'"),
    ],
    ids=[  # the bad inputs
        "tcp-65536-l4 port 65536 out of range", "256-43-protocol 256 out of range", "sctp-43-unknown protocol sctp",
    ],
)
def test_out_of_range_downlink_tuple_rejected(proto, l4_dst, fragment):
    line = f"40 inject_downlink_data ue1 10.0.1.1 {proto} {l4_dst} 6869"
    expect_parse_error(f"[script]\n{line}\n", 2, fragment)


@pytest.mark.parametrize("error", [ProtocolViolationError, InvalidMessageError])
@pytest.mark.parametrize("command", ["run", "table"])
def test_controller_and_protocol_errors_are_sim_errors(
    tmp_path, capsys, monkeypatch, error, command
):
    def explode(self, *args):
        raise error("injected")

    monkeypatch.setattr(Controller, "on_rrc_uplink", explode)
    if command == "run":
        argv = ["run", INITIAL_ACCESS, "-o", str(tmp_path / "o.trace")]
    else:
        argv = ["table", INITIAL_ACCESS, "--node", "gnb1", "--at", "5"]
    assert main(argv) == EXIT_SIM_ERROR
    err = capsys.readouterr().err
    assert err == f"simulation error: {error.__name__}: injected\n"


def test_undecodable_rrc_is_a_sim_error(tmp_path, capsys):
    scn = tmp_path / "bad_rrc.scn"
    scn.write_text(Path(INITIAL_ACCESS).read_text() + "30 send_uplink_data ue1 3 ff\n")
    assert main(["run", str(scn), "-o", str(tmp_path / "o.trace")]) == EXIT_SIM_ERROR
    err = capsys.readouterr().err
    assert err == "simulation error: InvalidMessageError: undecodable message: UnicodeDecodeError\n"


def test_short_srb0_payload_before_power_on_is_a_sim_error(tmp_path, capsys):
    """A one-byte SRB0 payload reaches the controller, whose envelope check
    rejects it."""
    scn = tmp_path / "short_srb0.scn"
    scn.write_text(
        "[node]\nname = gnb1\nrat = NR\nngu_ip = 10.0.0.1\n"
        "[ue]\nname = ue1\nattach = gnb1\n"
        "[script]\n0 send_uplink_data ue1 0 ff\n0 ue_power_on ue1\n"
    )
    assert main(["run", str(scn), "-o", str(tmp_path / "o.trace")]) == EXIT_SIM_ERROR
    assert capsys.readouterr().err == "simulation error: TruncatedError: envelope of 1 bytes\n"


# UE1 powers on at tick 0 and its attach ends at tick 17, so these ticks
# reach SRB0 before attach and SRB1/SRB2 during and after it.
_MALFORMED_DOCS = st.sampled_from(
    [b"{}", b"[]", b"{", b"[[[[", b'{"kind":[],"fields":{}}', b'{"kind":"RrcSetupComplete","fields":[]}']
)
_RRC_PAYLOAD = st.one_of(st.binary(min_size=1, max_size=48), _MALFORMED_DOCS)
_SIGNALING_SEND = st.tuples(
    st.integers(-5, 30),
    st.sampled_from([0, 3, 4]),
    st.one_of(
        _RRC_PAYLOAD,
        # an SRB0 payload inside a valid envelope reaches the RRC decoder
        st.builds(pack_envelope, st.sampled_from([1, 2, 0xFFFFFFFF]), _RRC_PAYLOAD),
    ),
)


@given(st.lists(_SIGNALING_SEND, min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_arbitrary_signaling_payloads_never_crash_the_cli(sends):
    """Any payload on an SRB bearer either runs or is a simulation error; a
    negative tick is a parse error, and every trace written reads back."""
    script = "".join(f"{tick} send_uplink_data ue1 {bearer} {payload.hex()}\n" for tick, bearer, payload in sends)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        scn, out = Path(tmp) / "fuzz.scn", str(Path(tmp) / "o.trace")
        scn.write_text(Path(INITIAL_ACCESS).read_text() + script)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", str(scn), "-o", out])
            verified = main(["verify", out, "--golden", out]) if code == EXIT_OK else None
    assert code in (EXIT_OK, EXIT_PARSE_ERROR, EXIT_SIM_ERROR)
    assert (code == EXIT_PARSE_ERROR) == any(tick < 0 for tick, _, _ in sends)
    assert (code == EXIT_SIM_ERROR) == err.getvalue().startswith("simulation error: ")
    assert verified in (None, EXIT_OK)


def _with_sends(sends) -> str:
    """The Fig. 6 scenario with signaling sends added to its script."""
    script = "".join(f"{tick} send_uplink_data ue1 {bearer} {payload.hex()}\n" for tick, bearer, payload in sends)
    return Path(INITIAL_ACCESS).read_text() + script


@given(
    st.one_of(
        _scenarios().map(serialize_scenario),
        _damaged_scenarios(),
        st.lists(_SIGNALING_SEND, min_size=1, max_size=3).map(_with_sends),
    )
)
@settings(max_examples=60, deadline=None)
def test_a_run_agrees_with_the_reference_run(text):
    """A run gives the trace, the table of each node at every step, and the
    error and exit code that it gives with every reference swapped in: the
    Open5G and RRC/NG-AP codecs, the digest, the trace text, the scenario
    parser, the scan tables and the table renderer."""
    assert run_outcome(text) == reference_run(text)


def test_run_reports_budget_exhaustion(tmp_path):
    scn = tmp_path / "tiny.scn"
    scn.write_text(
        "[settings]\nmax_events = 3\n"
        "[node]\nname = gnb1\nrat = NR\nngu_ip = 10.0.0.1\n"
        "[ue]\nname = ue1\nattach = gnb1\n"
        "[script]\n0 ue_power_on ue1\n"
    )
    out = tmp_path / "o.trace"
    out.write_text("an earlier trace\n")
    assert main(["run", str(scn), "-o", str(out)]) == EXIT_SIM_ERROR
    assert out.read_text() == "an earlier trace\n"


def test_verify_is_reflexive(tmp_path, capsys):
    out = tmp_path / "out.trace"
    main(["run", INITIAL_ACCESS, "-o", str(out)])
    assert main(["verify", str(out), "--golden", GOLDEN]) == EXIT_OK
    assert "traces match (20 records)" in capsys.readouterr().out


def test_verify_flags_single_mutation(tmp_path, capsys):
    out = tmp_path / "out.trace"
    main(["run", INITIAL_ACCESS, "-o", str(out)])
    trace = read_trace(str(out))
    trace.records[6] = trace.records[6]._replace(kind="Bogus")
    write_trace(str(out), trace)
    assert main(["verify", str(out), "--golden", GOLDEN]) == EXIT_MISMATCH
    assert "divergence at step 7" in capsys.readouterr().out


def test_verify_flags_swapped_records(tmp_path, capsys):
    out = tmp_path / "out.trace"
    main(["run", INITIAL_ACCESS, "-o", str(out)])
    trace = read_trace(str(out))
    a, b = trace.records[11], trace.records[12]
    trace.records[11] = b._replace(step_no=a.step_no)
    trace.records[12] = a._replace(step_no=b.step_no)
    write_trace(str(out), trace)
    assert main(["verify", str(out), "--golden", GOLDEN]) == EXIT_MISMATCH
    assert "divergence at step 12" in capsys.readouterr().out


def test_verify_empty_trace_diverges_at_step_one(tmp_path, capsys):
    empty = tmp_path / "empty.trace"
    empty.write_text("")
    assert main(["verify", str(empty), "--golden", GOLDEN]) == EXIT_MISMATCH
    assert "divergence at step 1" in capsys.readouterr().out


def test_verify_channel_filter(tmp_path, capsys):
    out = tmp_path / "out.trace"
    main(["run", INITIAL_ACCESS, "-o", str(out)])
    assert main(["verify", str(out), "--golden", GOLDEN, "--channels", "ngap"]) == EXIT_OK
    assert "traces match (3 records)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "damage, trace_is_golden, message",
    [
        ("bogus", False, "divergence at step 10: got ('amf', 'src', 'NGAP', 'Bogus'), want "),
        ("short", False, "divergence at step 9: got 0 records, want 3\n"),  # the golden's missing record
        ("short", True, "divergence at step 9: got 3 records, want 0\n"),  # the trace's extra record
    ],
    ids=["mismatch", "trace-short", "trace-long"],
)
def test_verify_with_a_channel_filter_names_the_records_step(tmp_path, capsys, damage, trace_is_golden, message):
    """A divergence names the record's own step_no, not its place among the
    records the filter kept (2 for record 10, the second NGAP record)."""
    out = tmp_path / "out.trace"
    main(["run", INITIAL_ACCESS, "-o", str(out)])
    trace = read_trace(str(out))
    if damage == "bogus":
        assert trace.records[9].kind == "InitialContextSetupRequest"
        trace.records[9] = trace.records[9]._replace(kind="Bogus")
    else:
        del trace.records[5:]
    write_trace(str(out), trace)
    pair = [GOLDEN, str(out)] if trace_is_golden else [str(out), GOLDEN]
    capsys.readouterr()
    assert main(["verify", pair[0], "--golden", pair[1], "--channels", "ngap"]) == EXIT_MISMATCH
    assert capsys.readouterr().out.startswith(message)


def test_verify_rejects_an_unknown_channel(capsys):
    """A filter naming no channel would match nothing, and vacuously pass."""
    assert main(["verify", GOLDEN, "--golden", GOLDEN, "--channels", "ngap,srb9"]) == EXIT_PARSE_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "parse error: unknown channel 'SRB9'; channels are OPEN5G, SRB0, SRB1, SRB2, NGAP, NGU, RADIO_DATA\n"


@pytest.mark.parametrize("side", ["trace", "golden"])
@pytest.mark.parametrize("lines_before", [0, 2])
def test_verify_of_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, side, lines_before):
    """A traceback would exit 1, the code of a verification mismatch."""
    bad = tmp_path / "bad.trace"
    head = b"".join(Path(GOLDEN).read_bytes().splitlines(keepends=True)[:lines_before])
    bad.write_bytes(head + b"\xff\xfe1 0 a b SRB0 X 0000000000000000\n")
    trace, golden = (str(bad), GOLDEN) if side == "trace" else (GOLDEN, str(bad))
    assert main(["verify", trace, "--golden", golden]) == EXIT_PARSE_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"parse error: line {lines_before + 1}: not UTF-8: invalid start byte\n"


def test_table_at_step_zero_is_empty(capsys):
    assert main(["table", INITIAL_ACCESS, "--node", "gnb1", "--at", "0"]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_table_after_config_shows_data_rows_first(capsys):
    assert main(["table", INITIAL_ACCESS, "--node", "gnb1", "--at", "11"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert lines[0] == "120 [crnti=61,bearer=1] -> [output gtp(udp=2152,teid=1)]"
    prios = [int(line.split()[0]) for line in lines]
    assert prios == sorted(prios, reverse=True)


def test_table_unknown_node_is_sim_error(capsys):
    assert main(["table", INITIAL_ACCESS, "--node", "ghost", "--at", "5"]) == EXIT_SIM_ERROR
    assert capsys.readouterr().err == "unknown node 'ghost'\n"


def test_an_echo_of_a_long_argument_is_quoted_in_short(capsys):
    assert main(["table", INITIAL_ACCESS, "--node", "n" * 3000, "--at", "5"]) == EXIT_SIM_ERROR
    err = capsys.readouterr().err
    assert err == f"unknown node '{'n' * 80}'... (3000 characters)\n"
    assert main(["verify", GOLDEN, "--golden", GOLDEN, "--channels", "s" * 3000]) == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: unknown channel '{'S' * 80}'... (3000 characters); channels are ")
    assert len(err.encode()) < 512


@pytest.mark.parametrize("side", ["trace", "golden"])
@pytest.mark.parametrize(
    "make, err",
    [
        (_missing, "parse error: [Errno 2] No such file or directory: "),
        (_directory, "parse error: [Errno 21] Is a directory: "),
    ],
    ids=["missing", "directory"],
)
def test_a_trace_verify_cannot_read_is_a_parse_error(tmp_path, capsys, side, make, err):
    path = str(make(tmp_path))
    trace, golden = (path, GOLDEN) if side == "trace" else (GOLDEN, path)
    assert main(["verify", trace, "--golden", golden]) == EXIT_PARSE_ERROR
    out, text = capsys.readouterr()
    assert out == ""
    assert text.startswith(err) and text.count("\n") == 1 and text.endswith("\n")
