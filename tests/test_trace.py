"""The batched trace digest, the bulk trace codec against its per-line
reference, the trace line format that reading accepts, and the columns a run's
or a read's trace holds until its records are read."""

import dataclasses
import gc
import random
from itertools import accumulate, combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bundled_scenario,
    generated_scenario,
    reference_fnv1a64,
    reference_from_text,
    reference_to_text,
)

from open5gsim import netsim, trace
from open5gsim.cli import EXIT_OK, EXIT_PARSE_ERROR, main
from open5gsim.errors import BudgetExceededError
from open5gsim.netsim import Simulator
from open5gsim.trace import CHANNELS, EventTrace, TraceParseError, TraceRecord, fnv1a64, read_trace, write_trace

GOLDEN = "goldens/fig6_initial_access.trace"


def digest_each(payloads: list[bytes], container=bytes) -> list[int]:
    return fnv1a64(container(b"".join(payloads)), list(accumulate(map(len, payloads))))


def line_of(record: TraceRecord) -> str:
    """The record's line as a trace writes it, without its newline."""
    return EventTrace([record]).to_text()[:-1]


def random_payloads(lengths: list[int], seed: int) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(n) for n in lengths]


# -- the batched digest against the byte-at-a-time reference ---------------------


def test_digest_of_no_records():
    assert fnv1a64(b"", []) == []
    assert fnv1a64(bytearray(), []) == []


@pytest.mark.parametrize("count", [1, 2, 7, 512])
def test_digest_when_every_record_is_empty(count):
    assert digest_each([b""] * count) == [reference_fnv1a64(b"")] * count


@pytest.mark.parametrize("payload", [b"", b"\x00", b"a", b"foobar", bytes(range(256)) * 6])
def test_digest_of_one_record(payload):
    assert digest_each([payload]) == [reference_fnv1a64(payload)]


@given(st.integers(0, 64), st.integers(1, 40), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_digest_at_equal_lengths(length, count, seed):
    payloads = random_payloads([length] * count, seed)
    assert digest_each(payloads) == [reference_fnv1a64(p) for p in payloads]


@given(
    st.lists(st.one_of(st.integers(0, 1500), st.sampled_from([0, 1, 2, 64, 576, 1400])), max_size=40),
    st.integers(0, 2**32),
    st.sampled_from([bytes, bytearray]),
)
@settings(max_examples=150, deadline=None)
def test_digest_at_mixed_lengths(lengths, seed, container):
    payloads = random_payloads(lengths, seed)
    assert digest_each(payloads, container) == [reference_fnv1a64(p) for p in payloads]


# -- window and epoch edges: 16-byte windows, epochs that end in their last window


def test_digest_at_every_length_up_to_three_windows_alone_and_in_pairs():
    for lengths in [*product(range(49), repeat=1), *product(range(49), repeat=2)]:
        payloads = random_payloads(lengths, sum(lengths))
        assert digest_each(payloads) == [reference_fnv1a64(p) for p in payloads], lengths


def test_digest_at_every_length_up_to_three_windows_in_triples():
    rng = random.Random(3)
    for length in range(49):
        others = [rng.randrange(49), rng.randrange(49)]
        for lengths in set(permutations([length, *others])):
            payloads = random_payloads(lengths, length)
            assert digest_each(payloads) == [reference_fnv1a64(p) for p in payloads], lengths


@pytest.mark.parametrize("lengths", [[15], [16], [17], [32], [15, 16, 17, 32]], ids=str)
def test_digest_of_512_records_each_of_a_length(lengths):
    sizes = [n for n in lengths for _ in range(512)]
    random.Random(len(sizes)).shuffle(sizes)
    payloads = random_payloads(sizes, 512)
    assert digest_each(payloads) == [reference_fnv1a64(p) for p in payloads]


def test_digest_when_many_records_end_in_the_same_column():
    # shortest 17, so one 32-byte epoch: every record ends in its second
    # window, 72 of them at column 5 and 72 at column 16
    sizes = [21] * 64 + [32] * 64 + list(range(17, 33)) * 8
    random.Random(7).shuffle(sizes)
    payloads = random_payloads(sizes, 21)
    assert digest_each(payloads) == [reference_fnv1a64(p) for p in payloads]


@pytest.mark.parametrize("lengths", [[40, 3], [5, 37], [64, 17, 1], [1, 1, 33]], ids=str)
@pytest.mark.parametrize("container", [bytes, bytearray])
def test_digest_when_the_last_record_in_data_ends_mid_window(lengths, container):
    # the last record's window, rounded up to 16 bytes, reads past the end of data
    assert lengths[-1] % 16
    payloads = random_payloads(lengths, 9)
    assert digest_each(payloads, container) == [reference_fnv1a64(p) for p in payloads]


@given(st.lists(st.binary(max_size=80), max_size=30))
@settings(max_examples=150, deadline=None)
def test_digest_leaves_a_bytearray_unchanged(payloads):
    data = bytearray(b"".join(payloads))
    fnv1a64(data, list(accumulate(map(len, payloads))))
    assert data == b"".join(payloads)


@given(st.lists(st.binary(max_size=80), max_size=30), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_digests_of_a_shuffled_chunk_are_the_shuffled_digests(payloads, rng):
    digests = digest_each(payloads)
    order = list(range(len(payloads)))
    rng.shuffle(order)
    assert digest_each([payloads[i] for i in order]) == [digests[i] for i in order]


class PayloadLog(Simulator):
    """Keeps a copy of every payload sent, in send order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.payloads: list[bytes] = []

    def _send(self, src, dst, channel, kind, payload, *rest) -> None:
        self.payloads.append(bytes(payload))
        super()._send(src, dst, channel, kind, payload, *rest)


def test_simulator_digests_across_chunk_boundaries():
    sim = PayloadLog(*generated_scenario(200))
    records = sim.run().records
    assert len(records) == len(sim.payloads) == 5004
    assert len(records) > 2 * netsim._DIGEST_CHUNK
    assert [r.step_no for r in records] == list(range(1, len(records) + 1))
    assert [r.digest for r in records] == [reference_fnv1a64(p) for p in sim.payloads]


def test_records_hold_every_send_when_run_raises():
    topology, script, settings = generated_scenario(200)
    sim = PayloadLog(topology, script, dataclasses.replace(settings, max_events=3000))
    with pytest.raises(BudgetExceededError):
        sim.run()
    assert len(sim.records) == len(sim.payloads) > netsim._DIGEST_CHUNK
    assert [r.step_no for r in sim.records] == list(range(1, len(sim.records) + 1))
    assert [r.digest for r in sim.records] == [reference_fnv1a64(p) for p in sim.payloads]


# -- reading accepts only what writing writes ----------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [
        (6, "0x1f"),
        (6, "-1"),
        (6, "1_2"),
        (6, "0123456789abcdef0123"),  # 20 hex digits
        (6, "0123456789ABCDEF"),
        (6, "+123456789abcdef"),
        (0, "1_0"),
        (0, "+5"),
        (0, "05"),
        (0, "-5"),
        (1, "+0"),
        (1, "1_0"),
        (1, "٣"),  # ARABIC-INDIC DIGIT THREE, a decimal digit that int() reads
    ],
)
def test_verify_rejects_a_field_write_trace_never_writes(tmp_path, capsys, field, value):
    lines = Path(GOLDEN).read_text().splitlines(keepends=True)
    parts = lines[4].split(" ")
    parts[field] = value + ("\n" if field == 6 else "")
    lines[4] = " ".join(parts)
    bad = tmp_path / "bad.trace"
    bad.write_text("".join(lines))
    assert main(["verify", str(bad), "--golden", GOLDEN]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().err.startswith("parse error: line 5: ")


@pytest.mark.parametrize(
    "layout, bad_line",
    [
        ("1  2", 1),
        (" 1 2", 1),
        ("1 2 ", 1),
        ("1\t2", 1),
        ("1 2\n ", 2),
        ("1 2\n\n1 2", 2),
        ("1 2\r", 1),
        ("1 2\r1 2", 1),
    ],
)
def test_verify_rejects_other_separators_and_empty_lines(tmp_path, capsys, layout, bad_line):
    text = layout.replace("1", "1 0 src gnb1").replace("2", "OPEN5G Batch 0000000000000000")
    bad = tmp_path / "bad.trace"
    bad.write_bytes(f"{text}\n".encode())
    assert main(["verify", str(bad), "--golden", GOLDEN]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().err.startswith(f"parse error: line {bad_line}: ")


@pytest.mark.parametrize(
    "length, shown",
    [
        (0, "''"),
        (80, "'" + "x" * 80 + "'"),
        (81, "'" + "x" * 80 + "'... (81 characters)"),
        (1000, "'" + "x" * 80 + "'... (1000 characters)"),
    ],
)
def test_a_parse_error_quotes_at_most_80_characters_of_the_line(length, shown):
    with pytest.raises(TraceParseError) as exc:
        TraceRecord.from_line("x" * length)
    assert str(exc.value).startswith(f"not a trace record {shown}: expected step time src dst ")


@pytest.mark.parametrize("field", ["step", "time"])
@pytest.mark.parametrize("digits", [641, 5000])
def test_a_number_too_long_to_convert_is_a_parse_error_at_its_line(tmp_path, capsys, field, digits):
    """Step and time take at most 640 digits, which `int()` converts under any
    `sys.int_max_str_digits`; a longer one is no record, never a ValueError."""
    number = "1" * digits
    line = f"{number} 0 a b SRB0 X 0000000000000000" if field == "step" else f"1 {number} a b SRB0 X 0000000000000000"
    text = f"1 0 a b SRB0 X 0000000000000000\n{line}\n"
    with pytest.raises(TraceParseError, match=r"^line 2: not a trace record "):
        EventTrace.from_text(text)
    with pytest.raises(TraceParseError, match=r"^not a trace record "):
        TraceRecord.from_line(line)
    bad = tmp_path / "long_number.trace"
    bad.write_text(text)
    assert main(["verify", str(bad), "--golden", str(bad)]) == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 2: not a trace record ")
    assert len(err.encode()) < 512


def test_a_number_of_640_digits_reads_back():
    line = f"{'9' * 640} {'1' * 640} a b SRB0 X 0000000000000000"
    record = TraceRecord.from_line(line)
    assert record.step_no == int("9" * 640) and line_of(record) == line
    assert EventTrace.from_text(line + "\n").records == [record]


def test_verify_of_a_trace_with_cr_line_ends_prints_a_bounded_error(tmp_path, capsys):
    """With every LF made CR the whole file is one bad line, which the error
    quotes only in part."""
    text = Path(GOLDEN).read_text().replace("\n", "\r")
    bad = tmp_path / "cr.trace"
    bad.write_bytes(text.encode())
    assert main(["verify", str(bad), "--golden", GOLDEN]) == EXIT_PARSE_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: line 1: not a trace record {text[:80]!r}... ({len(text)} characters): ")
    assert len(err.encode()) < 512


@pytest.mark.parametrize("path", sorted(Path("goldens").glob("*.trace")), ids=lambda p: p.name)
def test_golden_traces_read_back_to_the_same_text(path):
    text = path.read_text()
    assert EventTrace.from_text(text).to_text() == text
    assert main(["verify", str(path), "--golden", str(path)]) == EXIT_OK


_NUMBER = st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(["+5", "-1", "05", "1_0", "", "٣"]))
_NAME = st.one_of(
    st.sampled_from(["src", "gnb1", "ue1", "amf", "upf", "Data", "RrcSetup"]),
    st.text(max_size=6),
)
_CHANNEL = st.one_of(st.sampled_from(CHANNELS), st.text(max_size=6))
_DIGEST = st.one_of(
    st.integers(0, 2**64 - 1).map("{:016x}".format),
    st.integers(-1, 2**80).map(hex),
    st.text(alphabet="0123456789abcdefABCDEF_+- ", min_size=15, max_size=17),
)
_SEPARATOR = st.sampled_from([" ", " ", " ", "  ", "\t"])


@given(
    st.tuples(_NUMBER, _NUMBER, _NAME, _NAME, _CHANNEL, _NAME, _DIGEST),
    st.lists(_SEPARATOR, min_size=6, max_size=6),
    st.sampled_from(["", " ", "\t"]),
)
@settings(max_examples=300)
def test_every_accepted_line_is_written_back_unchanged(fields, separators, edge):
    line = edge + "".join(f + s for f, s in zip(fields, [*separators, ""])) + edge
    try:
        record = TraceRecord.from_line(line)
    except TraceParseError:
        return
    assert line_of(record) == line


@given(
    st.lists(
        st.one_of(
            st.just(""),
            st.tuples(_NUMBER, _NUMBER, _NAME, _NAME, _CHANNEL, _NAME, _DIGEST).map(" ".join),
        ),
        max_size=8,
    ),
    st.booleans(),
)
@settings(max_examples=300)
def test_a_trace_reads_as_its_lines_do(lines, final_newline):
    text = "".join(line + "\n" for line in lines)
    if lines and lines[-1] and not final_newline:
        text = text[:-1]
    try:
        records = [TraceRecord.from_line(line) for line in lines]
    except TraceParseError:
        with pytest.raises(TraceParseError):
            EventTrace.from_text(text)
        return
    assert EventTrace.from_text(text).records == records


_TOKEN = st.from_regex(r"[A-Za-z0-9_]+", fullmatch=True)


@given(
    st.builds(
        TraceRecord,
        st.integers(0, 10**9),
        st.integers(0, 10**9),
        _TOKEN,
        _TOKEN,
        st.sampled_from(CHANNELS),
        _TOKEN,
        st.integers(0, 2**64 - 1),
    )
)
@settings(max_examples=100)
def test_every_written_record_reads_back(record):
    assert TraceRecord.from_line(line_of(record)) == record


def test_a_record_is_immutable_and_hashable():
    record = TraceRecord(1, 0, "ue1", "gnb1", "SRB0", "RrcSetupRequest", 0x1F)
    with pytest.raises(AttributeError):
        record.kind = "Bogus"
    assert line_of(record._replace(kind="Bogus")) == "1 0 ue1 gnb1 SRB0 Bogus 000000000000001f"
    assert len({record, record._replace(digest=0x1F)}) == 1


# -- the bulk codec against the per-line reference -------------------------------

_DIGEST_VALUE = st.one_of(st.sampled_from([0, 1, 2**64 - 1]), st.integers(0, 2**64 - 1))
_RECORD = st.builds(
    TraceRecord,
    st.integers(0, 10**12),
    st.integers(0, 10**12),
    _TOKEN,
    st.text(st.characters().filter(lambda c: not c.isspace()), min_size=1, max_size=8),  # ASCII or not
    st.sampled_from(CHANNELS),
    _TOKEN,
    _DIGEST_VALUE,
)


@given(st.lists(_RECORD, max_size=20))
@settings(max_examples=100)
def test_the_writer_matches_the_reference(records):
    assert EventTrace(records).to_text() == reference_to_text(records)


def random_records(count: int, seed: int) -> list[TraceRecord]:
    """Records from step 1 whose names vary in length, so lines end at varied
    offsets from a slice boundary."""
    rng = random.Random(seed)
    names = ["ue1", "gnb1", "src", "amf", "upf", "é" * 3, "x" * 90, *(f"n{rng.getrandbits(40):x}" for _ in range(8))]
    return [
        TraceRecord(
            step,
            rng.randrange(10**6),
            rng.choice(names),
            rng.choice(names),
            rng.choice(CHANNELS),
            rng.choice(names),
            rng.choice([0, 2**64 - 1, rng.getrandbits(64), rng.getrandbits(8)]),
        )
        for step in range(1, count + 1)
    ]


@given(st.integers(1, 2000), st.integers(0, 2**32), st.booleans())
@settings(max_examples=40, deadline=None)
def test_the_reader_matches_the_reference_across_slices(count, seed, final_newline):
    records = random_records(count, seed)
    text = reference_to_text(records)
    if not final_newline:
        text = text[:-1]
    assert EventTrace.from_text(text).records == reference_from_text(text) == records


def outcome(read, text: str):
    """The records `read` returns for `text`, or the text of its parse error."""
    try:
        return read(text)
    except TraceParseError as exc:
        return str(exc)


_DAMAGES = [
    lambda line: line[:-1],
    lambda line: line[:-1] + "F",
    lambda line: line + " x",
    lambda line: line + "\r",
    lambda line: line.replace(" ", "  ", 1),
    lambda line: line.replace(" ", "\t", 1),
    lambda line: "0" + line,
    lambda line: "",
    lambda line: line + "\n",  # an empty line after it
]


@given(
    st.integers(0, 2**32),
    st.integers(1, 3),
    st.sampled_from([-1, 0, 1]),
    st.sampled_from(_DAMAGES),
    st.sampled_from(["\n", "\r", ""]),
)
@settings(max_examples=150, deadline=None)
def test_a_damaged_line_near_a_slice_boundary_fails_as_in_the_reference(seed, boundary, offset, damage, line_end):
    """The line that ends the boundary-th slice a read cuts (offset 0), or the
    line before or after it, is damaged, and `line_end` replaces its newline."""
    text = reference_to_text(random_records(4 * trace._READ_SLICE // 40, seed))
    stop = 0
    for _ in range(boundary):
        stop = text.find("\n", stop + trace._READ_SLICE) + 1
    lines = text.split("\n")[:-1]
    index = text.count("\n", 0, stop) - 1 + offset
    damaged = damage(lines[index]) + line_end
    text = "".join(line + "\n" for line in lines[:index]) + damaged + "".join(line + "\n" for line in lines[index + 1 :])
    want = outcome(reference_from_text, text)
    assert outcome(lambda t: EventTrace.from_text(t).records, text) == want
    if damaged not in ("", lines[index] + "\n"):  # the line is neither taken out nor left as it was
        assert isinstance(want, str)


def test_a_read_shares_one_object_per_channel():
    records = random_records(3000, 5)
    read = EventTrace.from_text(reference_to_text(records)).records
    assert len({id(r.channel) for r in read}) <= len(CHANNELS)
    assert len({id(r.src) for r in read}) == len({r.src for r in read})


# -- the columns a run or a read holds until `records` is read ----------------------

_HOSTILE = "aZ09_é名\u200b\u200d🙂\u0301\x7f-:[]"  # no character of it is whitespace


def hostile_records(count: int, seed: int, distinct: int) -> list[TraceRecord]:
    """Records whose names mix non-ASCII and zero-width characters, drawn from
    `distinct` names, so from few keys to about one key per record."""
    rng = random.Random(seed)
    names = ["".join(rng.choices(_HOSTILE, k=rng.randrange(1, 12))) for _ in range(distinct)]
    return [
        TraceRecord(
            step,
            rng.randrange(10**rng.randrange(1, 30)),
            rng.choice(names),
            rng.choice(names),
            rng.choice(CHANNELS),
            rng.choice(names),
            rng.getrandbits(64),
        )
        for step in range(1, count + 1)
    ]


def keys_of(records: list[TraceRecord], channels=None) -> list[tuple[str, str, str, str]]:
    return [(r.src, r.dst, r.channel, r.kind) for r in records if channels is None or r.channel in channels]


_CHANNEL_SUBSETS = [None, *(set(c) for n in range(len(CHANNELS) + 1) for c in combinations(CHANNELS, n))]


@given(st.integers(1, 1500), st.integers(0, 2**32), st.sampled_from([2, 30, 3000]), st.booleans())
@settings(max_examples=30, deadline=None)
def test_a_read_trace_writes_and_signs_from_its_columns_as_the_reference(count, seed, distinct, final_newline):
    records = hostile_records(count, seed, distinct)
    text = reference_to_text(records)
    if not final_newline:
        text = text[:-1]
    read = EventTrace.from_text(text)
    assert read._columns is not None  # no record built yet
    assert len(read) == count
    assert read.to_text() == reference_to_text(records)
    for channels in _CHANNEL_SUBSETS:
        assert read.signature(channels) == keys_of(records, channels), channels
    assert read._columns is not None
    assert read.records == reference_from_text(text) == records
    assert read._columns is None and read.to_text() == reference_to_text(records)


@given(st.integers(2, 1200), st.integers(0, 2**32), st.data())
@settings(max_examples=30, deadline=None)
def test_writing_and_signing_follow_the_records_once_read(count, seed, data):
    records = hostile_records(count, seed, 20)
    read = EventTrace.from_text(reference_to_text(records))
    edited = read.records
    for i in data.draw(st.lists(st.integers(0, count - 1), max_size=5)):
        edited[i] = edited[i]._replace(kind="Bogus", channel="NGAP")
    del edited[data.draw(st.integers(1, count)) :]
    assert read.records is edited and len(read) == len(edited)
    assert read.to_text() == reference_to_text(edited)
    for channels in (None, {"NGAP"}, {"SRB0", "OPEN5G"}):
        assert read.signature(channels) == keys_of(edited, channels)


def test_traces_compare_by_their_records():
    records = hostile_records(50, 1, 5)
    text = reference_to_text(records)
    assert EventTrace.from_text(text) == EventTrace(records) == EventTrace.from_text(text)
    assert EventTrace.from_text(text) != EventTrace(records[:-1])
    assert EventTrace(records) != records


@pytest.mark.parametrize("name", ["initial_access", "multi_rat"])
def test_a_run_writes_its_trace_as_the_reference_writes_its_records(name):
    sim = Simulator(*bundled_scenario(name))
    result = sim.run()
    assert result.to_text() == reference_to_text(sim.records) == Path(f"goldens/{name}.full.trace").read_text()
    assert len(result) == len(sim.records)


def live_records() -> int:
    """The TraceRecords the process holds. A NamedTuple stays tracked by the
    collector, so each one alive is in `gc.get_objects()`."""
    gc.collect()
    return sum(type(o) is TraceRecord for o in gc.get_objects())


def test_run_write_read_and_verify_build_no_record(tmp_path, capsys):
    before = live_records()
    runs = [Simulator(*bundled_scenario(name)) for name in ("initial_access", "multi_rat")]
    traces = [sim.run() for sim in runs]
    assert live_records() == before
    path = str(tmp_path / "multi_rat.trace")
    write_trace(path, traces[1])
    signature = read_trace(path).signature()
    assert live_records() == before
    assert len({id(key) for key in signature}) == len(set(signature))  # equal keys are one tuple
    assert main(["run", "scenarios/initial_access.scn", "-o", str(tmp_path / "out.trace")]) == EXIT_OK
    assert main(["verify", str(tmp_path / "out.trace"), "--golden", GOLDEN]) == EXIT_OK
    assert live_records() == before
    records = runs[0].records  # the check sees records that are built and kept
    assert live_records() == before + len(records) == before + 20
