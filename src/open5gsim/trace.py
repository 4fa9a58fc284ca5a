"""Event trace records and the line-delimited trace file format.

One line per record, fixed field order, separated by single spaces:

    step_no time src dst channel kind digest(16 lowercase hex chars)

Step and time are decimal without a sign or leading zeros, of at most 640
digits: Python converts that many under any `sys.int_max_str_digits` (640 is
the least limit it can be set to), so a longer number is a line that is no
record rather than a ValueError. Reading accepts exactly this form, one record
on every line, so writing a trace that was read gives its text back (with a
final newline).

Both directions run in C-level passes over an `EventTrace`'s four columns:
steps, times, keys (one shared `(src, dst, channel, kind)` tuple per distinct
value) and digests. `to_text` is one `%` of `_KEYED_FORMAT` repeated per
record, each key joined once. `from_text` runs one `_KEYED_LINE.findall` per
slice of about `_READ_SLICE` characters that ends just after a newline, splits
each distinct key text once, sharing names through one dict per read, and
reads a slice line by line with `_LINE` only to report its first bad line. On
dataplane_small's trace at seed 1 (6,556 records, 123 keys), reading takes
6.1 ms, not 9.2 as when it built a record per line, and writing 3.0 ms, not
3.3 (medians of 5 processes, best of 15 each).

Digests are 64-bit FNV-1a over the canonical message bytes. `Simulator.run`
computes them in chunks of up to 2,048 records with the batched `fnv1a64`;
each value is the one the byte-at-a-time definition gives. The digests of
dataplane_small's 6,556 sends at seed 1 (2,283,366 bytes) take 44 ms in 4
chunks, against 47 ms in 13 chunks of 512 and 224 ms a byte at a time, and
those of dataplane_dense's 3,265 sends (868,241 bytes) 18 ms in 2 chunks,
against 20 ms in 7 and 87 ms a byte at a time (best of 5, of 3 for the
byte-at-a-time loop; Python 3.11.7, 2-core KVM host). Chunks of 4,096 gain
under 1 ms more.
"""

from __future__ import annotations

import re
import struct
from itertools import chain, repeat
from operator import itemgetter
from typing import NamedTuple

from .errors import SimulationError, quoted

CHANNELS = ("OPEN5G", "SRB0", "SRB1", "SRB2", "NGAP", "NGU", "RADIO_DATA")

_NUMBER = r"(0|[1-9][0-9]{0,639})"  # a step or time: at most 640 digits, see above
_CHANNEL = "|".join(CHANNELS)
# a record's line, as `_LINE_FORMAT` writes it
_LINE = re.compile(r"^%s %s (\S+) (\S+) (%s) (\S+) ([0-9a-f]{16})$" % (_NUMBER, _NUMBER, _CHANNEL), re.M)
# the same lines, `src dst channel kind` in one group: a read splits each distinct one once
_KEYED_LINE = re.compile(r"^%s %s (\S+ \S+ (?:%s) \S+) ([0-9a-f]{16})$" % (_NUMBER, _NUMBER, _CHANNEL), re.M)
_LINE_FORMAT = "%d %d %s %s %s %s %016x"  # a record's line, as `_LINE` reads it
_KEYED_FORMAT = "%d %d %s %016x"  # the same line, its four names joined once per key
_READ_SLICE = 8192  # characters per findall: bounds the temporary tuples of a read
_LINE_FORM = (
    "step time src dst channel kind digest, separated by single spaces, with decimal step and time "
    "of at most 640 digits, "
    f"a channel of {', '.join(CHANNELS)} and 16 lowercase hex digest digits"
)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_LANE = 16  # bytes
_OFFSET_LANE = _FNV_OFFSET.to_bytes(_LANE, "big")
_MASK_LANE = _MASK64.to_bytes(_LANE, "big")
_LOW_LANE = (0xFF).to_bytes(_LANE, "big")
_WORD = 8  # bytes per item of a "Q" memoryview


def fnv1a64(data: bytes | bytearray, ends: list[int]) -> list[int]:
    """The 64-bit FNV-1a digest of each record, record i being
    `data[ends[i - 1]:ends[i]]` (from 0 for the first).

    SWAR ("SIMD within a register"): each record's state sits in its own
    16-byte lane of one int, and one XOR, one multiply and one mask advance
    every lane by a byte; a 64-bit state times the 41-bit prime fits in 128
    bits, so no lane carries into the next.

    The bytes come in windows: one `int.from_bytes` gives each lane its
    record's next 16 bytes, little-endian, and each byte position then takes
    `window & low` (the low byte of every lane) and `window >>= 8`. Two
    strided copies of 8-byte words gather a window from a record-major block
    of the active records. Records go shortest first, in lane 0 up. An epoch
    spans the shortest remaining length rounded up to 16 bytes, so every
    record that ends in it ends in its last window; the digests are read from
    the low lanes at their column and those lanes are dropped. A window reads
    up to 15 bytes past a record's end, which only lanes already read see.

    At 2,048 lanes (Python 3.11.7, 2-core KVM host) an `int.from_bytes` of
    the lanes takes about 24 µs, the step about 17 µs and `window >>= 8`
    about 6 µs, so a byte position costs about 24 µs where one
    `int.from_bytes` per byte would cost about 41 µs. Per lane that is the
    same as at 512 lanes; wider chunks gain by stepping fewer byte positions
    in all, since each chunk steps once through its longest record.
    """
    starts = [0, *ends[:-1]]
    order = sorted(range(len(ends)), key=lambda i: ends[i] - starts[i])
    firsts = [starts[i] for i in order]
    lengths = [ends[i] - starts[i] for i in order]
    lengths.append(-1)  # stops the scan for records that end at a column
    digests = [_FNV_OFFSET] * len(ends)
    done = lengths.count(0)  # order[:done] are read; order[done + k] sits in lane k
    m = len(ends) - done
    state = int.from_bytes(_OFFSET_LANE * m, "big")
    mask = int.from_bytes(_MASK_LANE * m, "big")
    low = int.from_bytes(_LOW_LANE * m, "big")
    pos = 0
    while m:
        span = -(-(lengths[done] - pos) // _LANE) * _LANE
        pieces = [data[a + pos : a + pos + span] for a in firsts[done:]]
        block = b"".join(pieces)
        if len(block) < span * m:  # a piece runs past the end of `data`
            block = b"".join([piece.ljust(span, b"\0") for piece in pieces])
        words = memoryview(block).cast("Q")
        window = bytearray(_LANE * m)
        lanes = memoryview(window).cast("Q")
        stride = span // _WORD
        read = 0  # lanes whose digest is read
        for w in range(0, stride, 2):
            lanes[0::2] = words[w::stride]
            lanes[1::2] = words[w + 1 :: stride]
            column = int.from_bytes(window, "little")
            for _ in range(_LANE):
                state = ((state ^ (column & low)) * _FNV_PRIME) & mask
                column >>= 8
                pos += 1
                if lengths[done + read] == pos:
                    stop = read
                    while lengths[done + stop] == pos:
                        stop += 1
                    raw = (state & ((1 << (8 * _LANE * stop)) - 1)).to_bytes(_LANE * stop, "little")
                    for k in range(read, stop):
                        digests[order[done + k]] = int.from_bytes(raw[_LANE * k : _LANE * k + 8], "little")
                    read = stop
        state >>= 8 * _LANE * read
        mask >>= 8 * _LANE * read
        low >>= 8 * _LANE * read
        done += read
        m -= read
    return digests


class TraceRecord(NamedTuple):
    step_no: int
    time: int
    src: str
    dst: str
    channel: str
    kind: str
    digest: int

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        """Parse one line in the form `EventTrace.to_text` writes, and no other."""
        fields = _LINE.fullmatch(line)
        if fields is None:
            raise TraceParseError(f"not a trace record {quoted(line)}: expected {_LINE_FORM}")
        step_no, time, src, dst, channel, kind, digest = fields.groups()
        return cls(int(step_no), int(time), src, dst, channel, kind, int(digest, 16))


class TraceParseError(SimulationError):
    pass


class EventTrace:
    """A trace's records. Until `records` is first read, a run's or a read's trace holds them
    in four columns: steps, times, keys (one shared `(src, dst, channel, kind)` tuple per
    distinct key) and digests. Once read, the list is the trace, later changes included."""

    def __init__(self, records: list[TraceRecord] | None = None, *, columns: tuple | None = None):
        """A trace of `records`, or of `columns` (steps, times, keys, digests), taken as they are."""
        self._records, self._columns = records, columns

    @property
    def records(self) -> list[TraceRecord]:
        if self._columns is not None:
            steps, times, keys, digests = self._columns
            names = (map(itemgetter(i), keys) for i in range(4))
            self._records = list(map(tuple.__new__, repeat(TraceRecord), zip(steps, times, *names, digests)))
            self._columns = None
        return self._records

    def __len__(self) -> int:
        return len(self._records) if self._columns is None else len(self._columns[3])

    def __eq__(self, other: object) -> bool:
        return self.records == other.records if isinstance(other, EventTrace) else NotImplemented

    def to_text(self) -> str:
        if self._columns is None:
            return (_LINE_FORMAT + "\n") * len(self._records) % tuple(chain.from_iterable(self._records))
        steps, times, keys, digests = self._columns
        joined = {key: " ".join(key) for key in set(keys)}
        fields = zip(steps, times, map(joined.__getitem__, keys), digests)
        return (_KEYED_FORMAT + "\n") * len(digests) % tuple(chain.from_iterable(fields))

    @classmethod
    def from_text(cls, text: str) -> "EventTrace":
        """Parse a trace: every line must be a record, the last one's newline optional."""
        steps, times, keys, digests = [], [], [], []  # the columns
        share = {}.setdefault  # one string object per distinct name, channel or kind
        key_of: dict[str, tuple] = {}  # `src dst channel kind` -> its key, one tuple per distinct text
        start, end, lineno = 0, len(text), 0  # lineno: lines before `start`
        while start < end:
            stop = text.find("\n", start + _READ_SLICE) + 1 or end
            found = _KEYED_LINE.findall(text, start, stop)
            lines = text.count("\n", start, stop) + (text[stop - 1] != "\n")  # a last line may lack its newline
            if len(found) != lines:  # find the line that is no record
                for n, line in enumerate(text[start:stop].split("\n"), start=lineno + 1):
                    try:
                        TraceRecord.from_line(line)
                    except TraceParseError as exc:
                        raise TraceParseError(f"line {n}: {exc}") from None
            step_texts, time_texts, key_texts, digest_texts = zip(*found)
            new = set(key_texts).difference(key_of)
            names = " ".join(new).split(" ")  # four per key, in the order of `new`: no name holds a space
            shared = map(share, names, names)
            key_of.update(zip(new, zip(shared, shared, shared, shared)))
            steps += map(int, step_texts)
            times += map(int, time_texts)
            keys += map(key_of.__getitem__, key_texts)
            digests += struct.unpack(">%dQ" % len(digest_texts), bytes.fromhex("".join(digest_texts)))
            start, lineno = stop, lineno + lines
        return cls(columns=(steps, times, keys, digests))

    def signature(self, channels: set[str] | None = None) -> list[tuple[str, str, str, str]]:
        """The comparable (src, dst, channel, kind) sequence."""
        keys = map(itemgetter(2, 3, 4, 5), self._records) if self._columns is None else self._columns[2]
        return list(keys) if channels is None else [key for key in keys if key[2] in channels]


def write_trace(path: str, trace: EventTrace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace.to_text())


def read_trace(path: str) -> EventTrace:
    try:
        with open(path, encoding="utf-8", newline="") as fh:  # a CR stays in its line, so it fails to parse
            text = fh.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file in one call, so exc.object holds all its bytes
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise TraceParseError(f"line {line}: not UTF-8: {exc.reason}") from None
    except OSError as exc:
        raise TraceParseError(str(exc)) from None
    return EventTrace.from_text(text)
