"""Event trace records and the line-delimited trace file format.

One line per record, fixed field order, separated by single spaces:

    step_no time src dst channel kind digest(16 lowercase hex chars)

Step and time are decimal without a sign or leading zeros. Reading accepts
exactly this form, one record on every line, so writing a trace that was read
gives its text back (with a final newline).

Digests are 64-bit FNV-1a over the canonical message bytes. `Simulator.run`
computes them in chunks of records with the batched `fnv1a64`; each value is
the one the byte-at-a-time definition gives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import SimulationError

CHANNELS = ("OPEN5G", "SRB0", "SRB1", "SRB2", "NGAP", "NGU", "RADIO_DATA")

# a line as `TraceRecord.to_line` writes it
_LINE = re.compile(
    r"^(0|[1-9][0-9]*) (0|[1-9][0-9]*) (\S+) (\S+) (%s) (\S+) ([0-9a-f]{16})$" % "|".join(CHANNELS),
    re.MULTILINE,
)
_LINE_FORM = (
    "step time src dst channel kind digest, separated by single spaces, with decimal step and time, "
    f"a channel of {', '.join(CHANNELS)} and 16 lowercase hex digest digits"
)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF
_LANE = 16  # bytes
_OFFSET_LANE = _FNV_OFFSET.to_bytes(_LANE, "big")
_MASK_LANE = _MASK64.to_bytes(_LANE, "big")


def fnv1a64(data: bytes | bytearray, ends: list[int]) -> list[int]:
    """The 64-bit FNV-1a digest of each record, record i being
    `data[ends[i - 1]:ends[i]]` (from 0 for the first).

    SWAR ("SIMD within a register"): each record's state sits in its own
    16-byte lane of one int, and one XOR, one multiply and one mask advance
    every lane by a byte; a 64-bit state times the 41-bit prime fits in 128
    bits, so no lane carries into the next. Records go longest first, so the
    ones that end leave from the lowest lanes.
    """
    starts = [0, *ends[:-1]]
    order = sorted(range(len(ends)), key=lambda i: starts[i] - ends[i])
    lengths = [ends[i] - starts[i] for i in order]
    digests = [_FNV_OFFSET] * len(ends)
    m = len(lengths) - lengths.count(0)  # active records: order[:m], in lanes m-1 down to 0
    state = int.from_bytes(_OFFSET_LANE * m, "big")
    mask = int.from_bytes(_MASK_LANE * m, "big")
    column = bytearray(_LANE * m)  # one byte per active record, at the low end of its lane
    pos = 0
    while m:
        width = lengths[m - 1] - pos  # every active record has these bytes
        block = b"".join([data[starts[i] + pos : starts[i] + pos + width] for i in order[:m]])
        for j in range(width):
            column[_LANE - 1 :: _LANE] = block[j::width]
            state = ((state ^ int.from_bytes(column, "big")) * _FNV_PRIME) & mask
        pos += width
        while m and lengths[m - 1] == pos:
            m -= 1
            digests[order[m]] = state & _MASK64
            state >>= 8 * _LANE
            mask >>= 8 * _LANE
        del column[_LANE * m :]
    return digests


@dataclass(frozen=True)
class TraceRecord:
    step_no: int
    time: int
    src: str
    dst: str
    channel: str
    kind: str
    digest: int

    def to_line(self) -> str:
        return f"{self.step_no} {self.time} {self.src} {self.dst} {self.channel} {self.kind} {self.digest:016x}"

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        """Parse a line in the form `to_line` writes, and no other."""
        fields = _LINE.fullmatch(line)
        if fields is None:
            raise TraceParseError(f"not a trace record {line!r}: expected {_LINE_FORM}")
        return _record(*fields.groups())


def _record(step_no: str, time: str, src: str, dst: str, channel: str, kind: str, digest: str) -> TraceRecord:
    return TraceRecord(int(step_no), int(time), src, dst, channel, kind, int(digest, 16))


class TraceParseError(SimulationError):
    pass


@dataclass
class EventTrace:
    records: list[TraceRecord]

    def to_text(self) -> str:
        return "".join(r.to_line() + "\n" for r in self.records)

    @classmethod
    def from_text(cls, text: str) -> "EventTrace":
        """Parse a trace: every line must be a record, the last one's newline optional."""
        records = [_record(*fields.groups()) for fields in _LINE.finditer(text)]
        lines = text.count("\n") + (text[-1:] not in ("", "\n"))  # a last line may lack its newline
        if len(records) != lines:
            for lineno, line in enumerate(text.split("\n"), start=1):  # find the line that is no record
                try:
                    TraceRecord.from_line(line)
                except TraceParseError as exc:
                    raise TraceParseError(f"line {lineno}: {exc}") from None
        return cls(records)

    def signature(self, channels: set[str] | None = None) -> list[tuple[str, str, str, str]]:
        """The comparable (src, dst, channel, kind) sequence."""
        return [
            (r.src, r.dst, r.channel, r.kind)
            for r in self.records
            if channels is None or r.channel in channels
        ]


def write_trace(path: str, trace: EventTrace) -> None:
    with open(path, "w") as fh:
        fh.write(trace.to_text())


def read_trace(path: str) -> EventTrace:
    with open(path) as fh:
        return EventTrace.from_text(fh.read())
