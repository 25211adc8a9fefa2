"""Receiver side: parse message texts back into segments and rebuild the
codec byte stream.

Two policies: STRICT demands the full index run 0..max with no gaps; LOOSE
plays whatever arrived, in index order, skipping holes -- the degraded
audio simply jumps over the lost spans. The report stores only what arrived
and how many duplicates were dropped, which is the arrivals minus the
distinct indices; the missing indices are derived from the received ones.
The wire format carries no total count, so a lost tail cannot be detected:
it is indistinguishable from a shorter message, and no report can name it.
"""

import enum
from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    BadIndex,
    DuplicateMismatch,
    MissingSegments,
    VoiceSmsError,
)
from .payload import codepoints_to_bytes
from .segmentation import INDEX_DIGITS, Segment, split_lines


class ReassemblyPolicy(enum.Enum):
    STRICT = "strict"
    LOOSE = "loose"


@dataclass(frozen=True)
class ReassemblyReport:
    received_indices: tuple[int, ...]
    duplicate_count: int

    @property
    def missing_indices(self) -> tuple[int, ...]:
        """The gaps below the highest received index."""
        received = set(self.received_indices)
        return tuple(i for i in range(max(received, default=0)) if i not in received)


def _index(sms_text: str) -> int:
    """The index that the first three characters of ``sms_text`` spell."""
    prefix = sms_text[:INDEX_DIGITS]
    # isascii + isdigit admits exactly 0-9, not other Unicode digits
    if not (len(prefix) == INDEX_DIGITS and prefix.isascii() and prefix.isdigit()):
        raise BadIndex(f"index prefix {prefix!r} is not three decimal digits")
    return int(prefix)


def parse_segment(sms_text: str) -> Segment:
    """Inverse of ``render_segment``: the index is checked first, then the payload points."""
    return Segment(_index(sms_text), codepoints_to_bytes(sms_text[INDEX_DIGITS:]))


def _parse_line(lineno: int, line: str) -> Segment:
    try:
        return parse_segment(line)
    except VoiceSmsError as exc:
        raise type(exc)(f"line {lineno}: {exc}") from exc


def parse_segments_file(text: str) -> list[Segment]:
    """Parse the one-segment-per-LF-line file format, in arrival order.

    The whole lines, index digits included, are checked and converted in
    one ``codepoints_to_bytes`` call (the digits are legal points), and
    each line's payload bytes are sliced from the result past its index.
    If any line is bad, the lines are parsed one by one instead, so the
    error is that of the first bad line, with its 1-based line number
    prepended.
    """
    lines = split_lines(text)
    try:
        data = codepoints_to_bytes("".join(lines))
        ends = list(accumulate(map(len, lines)))
        return [Segment(_index(line), data[start + INDEX_DIGITS:end])
                for line, start, end in zip(lines, [0, *ends], ends)]
    except VoiceSmsError:
        return [_parse_line(lineno, line) for lineno, line in enumerate(lines, start=1)]


def reassemble(segments, policy: ReassemblyPolicy) -> tuple[bytes, ReassemblyReport]:
    """Order, deduplicate, and concatenate the payload bytes of received segments.

    Duplicates keep the first arrival; a repeated index with a different
    payload raises :class:`DuplicateMismatch` under either policy, because
    arrival order must not silently pick between corrupt alternatives.
    """
    first: dict[int, bytes] = {}
    arrivals = 0
    for arrivals, seg in enumerate(segments, start=1):
        if first.setdefault(seg.index, seg.payload) != seg.payload:
            raise DuplicateMismatch(f"segments with index {seg.index} carry different payloads")

    report = ReassemblyReport(tuple(sorted(first)), arrivals - len(first))
    if policy is ReassemblyPolicy.STRICT and report.missing_indices:
        raise MissingSegments(f"missing segment indices: {list(report.missing_indices)}")
    return b"".join([first[i] for i in report.received_indices]), report
