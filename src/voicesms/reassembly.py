"""Receiver side: parse message texts back into segments and rebuild the
payload text.

Two policies: STRICT demands the full index run 0..max with no gaps; LOOSE
plays whatever arrived, in index order, skipping holes -- the degraded
audio simply jumps over the lost spans. The wire format carries no total
count, so a lost tail cannot be detected: it is indistinguishable from a
shorter message, and no report can name it.
"""

import enum
from dataclasses import dataclass

from .errors import (
    BadIndex,
    DuplicateMismatch,
    MissingSegments,
    VoiceSmsError,
)
from .payload import check_points
from .segmentation import INDEX_DIGITS, Segment, split_lines


class ReassemblyPolicy(enum.Enum):
    STRICT = "strict"
    LOOSE = "loose"


@dataclass(frozen=True)
class ReassemblyReport:
    received_indices: tuple[int, ...]
    duplicate_count: int
    missing_indices: tuple[int, ...]  # gaps below the highest received index


def parse_segment(sms_text: str) -> Segment:
    """Inverse of ``render_segment``, validating as it goes."""
    prefix, payload = sms_text[:INDEX_DIGITS], sms_text[INDEX_DIGITS:]
    # isascii + isdigit admits exactly 0-9, not other Unicode digits
    if not (len(prefix) == INDEX_DIGITS and prefix.isascii() and prefix.isdigit()):
        raise BadIndex(f"index prefix {prefix!r} is not three decimal digits")
    check_points(payload)
    return Segment(int(prefix), payload)


def parse_segments_file(text: str) -> list[Segment]:
    """Parse the one-segment-per-LF-line file format, in arrival order.

    Re-raises parse failures with the 1-based line number prepended.
    """
    segments = []
    for lineno, line in enumerate(split_lines(text), start=1):
        try:
            segments.append(parse_segment(line))
        except VoiceSmsError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from exc
    return segments


def reassemble(segments, policy: ReassemblyPolicy) -> tuple[str, ReassemblyReport]:
    """Order, deduplicate, and concatenate received segments.

    Duplicates keep the first arrival; a repeated index with a different
    payload raises :class:`DuplicateMismatch` under either policy, because
    arrival order must not silently pick between corrupt alternatives.
    """
    first: dict[int, Segment] = {}
    duplicates = 0
    for seg in segments:
        held = first.get(seg.index)
        if held is None:
            first[seg.index] = seg
        elif held.payload == seg.payload:
            duplicates += 1
        else:
            raise DuplicateMismatch(seg.index)

    received = sorted(first)
    missing = tuple(i for i in range(received[-1] if received else 0) if i not in first)
    if policy is ReassemblyPolicy.STRICT and missing:
        raise MissingSegments(missing)

    stream = "".join(first[i].payload for i in received)
    report = ReassemblyReport(tuple(received), duplicates, missing)
    return stream, report
