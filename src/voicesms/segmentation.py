"""Pack a codec byte stream into indexed SMS segments.

A segment's payload is a slice of the codec bytes. It becomes text only
when rendered: three zero-padded decimal digits (the index, 000..999)
followed by one payload character per byte, so a 160-character message
leaves 157 characters of payload; that is the default capacity. Under the
WIDE cost model the shifted points (>= 256) cost 2 units -- a rough
stand-in for transports that bill wide characters double.

Packing is greedy, one cut loop for both cost models. A window costs its
length plus its shifted points, counted in C in the codec bytes mapped
through a table built from ``point_cost``. Each cut starts as long as the
segment before it (the first at ``capacity`` points). Over budget, it moves
back by half the overshoot, rounded up; with slack of 2 or more, it moves
forward by half the slack, rounded down; with slack 1, it takes one more
point if that point costs 1. No point costs over 2, so both directions land
on the greedy cut. ``segment`` slices segments at the cuts; ``compare``
only counts them.

Exhausting the 000-999 index space is a hard error; wrapping indices would
silently scramble reassembly order.
"""

import enum
from dataclasses import dataclass

from .errors import CapacityTooSmall, SegmentOverflow
from .payload import ALPHABET, SHIFT, bytes_to_codepoints

INDEX_DIGITS = 3
MAX_INDEX = 10 ** INDEX_DIGITS - 1
DEFAULT_CAPACITY = 160 - INDEX_DIGITS  # 160-character SMS minus the index
DEFAULT_GROUP_SIZE = 3  # messages per connected group


class CostModel(enum.Enum):
    UNIFORM = "uniform"  # every point costs 1
    WIDE = "wide"        # shifted points (>= 256) cost 2


@dataclass(frozen=True)
class SegmentationConfig:
    capacity: int = DEFAULT_CAPACITY
    cost_model: CostModel = CostModel.UNIFORM
    group_size: int = DEFAULT_GROUP_SIZE

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.group_size < 1:
            raise ValueError(f"group size must be >= 1, got {self.group_size}")


@dataclass(slots=True)
class Segment:
    index: int
    payload: bytes  # codec bytes; rendered as one point per byte

    def __post_init__(self):
        if not 0 <= self.index <= MAX_INDEX:
            raise ValueError(f"segment index {self.index} outside 0..{MAX_INDEX}")


def point_cost(point: str, model: CostModel) -> int:
    return 2 if model is CostModel.WIDE and ord(point) >= SHIFT else 1


_WIDE_EXTRA = bytes(point_cost(p, CostModel.WIDE) - 1 for p in ALPHABET)  # indexed by byte


def _cuts(data: bytes, cfg: SegmentationConfig) -> list[int]:
    """End offsets of the greedy segments of ``data``.

    Raises :class:`CapacityTooSmall` at the first point that fits no
    segment, and then :class:`SegmentOverflow` if there are more than
    MAX_INDEX + 1 cuts.
    """
    cap, n = cfg.capacity, len(data)
    shifted = data.translate(_WIDE_EXTRA) if cfg.cost_model is CostModel.WIDE else b""
    ends: list[int] = []
    start = 0
    length = cap
    while start < n:
        # The greedy cut g is the last end whose window costs at most cap.
        # Back: at end > g the window costs cap + over, and each point in
        # g..end costs at most 2, so end - g >= ceil(over / 2): no step passes g.
        # Its ceil(over / 2) points cost at most over + 1, and that only if each
        # costs 2: a slack of 1 left after moving back means the next point
        # costs 2, so a cut moves one way only.
        # Forward: slack // 2 more points cost at most the slack, so end <= g.
        # Once the slack is 0, or 1 and the next point costs 2, end == g.
        end = start + length
        if end > n:
            end = n
        slack = cap - (end - start) - shifted.count(1, start, end)
        if slack < 0:
            while slack < 0:
                step = (1 - slack) // 2
                end -= step
                slack += step + shifted.count(1, end, end + step)
            if end == start:
                point = ALPHABET[data[start]]
                raise CapacityTooSmall(
                    f"point {ord(point)} costs {point_cost(point, cfg.cost_model)} "
                    f"under {cfg.cost_model.value}; capacity {cap} cannot hold it")
        elif slack and end < n:  # under UNIFORM, slack > 0 only at end == n
            while slack > 1 and end < n:
                step = min(slack // 2, n - end)
                slack -= step + shifted.count(1, end, end + step)
                end += step
            if slack and end < n and not shifted[end]:
                end += 1
        ends.append(end)
        length = end - start
        start = end
    if len(ends) > MAX_INDEX + 1:
        raise SegmentOverflow(
            f"stream of {n} points needs {len(ends)} segments; the index space holds {MAX_INDEX + 1}")
    return ends


def segment(data: bytes, cfg: SegmentationConfig) -> list[Segment]:
    """Greedily pack ``data`` into consecutively indexed segments, each
    costed as its rendered points.

    An empty stream yields an empty list: an index with no payload carries
    no information, so nothing is sent.
    """
    data = bytes(data)  # payloads are bytes: a bytearray is copied, a str raises TypeError
    ends = _cuts(data, cfg)
    return [Segment(index, data[start:end])
            for index, start, end in zip(range(len(ends)), [0, *ends], ends)]


def render_segment(seg: Segment) -> str:
    """Render one segment as transmittable text: 3 index digits + payload points."""
    return f"{seg.index:0{INDEX_DIGITS}d}{bytes_to_codepoints(seg.payload)}"


def split_lines(text: str) -> list[str]:
    """Split LF-framed text into its lines; the final LF is optional.

    Splits on LF alone: payload characters such as U+0085, which
    ``str.splitlines`` treats as line breaks, stay inside their line.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def join_lines(lines) -> str:
    """Frame each line with a terminating LF; inverse of :func:`split_lines`."""
    return "".join(line + "\n" for line in lines)


def render_segments_file(segments) -> str:
    """One rendered segment per LF-terminated line.

    Safe because no payload point falls in 0..31, so payloads can never
    contain LF or CR.
    """
    return join_lines(render_segment(s) for s in segments)
