"""Split payload text into indexed SMS segments.

Each segment renders as three zero-padded decimal digits (the index,
000..999) followed by its payload characters, so a 160-character message
leaves 157 characters of payload; that is the default capacity. Packing is
greedy: every segment except possibly the last takes the longest prefix
whose cost fits the capacity. Under the WIDE cost model the shifted points
(>= 256) cost 2 units -- a rough stand-in for transports that bill wide
characters double -- and a 2-unit point is never split across segments.

Exhausting the 000-999 index space is a hard error; wrapping indices would
silently scramble reassembly order.
"""

import enum
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .errors import CapacityTooSmall, SegmentOverflow
from .payload import SHIFT, check_points

MAX_INDEX = 999
INDEX_DIGITS = 3
DEFAULT_CAPACITY = 157  # 160-character SMS minus the 3-digit index
_WIDE_FLOOR = chr(SHIFT)  # first character that costs 2 under WIDE


class CostModel(enum.Enum):
    UNIFORM = "uniform"  # every point costs 1
    WIDE = "wide"        # shifted points (>= 256) cost 2


@dataclass(frozen=True)
class SegmentationConfig:
    capacity: int = DEFAULT_CAPACITY
    cost_model: CostModel = CostModel.UNIFORM
    group_size: int = 3

    def __post_init__(self):
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.group_size < 1:
            raise ValueError(f"group size must be >= 1, got {self.group_size}")


@dataclass(frozen=True)
class Segment:
    index: int
    payload: str

    def __post_init__(self):
        if not 0 <= self.index <= MAX_INDEX:
            raise ValueError(f"segment index {self.index} outside 0..{MAX_INDEX}")


def point_cost(point: str, model: CostModel) -> int:
    return 2 if model is CostModel.WIDE and point >= _WIDE_FLOOR else 1


def segment(stream: str, cfg: SegmentationConfig) -> list[Segment]:
    """Greedily pack ``stream`` into consecutively indexed segments.

    An empty stream yields an empty list: an index with no payload carries
    no information, so nothing is sent.
    """
    check_points(stream)
    n = len(stream)
    if n == 0:
        return []
    cap = cfg.capacity

    if cfg.cost_model is CostModel.UNIFORM:
        count = -(-n // cap)
        if count > MAX_INDEX + 1:
            raise SegmentOverflow(
                f"stream of {n} points needs {count} segments; the index space holds {MAX_INDEX + 1}",
                segments_packed=MAX_INDEX + 1, points_packed=(MAX_INDEX + 1) * cap, char_count=n)
        return [Segment(i, stream[i * cap:(i + 1) * cap]) for i in range(count)]

    # WIDE: prefix sums of per-point costs, then binary-search each cut
    prefix = list(accumulate(2 if ch >= _WIDE_FLOOR else 1 for ch in stream))
    segments: list[Segment] = []
    start = 0
    while start < n:
        if len(segments) > MAX_INDEX:
            raise SegmentOverflow(
                f"stream of {n} points exceeds the {MAX_INDEX + 1}-segment index space",
                segments_packed=MAX_INDEX + 1, points_packed=start, char_count=n)
        consumed = prefix[start - 1] if start else 0
        end = bisect_right(prefix, consumed + cap, lo=start)
        if end == start:
            raise CapacityTooSmall(
                f"point {ord(stream[start])} costs {point_cost(stream[start], cfg.cost_model)} "
                f"under {cfg.cost_model.value}; capacity {cap} cannot hold it")
        segments.append(Segment(len(segments), stream[start:end]))
        start = end
    return segments


def render_segment(seg: Segment) -> str:
    """Render one segment as transmittable text: 3 index digits + payload."""
    return f"{seg.index:0{INDEX_DIGITS}d}{seg.payload}"


def render_segments_file(segments) -> str:
    """One rendered segment per LF-terminated line.

    Safe because no payload point falls in 0..31, so payloads can never
    contain LF or CR.
    """
    return "".join(render_segment(s) + "\n" for s in segments)


def connected_group_count(message_count: int, group_size: int = 3) -> int:
    """Number of connected-message groups: ceil(message_count / group_size)."""
    if message_count < 0:
        raise ValueError(f"message count must be >= 0, got {message_count}")
    if group_size < 1:
        raise ValueError(f"group size must be >= 1, got {group_size}")
    return -(-message_count // group_size)
