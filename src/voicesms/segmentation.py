"""Split payload text into indexed SMS segments.

Each segment renders as three zero-padded decimal digits (the index,
000..999) followed by its payload characters, so a 160-character message
leaves 157 characters of payload; that is the default capacity. Under the
WIDE cost model the shifted points (>= 256) cost 2 units -- a rough
stand-in for transports that bill wide characters double.

Packing is greedy, with one loop for both cost models and no fillers. A
window costs its length plus its shifted points, counted in C from the
UTF-16 high bytes (1 exactly for a shifted point; none under UNIFORM).
Each cut starts ``capacity`` points on and moves back by half the
overshoot, rounded up, until the window fits; no point costs more than 2,
so it never moves past the greedy cut.

Exhausting the 000-999 index space is a hard error; wrapping indices would
silently scramble reassembly order.
"""

import enum
from dataclasses import dataclass

from .errors import CapacityTooSmall, SegmentOverflow
from .payload import SHIFT, check_points

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


@dataclass(frozen=True)
class Segment:
    index: int
    payload: str

    def __post_init__(self):
        if not 0 <= self.index <= MAX_INDEX:
            raise ValueError(f"segment index {self.index} outside 0..{MAX_INDEX}")


def point_cost(point: str, model: CostModel) -> int:
    return 2 if model is CostModel.WIDE and ord(point) >= SHIFT else 1


def segment(stream: str, cfg: SegmentationConfig) -> list[Segment]:
    """Greedily pack ``stream`` into consecutively indexed segments.

    An empty stream yields an empty list: an index with no payload carries
    no information, so nothing is sent.
    """
    check_points(stream)
    cap, n = cfg.capacity, len(stream)
    shifted = stream.encode("utf-16-le")[1::2] if cfg.cost_model is CostModel.WIDE else b""
    segments: list[Segment] = []  # the first MAX_INDEX + 1; later segments are only counted
    count = start = 0
    while start < n:
        end = start + cap
        if end > n:
            end = n
        while (over := end - start + shifted.count(1, start, end) - cap) > 0:
            end -= (over + 1) // 2
        if end == start:
            raise CapacityTooSmall(
                f"point {ord(stream[start])} costs {point_cost(stream[start], cfg.cost_model)} "
                f"under {cfg.cost_model.value}; capacity {cap} cannot hold it")
        if count <= MAX_INDEX:
            segments.append(Segment(count, stream[start:end]))
        count += 1
        start = end
    if count > MAX_INDEX + 1:
        raise SegmentOverflow(
            f"stream of {n} points needs {count} segments; the index space holds {MAX_INDEX + 1}")
    return segments


def render_segment(seg: Segment) -> str:
    """Render one segment as transmittable text: 3 index digits + payload."""
    return f"{seg.index:0{INDEX_DIGITS}d}{seg.payload}"


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
