"""The sender's side of the pipeline and its accounting: how many
characters, messages, and connected messages a clip costs under each codec.

Character count equals the codec's byte count (the payload mapping is one
code point per byte), message count is the greedy segment count, and the
connected count groups messages ``group_size`` at a time.
"""

from dataclasses import dataclass

from .audio import DEFAULT_DECIMATION, AudioClip, CodecKind, codec_encode
from .payload import bytes_to_codepoints
from .segmentation import CostModel, Segment, SegmentationConfig, connected_group_count, segment


@dataclass(frozen=True)
class TransmissionReport:
    codec: CodecKind
    char_count: int
    message_count: int
    connected_count: int
    capacity: int
    cost_model: CostModel
    group_size: int
    decimation: int | None = None  # set for TOY_COMPRESSED only


CSV_HEADER = "codec,chars,messages,connected,capacity,cost_model,group_size"


def _row(r: TransmissionReport) -> list[str]:
    """The cells of one report, in ``CSV_HEADER`` order."""
    return [r.codec.value, str(r.char_count), str(r.message_count), str(r.connected_count),
            str(r.capacity), r.cost_model.value, str(r.group_size)]


def encode(clip: AudioClip, kind: CodecKind, cfg: SegmentationConfig,
           decimation: int = DEFAULT_DECIMATION) -> tuple[list[Segment], TransmissionReport]:
    """Run codec -> payload text -> segmentation; return the segments and
    the report tallying their three counts.

    Performs no transmission. A stream too long for the index space
    propagates :class:`SegmentOverflow` carrying the counts known so far.
    """
    data = codec_encode(clip, kind, decimation)
    segments = segment(bytes_to_codepoints(data), cfg)
    message_count = len(segments)
    return segments, TransmissionReport(
        codec=kind,
        char_count=len(data),
        message_count=message_count,
        connected_count=connected_group_count(message_count, cfg.group_size),
        capacity=cfg.capacity,
        cost_model=cfg.cost_model,
        group_size=cfg.group_size,
        decimation=decimation if kind is CodecKind.TOY_COMPRESSED else None,
    )


def compare(clip: AudioClip, kinds, cfg: SegmentationConfig,
            decimation: int = DEFAULT_DECIMATION) -> list[TransmissionReport]:
    """One report per codec, in the order requested."""
    kinds = list(kinds)
    if not kinds:
        raise ValueError("at least one codec is required")
    return [encode(clip, kind, cfg, decimation)[1] for kind in kinds]


def render_csv(reports) -> str:
    lines = [CSV_HEADER] + [",".join(_row(r)) for r in reports]
    return "\n".join(lines) + "\n"


def render_table(reports) -> str:
    """Aligned text table over the same columns as the CSV output."""
    headers = CSV_HEADER.split(",")
    rows = [_row(r) for r in reports]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()
    return "\n".join([fmt(headers)] + [fmt(row) for row in rows]) + "\n"
