"""Both ends of the pipeline, and the sender's accounting.

``encode`` turns a clip into segments; ``decode`` is its inverse on
whatever segments arrive. File framing stays with the caller on both sides.

The accounting: character count equals the codec's byte count (the payload
mapping is one code point per byte), message count is the greedy segment
count, and the connected count groups messages ``group_size`` at a time.
"""

from dataclasses import dataclass

from .audio import DEFAULT_DECIMATION, AudioClip, CodecKind, codec_decode, codec_encode
from .payload import bytes_to_codepoints, codepoints_to_bytes
from .reassembly import ReassemblyPolicy, ReassemblyReport, reassemble
from .segmentation import Segment, SegmentationConfig, connected_group_count, segment


@dataclass(frozen=True)
class TransmissionReport:
    codec: CodecKind
    config: SegmentationConfig  # the one the segments were packed under
    char_count: int
    message_count: int
    connected_count: int


CSV_HEADER = "codec,chars,messages,connected,capacity,cost_model,group_size"


def _row(r: TransmissionReport) -> list[str]:
    """The cells of one report, in ``CSV_HEADER`` order."""
    return [r.codec.value, str(r.char_count), str(r.message_count), str(r.connected_count),
            str(r.config.capacity), r.config.cost_model.value, str(r.config.group_size)]


def encode(clip: AudioClip, kind: CodecKind, cfg: SegmentationConfig,
           decimation: int = DEFAULT_DECIMATION) -> tuple[list[Segment], TransmissionReport]:
    """Run codec -> payload text -> segmentation; return the segments and
    the report tallying their three counts.

    Performs no transmission. A stream too long for the index space
    propagates :class:`SegmentOverflow`.
    """
    data = codec_encode(clip, kind, decimation)
    segments = segment(bytes_to_codepoints(data), cfg)
    message_count = len(segments)
    return segments, TransmissionReport(
        codec=kind,
        config=cfg,
        char_count=len(data),
        message_count=message_count,
        connected_count=connected_group_count(message_count, cfg.group_size),
    )


def decode(segments, kind: CodecKind, policy: ReassemblyPolicy, sample_rate_hz: int,
           bit_depth: int = 16,
           decimation: int = DEFAULT_DECIMATION) -> tuple[AudioClip, ReassemblyReport]:
    """Run reassembly -> payload bytes -> codec; return the rebuilt clip and
    the report of which indices arrived.

    The inverse of :func:`encode`: ``segments`` are the ``Segment`` values
    it returns or that ``parse_segments_file`` reads, in any order and with
    duplicates. ``policy`` decides what a gap does; STRICT raises
    :class:`MissingSegments`.
    """
    stream, report = reassemble(segments, policy)
    clip = codec_decode(codepoints_to_bytes(stream), kind, sample_rate_hz, bit_depth, decimation)
    return clip, report


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
