"""Both ends of the pipeline, and the sender's accounting.

``encode`` turns a clip into segments; ``decode`` is its inverse on
whatever segments arrive. File framing stays with the caller on both sides.

The accounting: character count equals the codec's byte count (the payload
mapping is one code point per byte), message count is the greedy segment
count, and the connected count groups messages ``group_size`` at a time.
``compare`` counts the cuts without building segments, and takes a
``toy`` stream as every ``step``-th byte of a ``ulaw`` stream it has
already encoded.
"""

from dataclasses import dataclass

from .audio import AudioClip, CodecKind, CodecSpec, codec_decode, codec_encode
from .errors import InvalidOption
from .reassembly import ReassemblyPolicy, ReassemblyReport, reassemble
from .segmentation import Segment, SegmentationConfig, _cuts, segment


@dataclass(frozen=True)
class TransmissionReport:
    codec: CodecKind
    config: SegmentationConfig  # the one the segments were packed under
    char_count: int
    message_count: int

    @property
    def connected_count(self) -> int:
        """ceil(message_count / group_size)"""
        return -(-self.message_count // self.config.group_size)


CSV_HEADER = "codec,chars,messages,connected,capacity,cost_model,group_size"


def _row(r: TransmissionReport) -> list[str]:
    """The cells of one report, in ``CSV_HEADER`` order."""
    return [r.codec.value, str(r.char_count), str(r.message_count), str(r.connected_count),
            str(r.config.capacity), r.config.cost_model.value, str(r.config.group_size)]


def encode(clip: AudioClip, spec: CodecSpec,
           cfg: SegmentationConfig) -> tuple[list[Segment], TransmissionReport]:
    """Run the codec and pack its bytes into segments; return the segments
    and the report tallying their three counts.

    Performs no transmission. A stream too long for the index space
    propagates :class:`SegmentOverflow`.
    """
    data = codec_encode(clip, spec)
    segments = segment(data, cfg)
    return segments, TransmissionReport(
        codec=spec.kind,
        config=cfg,
        char_count=len(data),
        message_count=len(segments),
    )


def decode(segments, spec: CodecSpec, policy: ReassemblyPolicy, sample_rate_hz: int,
           bit_depth: int = 16) -> tuple[AudioClip, ReassemblyReport]:
    """Run reassembly -> codec; return the rebuilt clip and the report of
    which indices arrived.

    The inverse of :func:`encode`: ``segments`` are the ``Segment`` values
    it returns or that ``parse_segments_file`` reads, in any order and with
    duplicates. ``policy`` decides what a gap does; STRICT raises
    :class:`MissingSegments`.
    """
    data, report = reassemble(segments, policy)
    clip = codec_decode(data, spec, sample_rate_hz, bit_depth)
    return clip, report


def compare(clip: AudioClip, specs, cfg: SegmentationConfig) -> list[TransmissionReport]:
    """One report per spec, in the order requested, equal to ``encode``'s.

    Counts the cuts without building segments. Once ``ulaw`` is encoded,
    each ``toy`` stream is every ``step``-th byte of it, as its codec defines.
    """
    specs = list(specs)
    if not specs:
        raise InvalidOption("at least one codec is required")
    reports, ulaw = [], None
    for spec in specs:
        if spec.kind is CodecKind.TOY_COMPRESSED and ulaw is not None:
            data = ulaw[::spec.step]
        else:
            data = codec_encode(clip, spec)
            if spec.kind is CodecKind.ULAW:
                ulaw = data
        reports.append(TransmissionReport(spec.kind, cfg, len(data), len(_cuts(data, cfg))))
    return reports


def render_csv(reports) -> str:
    lines = [CSV_HEADER] + [",".join(_row(r)) for r in reports]
    return "\n".join(lines) + "\n"


def render_table(reports) -> str:
    """Aligned text table over the same columns as the CSV output."""
    rows = [CSV_HEADER.split(",")] + [_row(r) for r in reports]
    widths = [max(map(len, column)) for column in zip(*rows)]
    def fmt(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()
    return "\n".join(map(fmt, rows)) + "\n"
