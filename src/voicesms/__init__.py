"""voicesms: carry recorded voice across SMS-sized text messages.

Pipeline: WAV -> codec bytes -> indexed segments -> control-safe text
lines -> (simulated lossy channel) -> parsed segments -> reassembled bytes
-> WAV.
"""

from .audio import (
    DEFAULT_DECIMATION,
    AudioClip,
    CodecKind,
    CodecSpec,
    codec_decode,
    codec_encode,
    read_wav,
    ulaw_decode_sample,
    ulaw_encode_sample,
    write_wav,
)
from .channel import ChannelConfig, SplitMix64, render_channel_log, transmit
from .errors import (
    BadIndex,
    CapacityTooSmall,
    DuplicateMismatch,
    InvalidCodePoint,
    InvalidOption,
    LengthMismatch,
    MalformedContainer,
    MissingSegments,
    NotText,
    SegmentOverflow,
    UnsupportedCombination,
    UnsupportedFormat,
    VoiceSmsError,
)
from .metrics import (
    CSV_HEADER,
    TransmissionReport,
    compare,
    decode,
    encode,
    render_csv,
    render_table,
)
from .payload import bytes_to_codepoints, codepoints_to_bytes
from .reassembly import (
    ReassemblyPolicy,
    ReassemblyReport,
    parse_segment,
    parse_segments_file,
    reassemble,
)
from .segmentation import (
    DEFAULT_CAPACITY,
    DEFAULT_GROUP_SIZE,
    CostModel,
    Segment,
    SegmentationConfig,
    join_lines,
    point_cost,
    render_segment,
    render_segments_file,
    segment,
    split_lines,
)
