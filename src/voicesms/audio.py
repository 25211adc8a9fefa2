"""Audio containers and codecs feeding the message payload encoder.

Three codecs produce the byte stream that gets textualised and segmented:

* ``PCM`` -- the clip's WAV data chunk as it is, lossless both ways.
* ``ULAW`` -- G.711 u-law companding, one octet per sample, error bounded
  by the quantizer step of the sample's segment.
* ``TOY_COMPRESSED`` -- keep every D-th sample then u-law it; a small,
  fully documented lossy codec used to demonstrate how compression shrinks
  the message count. Decode repeats each sample D times (zero-order hold).

The u-law code operates on the 14-bit domain (-8192..8191). 16-bit samples
are arithmetic-shifted right by 2 on the way in and left by 2 on the way
out. ``ulaw_encode_sample`` and ``ulaw_decode_sample`` are the scalar spec;
the codecs apply it through tables built from it: encode looks each sample
up in a 65,536-entry ``list`` built on first use, and decode maps the
stream through two 256-byte tables built at import. The encode table is a
list because ``map`` calls ``list.__getitem__`` directly, with no argument
tuple per sample; it costs 512 KiB once per process. Note the classic
u-law quirk: the negative-zero octet 0x7F decodes to 0 and therefore
re-encodes as the canonical zero 0xFF; every other octet survives a
decode/encode round trip unchanged.
"""

import enum
import functools
import struct
import sys
from array import array
from dataclasses import dataclass

from .errors import (
    InvalidOption,
    LengthMismatch,
    MalformedContainer,
    UnsupportedCombination,
    UnsupportedFormat,
)

DEFAULT_DECIMATION = 4
# largest data chunk whose RIFF size (36 + data + pad byte) fits in 32 bits
MAX_DATA_BYTES = (0xFFFFFFFF - 36) & ~1


class CodecKind(enum.Enum):
    PCM = "pcm"
    ULAW = "ulaw"
    TOY_COMPRESSED = "toy"


def _check_data_size(n: int) -> None:
    if n > MAX_DATA_BYTES:
        raise InvalidOption(f"{n} bytes of audio exceed the {MAX_DATA_BYTES}-byte WAV data chunk limit")


@dataclass(frozen=True)
class AudioClip:
    """Immutable mono clip holding its samples as a WAV data chunk does:
    16-bit signed little-endian, or 8-bit unsigned with a 128 offset."""

    sample_rate_hz: int
    bit_depth: int
    data: bytes

    def __post_init__(self):
        # via memoryview, so a list of sample ints is refused, not read as bytes
        object.__setattr__(self, "data", bytes(memoryview(self.data)))
        _check_data_size(len(self.data))
        if self.bit_depth == 16 and len(self.data) % 2:
            raise LengthMismatch(f"odd byte count {len(self.data)} for 16-bit samples")
        if self.sample_rate_hz <= 0:
            raise InvalidOption(f"sample rate must be positive, got {self.sample_rate_hz}")
        if self.bit_depth not in (8, 16):
            raise InvalidOption(f"bit depth must be 8 or 16, got {self.bit_depth}")
        if self.sample_rate_hz * self.bit_depth // 8 > 0xFFFFFFFF:
            raise InvalidOption(f"sample rate {self.sample_rate_hz} Hz overflows the WAV byte-rate field")

    @property
    def sample_count(self) -> int:
        return len(self.data) // (self.bit_depth // 8)


# --- u-law companding (G.711, 14-bit domain) --------------------------------

_ULAW_BIAS = 33
_ULAW_CLIP = 8158  # largest magnitude representable once the bias is added


def ulaw_encode_sample(linear: int) -> int:
    """Compress one 14-bit sample (-8192..8191) into a u-law octet.

    Magnitudes beyond the codec range are clipped, as companders
    conventionally do.
    """
    if linear >= 0:
        magnitude, mask = linear, 0xFF
    else:
        magnitude, mask = -linear, 0x7F
    if magnitude > _ULAW_CLIP:
        magnitude = _ULAW_CLIP
    biased = magnitude + _ULAW_BIAS
    # biased is 33..8191, so bit_length is 6..13 and the segment is 0..7
    seg = biased.bit_length() - 6
    return ((seg << 4) | ((biased >> (seg + 1)) & 0x0F)) ^ mask


def ulaw_decode_sample(octet: int) -> int:
    """Expand a u-law octet to its 14-bit quantizer value (exact inverse
    of the quantization cell midpoint)."""
    u = ~octet & 0xFF
    seg = (u >> 4) & 0x07
    mantissa = u & 0x0F
    magnitude = ((2 * mantissa + _ULAW_BIAS) << seg) - _ULAW_BIAS
    return -magnitude if u & 0x80 else magnitude


# --- RIFF/WAVE container ------------------------------------------------------

def read_wav(container: bytes) -> AudioClip:
    """Decode a RIFF/WAVE container holding linear mono 8/16-bit PCM.

    Unknown chunks are skipped; ``fmt `` and ``data`` must each appear
    exactly once. Samples are preserved bit-exactly.
    """
    if len(container) < 12:
        raise MalformedContainer(f"container of {len(container)} bytes is too short for a RIFF header")
    magic, riff_size, form = struct.unpack_from("<4sI4s", container, 0)
    if magic != b"RIFF":
        raise MalformedContainer(f"bad magic {magic!r}, expected b'RIFF'")
    if form != b"WAVE":
        raise MalformedContainer(f"bad form type {form!r}, expected b'WAVE'")
    if riff_size != len(container) - 8:
        raise MalformedContainer(
            f"RIFF size {riff_size} does not match container payload {len(container) - 8}")

    required = {b"fmt ": None, b"data": None}  # id -> its one body
    offset = 12
    while offset < len(container):
        if offset + 8 > len(container):
            raise MalformedContainer("truncated chunk header")
        chunk_id, chunk_size = struct.unpack_from("<4sI", container, offset)
        body = container[offset + 8:offset + 8 + chunk_size]
        if len(body) < chunk_size:
            raise MalformedContainer(f"chunk {chunk_id!r} overruns the container")
        if chunk_id in required:
            if required[chunk_id] is not None:
                raise MalformedContainer(f"duplicate {chunk_id.decode().rstrip()} chunk")
            required[chunk_id] = body
        offset += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    for chunk_id, body in required.items():
        if body is None:
            raise MalformedContainer(f"missing {chunk_id.decode().rstrip()} chunk")
    fmt_body, data_body = required.values()
    if len(fmt_body) < 16:
        raise MalformedContainer(f"fmt chunk of {len(fmt_body)} bytes is too short")

    audio_format, channels, rate, byte_rate, block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt_body, 0)
    if audio_format != 1:
        raise UnsupportedFormat(f"audio format {audio_format} is not linear PCM")
    if channels != 1:
        raise UnsupportedFormat(f"{channels} channels; only mono is supported")
    if bits not in (8, 16):
        raise UnsupportedFormat(f"{bits}-bit samples; only 8 or 16 bit are supported")
    if rate == 0:
        raise MalformedContainer("zero sample rate")
    expected_align = bits // 8
    if block_align != expected_align:
        raise MalformedContainer(f"block align {block_align} inconsistent with {bits}-bit mono")
    if byte_rate != rate * expected_align:
        raise MalformedContainer(f"byte rate {byte_rate} inconsistent with {rate} Hz {bits}-bit mono")
    if len(data_body) % expected_align:
        raise MalformedContainer(f"data chunk of {len(data_body)} bytes is not whole {bits}-bit samples")

    return AudioClip(rate, bits, data_body)


def write_wav(clip: AudioClip) -> bytes:
    """Emit the minimal canonical container: 44-byte header, then samples,
    then one pad byte when the data chunk is odd-sized."""
    pad = b"\x00" if len(clip.data) % 2 else b""
    block_align = clip.bit_depth // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(clip.data) + len(pad), b"WAVE",
        b"fmt ", 16, 1, 1, clip.sample_rate_hz, clip.sample_rate_hz * block_align,
        block_align, clip.bit_depth,
        b"data", len(clip.data),
    )
    return header + clip.data + pad


# --- codec front door ----------------------------------------------------------

# Per octet, the low and the high byte of its decoded 16-bit sample.
_ULAW_LOW, _ULAW_HIGH = (bytes((ulaw_decode_sample(octet) << 2 >> shift) & 0xFF for octet in range(256))
                         for shift in (0, 8))


def _hold(kind: CodecKind, decimation: int) -> int:
    """Samples per u-law octet: ULAW is TOY_COMPRESSED with a step of 1."""
    if kind is CodecKind.ULAW:
        return 1
    if kind is CodecKind.TOY_COMPRESSED:
        if decimation < 1:
            raise InvalidOption(f"decimation must be >= 1, got {decimation}")
        return decimation
    raise InvalidOption(f"unknown codec {kind!r}")


@functools.cache
def _ulaw_encode_table() -> list[int]:
    """The u-law octet of every 16-bit sample, indexed by the sample read
    as unsigned (``s & 0xFFFF``). Built on first use, not at import.
    Shared by every caller, so nothing may write to it."""
    # the 14-bit domain in unsigned order: 0..8191, then -8192..-1
    low14 = list(map(ulaw_encode_sample, (*range(0x2000), *range(-0x2000, 0))))
    table = [0] * 0x10000
    for low_bits in range(4):  # s >> 2 drops two bits: each octet four times
        table[low_bits::4] = low14
    return table


def codec_encode(clip: AudioClip, kind: CodecKind,
                 decimation: int = DEFAULT_DECIMATION) -> bytes:
    """Turn a clip into the byte stream that will ride inside messages.

    PCM emits the clip's WAV data chunk; ULAW and TOY_COMPRESSED need a 16-bit clip.
    """
    if kind is CodecKind.PCM:
        return clip.data
    if clip.bit_depth != 16:
        raise UnsupportedCombination(f"{kind.value} requires a 16-bit clip, got {clip.bit_depth}-bit")
    samples = array("H", clip.data)
    if sys.byteorder == "big":
        samples.byteswap()  # data is little-endian
    return bytes(map(_ulaw_encode_table().__getitem__, samples[::_hold(kind, decimation)]))


def codec_decode(stream: bytes, kind: CodecKind, sample_rate_hz: int,
                 bit_depth: int = 16,
                 decimation: int = DEFAULT_DECIMATION) -> AudioClip:
    """Rebuild a clip from a codec byte stream.

    ``bit_depth`` matters only for PCM, where the stream alone cannot tell
    8-bit from 16-bit data. ULAW and TOY_COMPRESSED always reconstruct a
    16-bit clip; TOY_COMPRESSED holds each decoded sample for ``decimation``
    ticks.
    """
    if kind is CodecKind.PCM:
        return AudioClip(sample_rate_hz, bit_depth, stream)
    stride = 2 * _hold(kind, decimation)
    if not stream:  # the tick loop below runs stride // 2 times, whatever the length
        return AudioClip(sample_rate_hz, 16, b"")
    _check_data_size(stride * len(stream))  # before allocating it
    data = bytearray(stride * len(stream))
    low, high = stream.translate(_ULAW_LOW), stream.translate(_ULAW_HIGH)
    for tick in range(0, stride, 2):
        data[tick::stride] = low
        data[tick + 1::stride] = high
    return AudioClip(sample_rate_hz, 16, data)
