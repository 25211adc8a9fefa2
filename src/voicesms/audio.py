"""Audio containers and codecs feeding the message payload encoder.

Three codecs produce the byte stream that gets textualised and segmented:

* ``PCM`` -- the clip's WAV data chunk as it is, lossless both ways.
* ``ULAW`` -- G.711 u-law companding, one octet per sample, error bounded
  by the quantizer step of the sample's segment.
* ``TOY_COMPRESSED`` -- keep every D-th sample then u-law it; a small,
  fully documented lossy codec used to demonstrate how compression shrinks
  the message count. Decode repeats each sample D times (zero-order hold).

A frozen ``CodecSpec`` names the codec and D, and checks both once, on
construction; ``codec_encode`` and ``codec_decode`` each take one.

The u-law code operates on the 14-bit domain (-8192..8191). 16-bit samples
are arithmetic-shifted right by 2 on the way in and left by 2 on the way
out. ``ulaw_encode_sample`` and ``ulaw_decode_sample`` are the scalar spec;
the codecs apply it through tables built from it, with no Python-level
call per sample.

Encode reads the kept samples as one little-endian integer with a 16-bit
lane per sample. A few whole-integer operations turn each lane into
``w = 4 * biased``, where ``biased`` is the spec's biased magnitude: ``s +
132`` for ``s >= 0`` and ``~s + 136`` for ``s < 0``, at most 32,903, so no
lane carries into the next. The chord boundaries of ``w`` fall on
multiples of 256, so its high byte ``hw`` fixes the chord and the code's
upper bits, and its low byte ``lw`` adds the rest:
``code = F[hw] + G[CLS[hw] | lw >> 3]``, where ``CLS[hw]`` is
``min(hw.bit_length(), 5) << 5``. Each lookup is a ``bytes.translate`` of
a byte plane, and each join of two planes is one ``|``, ``+`` or ``^`` on
their integers; no byte exceeds 127 before the final sign mask, so no
carry crosses a byte. The tables are built from ``ulaw_encode_sample`` on
the first companded encode, not at import. Decode maps the stream through
two 256-byte tables built at import. Note the classic u-law quirk: the
negative-zero octet 0x7F decodes to 0 and therefore re-encodes as the
canonical zero 0xFF; every other octet survives a decode/encode round
trip unchanged.
"""

import enum
import functools
import struct
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


@dataclass(frozen=True)
class CodecSpec:
    """One codec and its decimation D, checked once, on construction.
    PCM and ULAW accept any D and ignore it."""

    kind: CodecKind = CodecKind.PCM
    decimation: int = DEFAULT_DECIMATION

    def __post_init__(self):
        if not isinstance(self.kind, CodecKind):
            raise InvalidOption(f"unknown codec {self.kind!r}")
        if self.kind is CodecKind.TOY_COMPRESSED and self.decimation < 1:
            raise InvalidOption(f"decimation must be >= 1, got {self.decimation}")

    @property
    def step(self) -> int:
        """Samples per u-law octet: ULAW is TOY_COMPRESSED with a step of 1."""
        return self.decimation if self.kind is CodecKind.TOY_COMPRESSED else 1


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


@functools.cache
def _ulaw_encode_tables() -> tuple[bytes, bytes, bytes, bytes, bytes]:
    """The ``bytes.translate`` tables of ``codec_encode``: ``CLS``, ``lw >> 3``,
    ``F``, ``G`` and, per high byte of a sample, the mask its code is XORed
    with. Built on first use, not at import."""
    def code(w: int) -> int:  # the 7 code bits; below 132, w takes no sample
        return ulaw_encode_sample((max(w, 132) >> 2) - _ULAW_BIAS) ^ 0xFF

    cls = bytes(min(hw.bit_length(), 5) << 5 for hw in range(256))
    # w is at most 32,903, so no hw past 128 (the clip) and no key past 0xBF is read
    f = bytes(map(code, range(0, 0x8100, 0x100))).ljust(256, b"\0")

    def g_entry(key: int) -> int:  # the same for every hw of the key's class: take the first
        hw = cls.index(key & 0xE0)
        return code(hw << 8 | (key & 0x1F) << 3) - f[hw]

    g = bytes(map(g_entry, range(0xC0))).ljust(256, b"\0")
    return (cls, bytes(b >> 3 for b in range(256)), f, g,
            bytes(0x7F if b >> 7 else 0xFF for b in range(256)))


def _int(plane: bytes) -> int:
    return int.from_bytes(plane, "little")


def codec_encode(clip: AudioClip, spec: CodecSpec) -> bytes:
    """Turn a clip into the byte stream that will ride inside messages.

    PCM emits the clip's WAV data chunk; ULAW and TOY_COMPRESSED need a 16-bit clip.
    """
    if spec.kind is CodecKind.PCM:
        return clip.data
    if clip.bit_depth != 16:
        raise UnsupportedCombination(f"{spec.kind.value} requires a 16-bit clip, got {clip.bit_depth}-bit")
    data = memoryview(clip.data).cast("H")[::spec.step].tobytes()
    cls, shr3, f, g, sign = _ulaw_encode_tables()
    n = len(data) // 2
    lanes = _int(data)
    ones = _int(b"\1\0" * n)
    neg = (lanes >> 15) & ones
    # per lane s + 132, or ~s + 136 where s < 0: at most 32,903, so no lane carries
    w = ((lanes ^ neg * 0xFFFF) + 132 * ones + (neg << 2)).to_bytes(2 * n, "little")
    lw, hw = w[0::2], w[1::2]
    key = (_int(hw.translate(cls)) | _int(lw.translate(shr3))).to_bytes(n, "little")
    code = _int(hw.translate(f)) + _int(key.translate(g))
    return (code ^ _int(data[1::2].translate(sign))).to_bytes(n, "little")


def codec_decode(stream: bytes, spec: CodecSpec, sample_rate_hz: int,
                 bit_depth: int = 16) -> AudioClip:
    """Rebuild a clip from a codec byte stream.

    ``bit_depth`` matters only for PCM, where the stream alone cannot tell
    8-bit from 16-bit data. ULAW and TOY_COMPRESSED always reconstruct a
    16-bit clip, holding each decoded sample for ``spec.step`` ticks.
    """
    if spec.kind is CodecKind.PCM:
        return AudioClip(sample_rate_hz, bit_depth, stream)
    stride = 2 * spec.step
    if not stream:  # the tick loop below runs stride // 2 times, whatever the length
        return AudioClip(sample_rate_hz, 16, b"")
    _check_data_size(stride * len(stream))  # before allocating it
    data = bytearray(stride * len(stream))
    low, high = stream.translate(_ULAW_LOW), stream.translate(_ULAW_HIGH)
    for tick in range(0, stride, 2):
        data[tick::stride] = low
        data[tick + 1::stride] = high
    return AudioClip(sample_rate_hz, 16, data)
