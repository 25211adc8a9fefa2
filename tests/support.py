"""Shared helpers for the test suite."""

import random
import struct

from hypothesis import strategies as st

from voicesms import AudioClip, BadIndex, CodecKind, CodecSpec, InvalidCodePoint, Segment

PCM, ULAW, TOY = map(CodecSpec, CodecKind)  # TOY at the default decimation


def build_wav(samples, sample_rate=8000, bit_depth=16, channels=1) -> bytes:
    """Assemble a canonical RIFF/WAVE container by hand."""
    if bit_depth == 8:
        data = bytes((s + 128) & 0xFF for s in samples)
    else:
        data = b"".join(struct.pack("<h", s) for s in samples)
    block = channels * bit_depth // 8
    fmt = struct.pack(
        "<HHIIHH", 1, channels, sample_rate, sample_rate * block, block, bit_depth
    )
    body = b"WAVE"
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    if len(data) % 2:
        body += b"\x00"
    return b"RIFF" + struct.pack("<I", len(body)) + body


def pcm_clip(samples, sample_rate=8000, bit_depth=16) -> AudioClip:
    """A clip holding the given signed sample values."""
    if bit_depth == 8:
        data = bytes(s + 128 for s in samples)
    else:
        data = struct.pack(f"<{len(samples)}h", *samples)
    return AudioClip(sample_rate_hz=sample_rate, bit_depth=bit_depth, data=data)


def samples(clip: AudioClip) -> tuple[int, ...]:
    """The clip's signed sample values, unpacked from its WAV data bytes."""
    if clip.bit_depth == 16:
        return struct.unpack(f"<{clip.sample_count}h", clip.data)
    return tuple(b - 128 for b in clip.data)


def make_clip(n, seed=0, sample_rate=8000, bit_depth=16) -> AudioClip:
    """Deterministic pseudo-speech clip: full-range uniform noise."""
    rng = random.Random(seed)
    if bit_depth == 8:
        samples = [rng.randrange(-128, 128) for _ in range(n)]
    else:
        samples = [rng.randrange(-32768, 32768) for _ in range(n)]
    return pcm_clip(samples, sample_rate, bit_depth)


def sample_values(bit_depth):
    if bit_depth == 8:
        return st.integers(min_value=-128, max_value=127)
    return st.integers(min_value=-32768, max_value=32767)


def clips(max_size=200, bit_depths=(8, 16)):
    return st.sampled_from(bit_depths).flatmap(
        lambda depth: st.builds(
            pcm_clip,
            st.lists(sample_values(depth), max_size=max_size),
            sample_rate=st.sampled_from([8000, 16000, 44100]),
            bit_depth=st.just(depth),
        )
    )


def ref_parse_segments_file(text: str) -> list[Segment]:
    """Reference receiver: parse LF-framed lines one by one into segments.

    Each line's index prefix is checked before its payload points, and the
    first bad line raises with its 1-based line number prepended.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    parsed = []
    for lineno, line in enumerate(lines, start=1):
        prefix, payload = line[:3], line[3:]
        if len(prefix) != 3 or any(ch not in "0123456789" for ch in prefix):
            raise BadIndex(f"line {lineno}: index prefix {prefix!r} is not three decimal digits")
        for ch in payload:
            if not 32 <= ord(ch) <= 287:
                raise InvalidCodePoint(f"line {lineno}: code point {ord(ch)} outside the legal range 32..287")
        parsed.append(Segment(int(prefix), bytes(ord(ch) % 256 for ch in payload)))  # 256..287 carry 0..31
    return parsed
