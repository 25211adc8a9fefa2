import itertools
import os
import random
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import voicesms.audio as audio
from g711_ref import ref_decode_table, ref_encode, ref_error_bound
from support import build_wav, clips, make_clip, pcm_clip, samples
from voicesms import (
    AudioClip,
    CodecKind,
    LengthMismatch,
    MalformedContainer,
    UnsupportedCombination,
    UnsupportedFormat,
    codec_decode,
    codec_encode,
    read_wav,
    ulaw_decode_sample,
    ulaw_encode_sample,
    write_wav,
)

REF_TABLE = ref_decode_table()
EXTREMES = [-32768, 32767, 0, -1]  # the largest lanes of each sign, and the samples either side of zero


def assert_encodes_like_reference(values):
    """ulaw is the oracle per sample, and toy at D = 1..5 is ulaw[::D]."""
    ulaw = codec_encode(pcm_clip(values), CodecKind.ULAW)
    assert ulaw == bytes(ref_encode(s >> 2) for s in values)
    for d in range(1, 6):
        assert codec_encode(pcm_clip(values), CodecKind.TOY_COMPRESSED, decimation=d) == ulaw[::d]


def fmt16(rate=8000, byte_rate=16000, block_align=2) -> bytes:
    """A 16-bit mono linear PCM fmt chunk body."""
    return struct.pack("<HHIIHH", 1, 1, rate, byte_rate, block_align, 16)


FMT16 = fmt16()
DATA4 = b"\x01\x00\x02\x00"  # two 16-bit samples: 1, 2


def chunk(chunk_id: bytes, body: bytes) -> bytes:
    return chunk_id + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)


def riff(*chunks: bytes) -> bytes:
    """A WAVE container whose RIFF size matches what follows it."""
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


class TestUlawSamples:
    def test_matches_reference_encoder_exhaustively(self):
        for linear in range(-8192, 8192):
            assert ulaw_encode_sample(linear) == ref_encode(linear)

    def test_matches_reference_decoder_exhaustively(self):
        for octet in range(256):
            assert ulaw_decode_sample(octet) == REF_TABLE[octet]

    @pytest.mark.parametrize(
        "linear, octet",
        [
            (0, 0xFF),
            (1, 0xFE),
            (-1, 0x7E),
            (8158, 0x80),
            (-8158, 0x00),
            (9000, 0x80),  # clamps at the clip level
            (-32768, 0x00),
        ],
    )
    def test_encode_known_values(self, linear, octet):
        assert ulaw_encode_sample(linear) == octet

    @pytest.mark.parametrize(
        "octet, linear",
        [(0xFF, 0), (0x7F, 0), (0xFE, 2), (0x7E, -2), (0x80, 8031), (0x00, -8031)],
    )
    def test_decode_known_values(self, octet, linear):
        assert ulaw_decode_sample(octet) == linear

    def test_codebook_exactness(self):
        # Every octet except the redundant negative zero survives a decode/encode
        # round trip; 0x7F decodes to 0, which re-encodes as positive zero 0xFF.
        for octet in range(256):
            again = ulaw_encode_sample(ulaw_decode_sample(octet))
            assert again == (0xFF if octet == 0x7F else octet)

    def test_transcode_idempotent_and_bounded(self):
        for linear in range(-8192, 8192):
            decoded = ulaw_decode_sample(ulaw_encode_sample(linear))
            assert abs(decoded - max(-8158, min(8158, linear))) < ref_error_bound(linear)
            assert ulaw_encode_sample(decoded) == ulaw_encode_sample(linear)

    def test_decoder_monotone_within_each_sign(self):
        positives = [ulaw_decode_sample(o) for o in range(0xFF, 0x7F, -1)]
        assert positives == sorted(positives)
        negatives = [ulaw_decode_sample(o) for o in range(0x00, 0x80)]
        assert negatives == sorted(negatives)

    def test_encoder_monotone_nonstrict(self):
        # In u-space (complemented octets) the encoder never decreases.
        last = -128
        for linear in range(-8158, 8159):
            u = ulaw_encode_sample(linear)
            u = -(u ^ 0x7F) if u < 0x80 else u ^ 0xFF
            assert u >= last
            last = u


class TestClipValidation:
    def test_rejects_partial_sixteen_bit_sample(self):
        # Bytes cannot hold an out-of-range sample; only a torn one.
        with pytest.raises(LengthMismatch, match="odd byte count 3 for 16-bit samples"):
            AudioClip(sample_rate_hz=8000, bit_depth=16, data=b"\x00\x01\x02")
        odd = AudioClip(sample_rate_hz=8000, bit_depth=8, data=b"\x00\x01\x02")
        assert samples(odd) == (-128, -127, -126)

    def test_rejects_bad_rate_and_depth(self):
        with pytest.raises(ValueError):
            pcm_clip([], sample_rate=0)
        with pytest.raises(ValueError):
            pcm_clip([], bit_depth=12)

    def test_rejects_rate_overflowing_byte_rate_field(self):
        # The WAV header stores rate * bytes-per-sample in 32 bits.
        with pytest.raises(ValueError, match="byte-rate"):
            pcm_clip([], sample_rate=1 << 31)
        with pytest.raises(ValueError, match="byte-rate"):
            pcm_clip([], sample_rate=1 << 32, bit_depth=8)
        for rate, depth in (((1 << 31) - 1, 16), ((1 << 32) - 1, 8)):
            clip = pcm_clip([0], sample_rate=rate, bit_depth=depth)
            assert read_wav(write_wav(clip)) == clip

    def test_data_limit_is_largest_chunk_the_riff_size_holds(self):
        # write_wav stores 36 + data + pad byte in the 32-bit RIFF size field.
        def riff_size(n):
            return 36 + n + (n & 1)
        assert riff_size(audio.MAX_DATA_BYTES) <= 0xFFFFFFFF < riff_size(audio.MAX_DATA_BYTES + 1)

    def test_rejects_data_past_the_limit(self, monkeypatch):
        monkeypatch.setattr(audio, "MAX_DATA_BYTES", 4)
        assert AudioClip(sample_rate_hz=8000, bit_depth=8, data=bytes(4)).sample_count == 4
        with pytest.raises(ValueError, match="data chunk limit"):
            AudioClip(sample_rate_hz=8000, bit_depth=8, data=bytes(5))

    def test_samples_stored_as_tuple(self):
        # The clip keeps its samples as immutable little-endian data bytes,
        # which read back as the tuple of values it was built from.
        clip = pcm_clip([1, 2])
        assert clip.data == b"\x01\x00\x02\x00"
        assert samples(clip) == (1, 2)
        assert isinstance(samples(clip), tuple)
        assert clip.sample_count == 2

    def test_data_stored_as_bytes(self):
        clip = AudioClip(sample_rate_hz=8000, bit_depth=16, data=bytearray(b"\x01\x00\xff\xff"))
        assert type(clip.data) is bytes
        assert samples(clip) == (1, -1)
        assert clip.sample_count == 2
        hash(clip)

    def test_sample_list_refused_as_data(self):
        # bytes([1, 2]) would silently read two sample values as two bytes.
        with pytest.raises(TypeError):
            AudioClip(sample_rate_hz=8000, bit_depth=16, data=[1, 2])


class TestWavContainer:
    def test_empty_clip_writes_canonical_header(self):
        blob = write_wav(pcm_clip([]))
        assert len(blob) == 44
        assert blob[:4] == b"RIFF" and blob[8:12] == b"WAVE"
        assert struct.unpack_from("<I", blob, 4)[0] == 36

    def test_sixteen_bit_little_endian_twos_complement(self):
        blob = write_wav(pcm_clip([0, -1]))
        assert blob[-4:] == b"\x00\x00\xff\xff"

    def test_eight_bit_unsigned_offset(self):
        blob = write_wav(pcm_clip([-128, 0, 127], bit_depth=8))
        assert blob[44:47] == b"\x00\x80\xff"

    def test_odd_data_chunk_padded(self):
        blob = write_wav(pcm_clip([0], bit_depth=8))
        assert len(blob) % 2 == 0
        assert struct.unpack_from("<I", blob, 4)[0] == len(blob) - 8

    @given(clips())
    @settings(max_examples=60)
    def test_write_read_round_trip(self, clip):
        assert read_wav(write_wav(clip)) == clip

    @given(clips())
    @settings(max_examples=40)
    def test_reads_independently_built_containers(self, clip):
        blob = build_wav(samples(clip), clip.sample_rate_hz, clip.bit_depth)
        assert read_wav(blob) == clip

    def test_skips_unknown_chunks_with_pad_alignment(self):
        base = build_wav([7, -7])
        # Splice an odd-length junk chunk (plus pad byte) before fmt/data.
        junk = b"LIST" + struct.pack("<I", 3) + b"abc\x00"
        blob = base[:12] + junk + base[12:]
        blob = blob[:4] + struct.pack("<I", len(blob) - 8) + blob[8:]
        assert samples(read_wav(blob)) == (7, -7)

    @pytest.mark.parametrize(
        "mangle, exc",
        [
            (lambda b: b[:30], MalformedContainer),
            (lambda b: b"JUNK" + b[4:], MalformedContainer),
            (lambda b: b[:8] + b"EVAW" + b[12:], MalformedContainer),
            (lambda b: b[:4] + struct.pack("<I", 5) + b[8:], MalformedContainer),
            # cut after the fmt chunk header; the RIFF size check catches it first
            (lambda b: b[:20], MalformedContainer),
            # compression code 2 (ADPCM) is not linear PCM
            (lambda b: b[:20] + struct.pack("<H", 2) + b[22:], UnsupportedFormat),
            (lambda b: b[:22] + struct.pack("<H", 3) + b[24:], UnsupportedFormat),
            # 24-bit words
            (lambda b: b[:34] + struct.pack("<H", 24) + b[36:], UnsupportedFormat),
        ],
    )
    def test_rejects_damaged_containers(self, mangle, exc):
        blob = mangle(build_wav([1, 2, 3, 4]))
        with pytest.raises(exc):
            read_wav(blob)

    @pytest.mark.parametrize("container, fragment", [
        # the fmt chunk cut mid-header, then mid-body
        (riff(b"fmt \x10\x00"), "truncated chunk header"),
        (riff(b"fmt " + struct.pack("<I", 16) + FMT16[:10]), "chunk b'fmt ' overruns the container"),
        (riff(chunk(b"fmt ", FMT16), chunk(b"fmt ", FMT16), chunk(b"data", DATA4)),
         "duplicate fmt chunk"),
        (riff(chunk(b"fmt ", FMT16), chunk(b"data", DATA4), chunk(b"data", DATA4)),
         "duplicate data chunk"),
        (riff(chunk(b"data", DATA4)), "missing fmt chunk"),
        (riff(chunk(b"fmt ", FMT16)), "missing data chunk"),
        (riff(chunk(b"fmt ", FMT16[:14]), chunk(b"data", DATA4)), "fmt chunk of 14 bytes is too short"),
        (riff(chunk(b"fmt ", fmt16(rate=0, byte_rate=0)), chunk(b"data", DATA4)), "zero sample rate"),
        (riff(chunk(b"fmt ", fmt16(block_align=4)), chunk(b"data", DATA4)),
         "block align 4 inconsistent with 16-bit mono"),
        (riff(chunk(b"fmt ", fmt16(byte_rate=8000)), chunk(b"data", DATA4)),
         "byte rate 8000 inconsistent with 8000 Hz 16-bit mono"),
        (riff(chunk(b"fmt ", FMT16), chunk(b"data", DATA4[:3])),
         "data chunk of 3 bytes is not whole 16-bit samples"),
    ], ids=["truncated-header", "overrun", "duplicate-fmt", "duplicate-data", "missing-fmt",
            "missing-data", "short-fmt", "zero-rate", "block-align", "byte-rate", "partial-sample"])
    def test_each_chunk_check_names_its_fault(self, container, fragment):
        # The RIFF size matches in every case, so the check named is the one reached.
        with pytest.raises(MalformedContainer) as caught:
            read_wav(container)
        assert caught.type is MalformedContainer
        assert fragment in str(caught.value)

    def test_chunk_builder_makes_a_valid_container(self):
        assert samples(read_wav(riff(chunk(b"fmt ", FMT16), chunk(b"data", DATA4)))) == (1, 2)

    def test_missing_data_chunk(self):
        blob = build_wav([])
        blob = blob[:36]  # drop the (empty) data chunk entirely
        blob = blob[:4] + struct.pack("<I", len(blob) - 8) + blob[8:]
        with pytest.raises(MalformedContainer):
            read_wav(blob)

    def test_stereo_rejected(self):
        # The pipeline is mono end to end.
        blob = build_wav([1, 2, 3, 4], channels=2)
        with pytest.raises(UnsupportedFormat):
            read_wav(blob)


class TestCodecs:
    def test_stream_lengths(self):
        clip = make_clip(100)
        assert len(codec_encode(clip, CodecKind.PCM)) == 200
        assert len(codec_encode(clip, CodecKind.ULAW)) == 100
        assert len(codec_encode(clip, CodecKind.TOY_COMPRESSED)) == 25
        assert len(codec_encode(clip, CodecKind.TOY_COMPRESSED, decimation=7)) == 15

    def test_pcm_matches_container_data_chunk(self):
        clip = make_clip(50, seed=3)
        blob = write_wav(clip)
        size = struct.unpack_from("<I", blob, 40)[0]
        assert codec_encode(clip, CodecKind.PCM) == blob[44 : 44 + size]

    @given(clips())
    @settings(max_examples=50)
    def test_pcm_round_trip_lossless(self, clip):
        stream = codec_encode(clip, CodecKind.PCM)
        back = codec_decode(
            stream, CodecKind.PCM, clip.sample_rate_hz, bit_depth=clip.bit_depth
        )
        assert samples(back) == samples(clip)
        assert back.sample_rate_hz == clip.sample_rate_hz

    @given(clips(bit_depths=(16,)))
    @settings(max_examples=50)
    def test_ulaw_round_trip_within_quantizer_step(self, clip):
        stream = codec_encode(clip, CodecKind.ULAW)
        back = codec_decode(stream, CodecKind.ULAW, clip.sample_rate_hz)
        assert len(samples(back)) == len(samples(clip))
        for orig, got in zip(samples(clip), samples(back)):
            # Codec works on the 14-bit top of the 16-bit word, so the
            # reference bound scales by the 2-bit shift.
            assert abs(got - orig) <= ref_error_bound(orig >> 2) * 4 + 3

    def test_ulaw_stream_is_per_sample_companding(self):
        clip = pcm_clip([0, 4, -4, 32767])
        stream = codec_encode(clip, CodecKind.ULAW)
        assert list(stream) == [ulaw_encode_sample(s >> 2) for s in samples(clip)]

    @pytest.mark.parametrize("d", range(1, 6))
    def test_toy_keeps_every_dth_sample(self, d):
        # no D in 2..5 divides 41, so each stride ends on a partial step
        clip = make_clip(41, seed=9)
        stream = codec_encode(clip, CodecKind.TOY_COMPRESSED, decimation=d)
        assert list(stream) == [ulaw_encode_sample(s >> 2) for s in samples(clip)[::d]]

    def test_toy_decode_zero_order_hold(self):
        clip = pcm_clip([1000] * 8)
        stream = codec_encode(clip, CodecKind.TOY_COMPRESSED, decimation=4)
        back = codec_decode(stream, CodecKind.TOY_COMPRESSED, 8000, decimation=4)
        assert len(samples(back)) == 8
        assert len(set(samples(back))) == 1  # held value repeated

    def test_toy_constant_clip_frozen_value(self):
        clip = pcm_clip([1000] * 8)
        back = codec_decode(
            codec_encode(clip, CodecKind.TOY_COMPRESSED),
            CodecKind.TOY_COMPRESSED,
            8000,
        )
        assert samples(back)[0] == 988

    @pytest.mark.parametrize("kind", [CodecKind.ULAW, CodecKind.TOY_COMPRESSED])
    def test_companded_kinds_require_sixteen_bit(self, kind):
        clip = pcm_clip([0], bit_depth=8)
        with pytest.raises(UnsupportedCombination):
            codec_encode(clip, kind)
        # Decoding always reconstructs 16-bit; bit_depth only matters to PCM.
        assert codec_decode(b"\xff", kind, 8000, bit_depth=8).bit_depth == 16

    def test_pcm_decode_rejects_odd_length(self):
        with pytest.raises(LengthMismatch):
            codec_decode(b"\x00\x01\x02", CodecKind.PCM, 8000, bit_depth=16)

    @pytest.mark.parametrize(
        "kind, hold",
        [(CodecKind.ULAW, 1)] + [(CodecKind.TOY_COMPRESSED, d) for d in range(1, 6)],
    )
    def test_decode_matches_scalar_spec_on_every_octet(self, kind, hold):
        back = codec_decode(bytes(range(256)), kind, 8000, decimation=hold)
        expected = [ulaw_decode_sample(o) << 2 for o in range(256) for _ in range(hold)]
        assert samples(back) == tuple(expected)

    def test_ulaw_encode_matches_scalar_spec_on_every_sample(self):
        every = list(range(-32768, 32768))
        stream = codec_encode(pcm_clip(every), CodecKind.ULAW)
        assert list(stream) == [ulaw_encode_sample(s >> 2) for s in every]

    def test_toy_encode_matches_scalar_spec_on_every_sample(self):
        every = list(range(-32768, 32768))
        stream = codec_encode(pcm_clip(every), CodecKind.TOY_COMPRESSED, decimation=3)
        assert list(stream) == [ulaw_encode_sample(s >> 2) for s in every[::3]]

    def test_table_encode_matches_reference_oracle_on_every_sample(self):
        every = list(range(-32768, 32768))
        expected = bytes(ref_encode(s >> 2) for s in every)
        clip = pcm_clip(every)
        assert codec_encode(clip, CodecKind.ULAW) == expected
        assert codec_encode(clip, CodecKind.TOY_COMPRESSED, decimation=3) == expected[::3]

    def test_shuffled_samples_match_reference_oracle(self):
        # random neighbours: in the ascending scan above, a carry leaking out of
        # a sample's lane only ever lands on the sample one step up
        every = list(range(-32768, 32768))
        random.Random(2901).shuffle(every)
        assert_encodes_like_reference(every)

    @given(st.lists(st.one_of(st.sampled_from(EXTREMES), st.integers(-32768, 32767))))
    @example([s for pair in itertools.product(EXTREMES, repeat=2) for s in pair])
    def test_encode_matches_reference_oracle_on_any_neighbours(self, values):
        # the example puts every ordered pair of extremes side by side
        assert_encodes_like_reference(values)

    @pytest.mark.parametrize("kind", [CodecKind.ULAW, CodecKind.TOY_COMPRESSED])
    def test_sample_bytes_read_little_endian_on_any_host(self, kind):
        assert codec_encode(AudioClip(8000, 16, b"\x00\x80"), kind) == bytes([ref_encode(-32768 >> 2)])
        assert codec_encode(AudioClip(8000, 16, b"\x80\x00"), kind) == bytes([ref_encode(128 >> 2)])

    @pytest.mark.parametrize("kind", [CodecKind.ULAW, CodecKind.TOY_COMPRESSED])
    def test_empty_and_one_sample_clips(self, kind):
        assert codec_encode(pcm_clip([]), kind) == b""
        assert codec_encode(pcm_clip([-12345]), kind) == bytes([ulaw_encode_sample(-12345 >> 2)])

    def test_encode_table_not_built_at_import(self):
        probe = "import voicesms.cli, voicesms.audio as a; print(a._ulaw_encode_tables.cache_info())"
        env = {**os.environ, "PYTHONPATH": str(Path(audio.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        assert "currsize=0" in proc.stdout

    @pytest.mark.parametrize("first", [CodecKind.ULAW, CodecKind.TOY_COMPRESSED])
    def test_encode_table_built_once_on_first_companded_encode(self, first):
        table = audio._ulaw_encode_tables
        table.cache_clear()
        clip = make_clip(10)
        codec_encode(clip, CodecKind.PCM)
        assert table.cache_info().misses == 0
        codec_encode(clip, first)
        for kind in CodecKind:
            codec_encode(clip, kind)
        assert (table.cache_info().misses, table.cache_info().hits) == (1, 2)

    def test_ulaw_ignores_decimation(self):
        clip = make_clip(10)
        stream = codec_encode(clip, CodecKind.ULAW, decimation=0)
        assert stream == codec_encode(clip, CodecKind.ULAW)
        back = codec_decode(stream, CodecKind.ULAW, 8000, decimation=0)
        assert back == codec_decode(stream, CodecKind.ULAW, 8000)

    def test_decode_refuses_audio_past_the_limit_before_allocating(self, monkeypatch):
        monkeypatch.setattr(audio, "MAX_DATA_BYTES", 12)
        assert codec_decode(b"\xff" * 6, CodecKind.ULAW, 8000).sample_count == 6
        assert codec_decode(b"\xff" * 2, CodecKind.TOY_COMPRESSED, 8000, decimation=3).sample_count == 6
        def no_allocation(size):
            raise AssertionError(f"allocated {size} bytes")
        monkeypatch.setattr(audio, "bytearray", no_allocation, raising=False)
        for stream, kind, decimation in ((b"\xff" * 7, CodecKind.ULAW, 1),
                                         (b"\xff", CodecKind.TOY_COMPRESSED, 7)):
            with pytest.raises(ValueError, match="data chunk limit"):
                codec_decode(stream, kind, 8000, decimation=decimation)

    def test_unknown_codec_rejected(self):
        # the codec's value, not the enum member
        with pytest.raises(ValueError, match="unknown codec 'ulaw'"):
            codec_encode(make_clip(10), "ulaw")
        with pytest.raises(ValueError, match="unknown codec 'ulaw'"):
            codec_decode(b"\xff", "ulaw", 8000)

    def test_bad_decimation_rejected(self):
        clip = make_clip(10)
        with pytest.raises(ValueError):
            codec_encode(clip, CodecKind.TOY_COMPRESSED, decimation=0)

    def test_empty_toy_stream_decodes_at_once_at_any_decimation(self):
        # nothing to hold, so the time must not follow the decimation
        started = time.perf_counter()
        clip = codec_decode(b"", CodecKind.TOY_COMPRESSED, 8000, decimation=2_000_000_000)
        assert time.perf_counter() - started < 1
        assert clip == AudioClip(8000, 16, b"")
        with pytest.raises(ValueError, match="decimation must be >= 1, got 0"):
            codec_decode(b"", CodecKind.TOY_COMPRESSED, 8000, decimation=0)
