"""End-to-end acceptance gate.

Each test pins one contract-level behaviour of the pipeline -- exact
counts, error bounds, determinism, and runtime ceilings -- so `pytest -v`
prints one pass/fail line per criterion. Timing assertions take the best
of a few runs to damp scheduler jitter; the ceilings are generous for the
algorithms and only catch accidental complexity blowups.
"""

import random
import time

import pytest

from g711_ref import ref_error_bound
from support import make_clip, samples
from voicesms import (
    AudioClip,
    ChannelConfig,
    CodecKind,
    CostModel,
    ReassemblyPolicy,
    SegmentationConfig,
    SegmentOverflow,
    TransmissionReport,
    bytes_to_codepoints,
    codec_decode,
    codec_encode,
    codepoints_to_bytes,
    encode,
    parse_segments_file,
    reassemble,
    render_segments_file,
    segment,
    transmit,
    ulaw_decode_sample,
    ulaw_encode_sample,
)
from voicesms.cli import main

CONTROL_BYTES = bytes(range(32))


def best_time(fn, repeats=3):
    """Smallest wall-clock time of ``repeats`` runs of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_c01_payload_shift_bijection_under_1ms():
    every_byte = bytes(range(256))

    def round_trip():
        points = bytes_to_codepoints(every_byte)
        assert codepoints_to_bytes(points) == every_byte
        return points

    points = round_trip()
    assert len(set(points)) == 256
    assert min(points) == chr(32) and max(points) == chr(287)
    assert all(32 <= ord(p) <= 287 for p in points)
    assert not any(ord(p) < 32 for p in points)
    assert points[:32] == "".join(map(chr, range(256, 288)))
    assert points[32:] == "".join(map(chr, range(32, 256)))

    elapsed = best_time(round_trip, repeats=5)
    assert elapsed < 0.001, f"256-value round trip took {elapsed * 1e3:.3f} ms"


def test_c02_connected_message_counts():
    expected = {25: 9, 23: 8, 3: 1, 85: 29, 71: 24, 16: 6, 241: 81}
    for messages, connected in expected.items():
        report = TransmissionReport(CodecKind.PCM, SegmentationConfig(group_size=3), 0, messages)
        assert report.connected_count == connected, (
            f"{messages} messages -> expected {connected} connected"
        )


def test_c03_ten_second_pcm_round_trip_under_1s():
    clip = make_clip(80_000, seed=33)  # 10 s at 8 kHz, 16-bit
    assert clip.sample_count / clip.sample_rate_hz == 10.0
    # 160,000 PCM bytes at the default capacity would need 1020 indices,
    # so use capacity 160: exactly 1000 segments, still one SMS each.
    cfg = SegmentationConfig(capacity=160)

    def round_trip():
        data = codec_encode(clip, CodecKind.PCM)
        segments = segment(data, cfg)
        text = render_segments_file(segments)
        stream, report = reassemble(
            parse_segments_file(text), ReassemblyPolicy.STRICT
        )
        back = codec_decode(stream, CodecKind.PCM, clip.sample_rate_hz)
        assert report.missing_indices == ()
        assert len(segments) == 1000
        return back

    back = round_trip()
    assert samples(back) == samples(clip)  # bit-exact audio
    elapsed = best_time(round_trip, repeats=2)
    assert elapsed < 1.0, f"10 s clip round trip took {elapsed:.3f} s"


def test_c04_segmentation_round_trip_fuzz_under_10s():
    rng = random.Random(4040)
    lengths = [0, 1, 50_000, 50_000]
    lengths += [rng.randint(0, 4_000) for _ in range(800)]
    lengths += [rng.randint(0, 50_000) for _ in range(196)]

    start = time.perf_counter()
    for trial, n in enumerate(lengths):
        model = CostModel.UNIFORM if trial % 2 == 0 else CostModel.WIDE
        raw = rng.randbytes(n)
        if model is CostModel.WIDE:
            wide = n - len(raw.translate(None, CONTROL_BYTES))
            total_cost = n + wide
            floor = 2 if wide else 1
        else:
            total_cost = n
            floor = 1
        # Smallest capacity that both fits every point and stays inside
        # the 1000-segment index space.
        c_min = max(floor, -(-total_cost // 1000))
        capacity = rng.randint(c_min, 500)
        cfg = SegmentationConfig(capacity=capacity, cost_model=model)

        segments = segment(raw, cfg)
        assert all(
            sum(2 if model is CostModel.WIDE and b < 32 else 1 for b in seg.payload) <= capacity
            for seg in segments
        )
        shuffled = list(segments)
        rng.shuffle(shuffled)
        rebuilt, report = reassemble(shuffled, ReassemblyPolicy.STRICT)
        assert rebuilt == raw
        assert report.missing_indices == ()
        assert report.duplicate_count == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"1000 fuzz trials took {elapsed:.3f} s"


def test_c05_loose_reassembly_matches_oracle_under_10s():
    grid = [
        (loss, dup, delay)
        for loss in (0.0, 0.1, 0.5)
        for dup in (0.0, 0.1)
        for delay in (0, 10)
    ]
    rng = random.Random(5050)

    start = time.perf_counter()
    for trial in range(1000):
        loss, dup, delay = grid[trial % len(grid)]
        raw = rng.randbytes(rng.randint(0, 400))
        cfg = SegmentationConfig(capacity=rng.randint(10, 50))
        rendered = [s for s in render_segments_file(segment(raw, cfg)).split("\n") if s]
        delivered, _ = transmit(
            rendered, ChannelConfig(loss, dup, delay, seed=trial)
        )

        # Oracle: first arrival per index, indices ascending, payloads glued,
        # each point back to its byte (256..287 carry 0..31).
        first: dict[int, str] = {}
        for text in delivered:
            first.setdefault(int(text[:3]), text[3:])
        received = sorted(first)
        oracle_stream = bytes(ord(p) % 256 for i in received for p in first[i])
        oracle_missing = [i for i in range(received[-1] if received else 0) if i not in first]
        oracle_duplicates = len(delivered) - len(first)

        stream, report = reassemble(
            parse_segments_file("".join(t + "\n" for t in delivered)),
            ReassemblyPolicy.LOOSE,
        )
        assert stream == oracle_stream
        assert list(report.received_indices) == received
        assert list(report.missing_indices) == oracle_missing
        assert report.duplicate_count == oracle_duplicates
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"1000 oracle trials took {elapsed:.3f} s"


def test_c06_ulaw_exhaustive_scan_under_100ms():
    def scan():
        octets = [ulaw_encode_sample(x) for x in range(-8192, 8192)]
        decode_of = [ulaw_decode_sample(o) for o in range(256)]
        reencode_of = [ulaw_encode_sample(v) for v in decode_of]
        assert all(reencode_of[o] == o for o in set(octets))  # idempotence
        bounds = [ref_error_bound(x) for x in range(-8192, 8192)]
        assert all(
            abs(decode_of[o] - min(8158, max(-8158, x))) < b
            for x, o, b in zip(range(-8192, 8192), octets, bounds)
        )

    scan()
    elapsed = best_time(scan, repeats=3)
    assert elapsed < 0.1, f"16384-input scan took {elapsed * 1e3:.1f} ms"


def test_c07_codec_ordering_for_second_long_clips():
    cfg = SegmentationConfig()
    for n in (8_000, 12_345, 20_000, 80_000):
        clip = make_clip(n, seed=n)
        assert clip.sample_count / clip.sample_rate_hz >= 1.0
        pcm = encode(clip, CodecKind.PCM, SegmentationConfig(capacity=160))[1]
        ulaw = encode(clip, CodecKind.ULAW, SegmentationConfig(capacity=160))[1]
        toy = encode(clip, CodecKind.TOY_COMPRESSED, SegmentationConfig(capacity=160),
                     decimation=4)[1]
        assert toy.message_count < ulaw.message_count < pcm.message_count
        assert ulaw.char_count * 2 == pcm.char_count
    # The same ordering holds at the default capacity for clips that fit.
    clip = make_clip(8_000, seed=7)
    counts = [
        encode(clip, kind, cfg, decimation=4)[1].message_count
        for kind in (CodecKind.TOY_COMPRESSED, CodecKind.ULAW, CodecKind.PCM)
    ]
    assert counts[0] < counts[1] < counts[2]


def test_c08_index_space_boundary():
    cfg = SegmentationConfig()  # capacity 157
    with pytest.raises(SegmentOverflow):
        segment(b"A" * 157_001, cfg)
    segments = segment(b"A" * 157_000, cfg)
    assert len(segments) == 1000
    assert segments[-1].index == 999
    assert sum(len(s.payload) for s in segments) == 157_000


def test_c09_simulate_determinism_and_loss_rate_under_5s(tmp_path, capsys):
    messages = "".join(f"{i:05d}message\n" for i in range(10_000))
    src = tmp_path / "input.txt"
    src.write_bytes(messages.encode("utf-8"))

    start = time.perf_counter()
    outputs = []
    delivered_counts = []
    for run in ("first", "second"):
        out = tmp_path / f"{run}.txt"
        log = tmp_path / f"{run}.log"
        code = main([
            "simulate", "--in", str(src), "--out", str(out),
            "--log", str(log), "--loss", "0.5", "--seed", "42",
        ])
        assert code == 0
        summary = capsys.readouterr().out.strip()
        fields = dict(kv.split("=") for kv in summary.split())
        delivered_counts.append(int(fields["delivered"]))
        outputs.append((out.read_bytes(), log.read_bytes()))
    elapsed = time.perf_counter() - start

    assert outputs[0] == outputs[1]  # byte-identical files and logs
    assert delivered_counts[0] == delivered_counts[1]
    assert 4850 <= delivered_counts[0] <= 5150, (
        f"{delivered_counts[0]} of 10000 delivered at 50% loss"
    )
    assert elapsed < 5.0, f"two 10k-message simulations took {elapsed:.3f} s"


def test_c10_rendered_text_is_control_free_and_file_round_trips():
    rng = random.Random(1010)
    kinds = list(CodecKind)
    for trial in range(100):
        n = rng.randint(0, 1_500)
        kind = kinds[trial % 3]
        clip = make_clip(n, seed=trial)
        cfg = SegmentationConfig(
            capacity=rng.randint(20, 200),
            cost_model=rng.choice(list(CostModel)),
        )
        data = codec_encode(clip, kind)
        segments = segment(data, cfg)
        text = render_segments_file(segments)

        for line in text.split("\n"):
            assert not any(ord(ch) < 32 for ch in line)

        parsed = parse_segments_file(text)
        assert parsed == segments
        stream, _ = reassemble(parsed, ReassemblyPolicy.STRICT)
        assert stream == data
