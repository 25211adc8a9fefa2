import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import clips, make_clip, pcm_clip, samples
from voicesms import (
    CSV_HEADER,
    CodecKind,
    CostModel,
    MissingSegments,
    ReassemblyPolicy,
    SegmentationConfig,
    SegmentOverflow,
    TransmissionReport,
    UnsupportedCombination,
    VoiceSmsError,
    codec_decode,
    codec_encode,
    compare,
    decode,
    encode,
    reassemble,
    render_csv,
    render_table,
)

CFG = SegmentationConfig()


class TestAnalyze:
    def test_empty_clip(self):
        report = encode(make_clip(0), CodecKind.PCM, CFG)[1]
        assert (report.char_count, report.message_count, report.connected_count) == (0, 0, 0)

    def test_five_hundred_sample_pcm(self):
        report = encode(make_clip(500), CodecKind.PCM, CFG)[1]
        assert report.char_count == 1000
        assert report.message_count == 7
        assert report.connected_count == 3

    def test_five_hundred_sample_toy(self):
        report = encode(make_clip(500), CodecKind.TOY_COMPRESSED, CFG)[1]
        assert (report.char_count, report.message_count, report.connected_count) == (125, 1, 1)

    def test_config_echoed(self):
        cfg = SegmentationConfig(capacity=66, cost_model=CostModel.WIDE, group_size=5)
        report = encode(make_clip(40), CodecKind.ULAW, cfg)[1]
        assert report.config is cfg

    def test_connected_derived_from_config(self):
        report = TransmissionReport(CodecKind.ULAW, SegmentationConfig(group_size=4), 0, 9)
        assert report.connected_count == 3

    @given(st.integers(min_value=0, max_value=3000))
    @settings(max_examples=60)
    def test_counts_consistent(self, n):
        report = encode(make_clip(n, seed=n), CodecKind.ULAW, CFG)[1]
        assert report.char_count == n
        assert report.message_count == -(-report.char_count // CFG.capacity)
        assert report.connected_count == -(-report.message_count // CFG.group_size)

    def test_ulaw_is_half_of_pcm(self):
        for n in (1, 157, 500, 2000):
            pcm = encode(make_clip(n, seed=n), CodecKind.PCM, CFG)[1]
            ulaw = encode(make_clip(n, seed=n), CodecKind.ULAW, CFG)[1]
            assert pcm.char_count == 2 * ulaw.char_count

    def test_counts_monotone_in_clip_length(self):
        base = make_clip(1200, seed=2)
        prev = (0, 0, 0)
        for n in (0, 300, 600, 900, 1200):
            clip = pcm_clip(samples(base)[:n], base.sample_rate_hz, base.bit_depth)
            r = encode(clip, CodecKind.PCM, CFG)[1]
            now = (r.char_count, r.message_count, r.connected_count)
            assert all(a <= b for a, b in zip(prev, now))
            prev = now

    def test_overflow_carries_char_count(self):
        clip = make_clip(80000, seed=1)  # 160,000 PCM chars > 157,000 cap
        with pytest.raises(SegmentOverflow) as info:
            encode(clip, CodecKind.PCM, CFG)
        assert str(info.value) == (
            "stream of 160000 points needs 1020 segments; the index space holds 1000")


def connected(messages, cfg=CFG):
    return TransmissionReport(CodecKind.PCM, cfg, 0, messages).connected_count


class TestConnectedCount:
    @pytest.mark.parametrize(
        "messages, connected_groups",
        [(0, 0), (1, 1), (3, 1), (4, 2), (25, 9), (241, 81)],
    )
    def test_default_group_of_three(self, messages, connected_groups):
        assert connected(messages) == connected_groups

    def test_custom_group_size(self):
        assert connected(10, SegmentationConfig(group_size=5)) == 2
        assert connected(11, SegmentationConfig(group_size=5)) == 3

    @given(st.integers(0, 100000), st.integers(1, 50))
    def test_is_ceiling_division(self, n, g):
        assert connected(n, SegmentationConfig(group_size=g)) == -(-n // g)


def codec_and_clip():
    """A codec with a clip it accepts: companded codecs need 16-bit audio."""
    return st.sampled_from(list(CodecKind)).flatmap(lambda kind: st.tuples(
        st.just(kind), clips(bit_depths=(8, 16) if kind is CodecKind.PCM else (16,))))


class TestDecode:
    @given(codec_and_clip(), st.integers(min_value=2, max_value=157),
           st.sampled_from(list(CostModel)), st.integers(min_value=1, max_value=5))
    @settings(max_examples=80)
    def test_inverts_encode(self, kind_clip, capacity, cost, decimation):
        kind, clip = kind_clip
        segments = encode(clip, kind, SegmentationConfig(capacity, cost), decimation)[0]
        heard, report = decode(segments[::-1], kind, ReassemblyPolicy.STRICT,
                               clip.sample_rate_hz, clip.bit_depth, decimation)
        assert heard == codec_decode(codec_encode(clip, kind, decimation), kind,
                                     clip.sample_rate_hz, clip.bit_depth, decimation)
        if kind is CodecKind.PCM:
            assert heard == clip
        assert report.received_indices == tuple(range(len(segments)))
        assert report.missing_indices == ()

    def test_strict_refuses_a_gap(self):
        segments = encode(make_clip(500, seed=1), CodecKind.ULAW, CFG)[0]
        del segments[1]
        with pytest.raises(MissingSegments) as info:
            decode(segments, CodecKind.ULAW, ReassemblyPolicy.STRICT, 8000)
        assert str(info.value) == "missing segment indices: [1]"

    def test_loose_report_is_the_reassembly_report(self):
        segments = encode(make_clip(800, seed=2), CodecKind.ULAW, CFG)[0]
        arrived = [segments[4], segments[0], segments[2], segments[0]]
        heard, report = decode(arrived, CodecKind.ULAW, ReassemblyPolicy.LOOSE, 8000)
        assert report == reassemble(arrived, ReassemblyPolicy.LOOSE)[1]
        assert (report.missing_indices, report.duplicate_count) == ((1, 3), 1)
        assert heard.sample_count == 3 * CFG.capacity

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: loose skips each gap, so later samples move")
    @pytest.mark.parametrize("kind", [CodecKind.PCM, CodecKind.ULAW])
    def test_loose_keeps_samples_outside_gaps_aligned(self, kind):
        """Under loose, a gap either raises or leaves every other sample in place."""
        segments = encode(make_clip(8001, seed=5), kind, CFG)[0]
        whole = samples(decode(segments, kind, ReassemblyPolicy.LOOSE, 8000)[0])
        lost = [(i * CFG.capacity, (i + 1) * CFG.capacity) for i in (1, 5)]  # byte spans
        width = 2 if kind is CodecKind.PCM else 1  # codec bytes per sample
        try:
            heard = decode([s for s in segments if s.index not in (1, 5)], kind,
                           ReassemblyPolicy.LOOSE, 8000)[0]
        except VoiceSmsError:
            return
        got = samples(heard)
        kept = [i for i in range(len(whole))
                if not any(a < (i + 1) * width and i * width < b for a, b in lost)]
        assert len(got) == len(whole) and all(got[i] == whole[i] for i in kept)


class TestCompare:
    def test_one_row_per_codec_in_order(self):
        reports = compare(make_clip(100), [CodecKind.ULAW, CodecKind.PCM], CFG)
        assert [r.codec for r in reports] == [CodecKind.ULAW, CodecKind.PCM]

    def test_matches_individual_analyze(self):
        clip = make_clip(321, seed=4)
        [row] = compare(clip, [CodecKind.TOY_COMPRESSED], CFG)
        assert row == encode(clip, CodecKind.TOY_COMPRESSED, CFG)[1]

    def test_requires_a_codec(self):
        with pytest.raises(ValueError):
            compare(make_clip(5), [], CFG)

    @given(clips(bit_depths=(16,)), st.integers(1, 8))
    @settings(max_examples=100)
    def test_toy_is_every_dth_ulaw_byte(self, clip, decimation):
        assert (codec_encode(clip, CodecKind.TOY_COMPRESSED, decimation)
                == codec_encode(clip, CodecKind.ULAW)[::decimation])

    @pytest.mark.parametrize("decimation", [1, 3, 4])
    def test_equals_encode_in_any_order_with_repeats(self, decimation):
        clip = make_clip(1001, seed=6)
        cfg = SegmentationConfig(capacity=40, cost_model=CostModel.WIDE)
        for n in (1, 2, 3):
            for kinds in itertools.product(CodecKind, repeat=n):
                assert compare(clip, kinds, cfg, decimation) == [
                    encode(clip, kind, cfg, decimation)[1] for kind in kinds]

    def test_toy_after_ulaw_still_checks_decimation(self):
        with pytest.raises(ValueError) as info:
            compare(make_clip(50), [CodecKind.ULAW, CodecKind.TOY_COMPRESSED], CFG, 0)
        assert str(info.value) == "decimation must be >= 1, got 0"

    def test_first_error_names_the_first_codec(self):
        clip = make_clip(50, bit_depth=8)
        with pytest.raises(UnsupportedCombination) as info:
            compare(clip, [CodecKind.TOY_COMPRESSED, CodecKind.ULAW], CFG)
        assert str(info.value) == "toy requires a 16-bit clip, got 8-bit"


class TestRendering:
    def test_csv_shape(self):
        text = render_csv(compare(make_clip(500), list(CodecKind), CFG))
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert lines[1] == "pcm,1000,7,3,157,uniform,3"

    def test_csv_empty_reports(self):
        assert render_csv([]) == CSV_HEADER + "\n"

    def test_table_aligns_columns(self):
        text = render_table(compare(make_clip(500), list(CodecKind), CFG))
        lines = text.splitlines()
        assert lines[0].split() == CSV_HEADER.split(",")
        assert len(lines) == 4
        # Every row starts its second column at the same offset.
        offsets = {line.index(line.split()[1], len(line.split()[0])) for line in lines[1:]}
        assert len(offsets) == 1

    def test_table_handles_no_rows(self):
        text = render_table([])
        assert text.splitlines()[0].split() == CSV_HEADER.split(",")
