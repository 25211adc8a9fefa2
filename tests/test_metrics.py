import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import make_clip, pcm_clip
from voicesms import (
    CSV_HEADER,
    CodecKind,
    CostModel,
    SegmentationConfig,
    SegmentOverflow,
    compare,
    encode,
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
        assert report.decimation == 4

    def test_decimation_recorded_only_for_toy(self):
        assert encode(make_clip(10), CodecKind.PCM, CFG)[1].decimation is None
        assert encode(make_clip(10), CodecKind.ULAW, CFG)[1].decimation is None

    def test_config_echoed(self):
        cfg = SegmentationConfig(capacity=66, cost_model=CostModel.WIDE, group_size=5)
        report = encode(make_clip(40), CodecKind.ULAW, cfg)[1]
        assert (report.capacity, report.cost_model, report.group_size) == (66, CostModel.WIDE, 5)

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
            clip = pcm_clip(base.samples[:n], base.sample_rate_hz, base.bit_depth)
            r = encode(clip, CodecKind.PCM, CFG)[1]
            now = (r.char_count, r.message_count, r.connected_count)
            assert all(a <= b for a, b in zip(prev, now))
            prev = now

    def test_overflow_carries_char_count(self):
        clip = make_clip(80000, seed=1)  # 160,000 PCM chars > 157,000 cap
        with pytest.raises(SegmentOverflow) as info:
            encode(clip, CodecKind.PCM, CFG)
        assert info.value.char_count == 160000
        assert info.value.segments_packed == 1000


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
