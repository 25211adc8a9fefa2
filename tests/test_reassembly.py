import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import payload_text
from voicesms import (
    BadIndex,
    DuplicateMismatch,
    InvalidCodePoint,
    MissingSegments,
    ReassemblyPolicy,
    Segment,
    SegmentationConfig,
    parse_segment,
    parse_segments_file,
    reassemble,
    render_segment,
    render_segments_file,
    segment,
)

segments_strategy = st.builds(
    Segment,
    index=st.integers(min_value=0, max_value=999),
    payload=payload_text(max_size=50),
)


class TestParseSegment:
    def test_basic(self):
        seg = parse_segment("000Hi")
        assert seg.index == 0
        assert seg.payload == "Hi"

    def test_empty_payload(self):
        assert parse_segment("042") == Segment(42, "")

    def test_shifted_point(self):
        assert parse_segment("007" + chr(256)).payload == chr(256)

    @pytest.mark.parametrize("text", ["", "0", "99"])
    def test_too_short(self, text):
        with pytest.raises(BadIndex):
            parse_segment(text)

    @pytest.mark.parametrize("text", ["0x2abc", "-12ab", " 01ab", "1.5ab"])
    def test_bad_index(self, text):
        with pytest.raises(BadIndex):
            parse_segment(text)

    def test_unicode_digits_rejected(self):
        # Arabic-Indic digits satisfy str.isdigit but are not wire format.
        with pytest.raises(BadIndex):
            parse_segment("٠١٢abc")

    @pytest.mark.parametrize("ch", [chr(0), chr(10), chr(31), chr(288), chr(1000)])
    def test_illegal_payload_point(self, ch):
        with pytest.raises(InvalidCodePoint):
            parse_segment("000A" + ch)

    @given(segments_strategy)
    @settings(max_examples=100)
    def test_inverse_of_render(self, seg):
        assert parse_segment(render_segment(seg)) == seg


class TestParseSegmentsFile:
    def test_round_trip(self):
        segs = [Segment(0, "Hi"), Segment(1, chr(256) + " ")]
        assert parse_segments_file(render_segments_file(segs)) == segs

    def test_empty_text(self):
        assert parse_segments_file("") == []

    def test_missing_trailing_newline_tolerated(self):
        assert parse_segments_file("000A\n001B") == [
            Segment(0, "A"),
            Segment(1, "B"),
        ]

    def test_error_carries_line_number(self):
        with pytest.raises(BadIndex, match="line 2"):
            parse_segments_file("000A\nxyz!\n002C\n")
        with pytest.raises(BadIndex, match="line 3"):
            parse_segments_file("000A\n001B\n99\n")

    def test_preserves_arrival_order(self):
        segs = parse_segments_file("005E\n001B\n003D\n")
        assert [s.index for s in segs] == [5, 1, 3]


class TestReassemble:
    def test_complete_run_either_policy(self):
        segs = [Segment(1, "B"), Segment(0, "A"), Segment(2, "C")]
        for policy in ReassemblyPolicy:
            stream, report = reassemble(segs, policy)
            assert stream == "ABC"
            assert report.received_indices == (0, 1, 2)
            assert report.missing_indices == ()
            assert report.duplicate_count == 0

    def test_empty_input(self):
        stream, report = reassemble([], ReassemblyPolicy.STRICT)
        assert stream == ""
        assert report.received_indices == ()

    def test_loose_skips_gaps(self):
        segs = [Segment(0, "AB"), Segment(2, "EF")]
        stream, report = reassemble(segs, ReassemblyPolicy.LOOSE)
        assert stream == "ABEF"
        assert report.missing_indices == (1,)

    def test_strict_raises_on_gap(self):
        segs = [Segment(0, "A"), Segment(2, "C")]
        with pytest.raises(MissingSegments) as info:
            reassemble(segs, ReassemblyPolicy.STRICT)
        assert info.value.missing == (1,)

    def test_strict_cannot_see_lost_tail(self):
        # Nothing marks segment 3 as ever having existed.
        stream, report = reassemble([Segment(0, "A")], ReassemblyPolicy.STRICT)
        assert stream == "A"
        assert report.missing_indices == ()

    def test_duplicates_counted_once(self):
        segs = [Segment(0, "A"), Segment(0, "A"), Segment(0, "A")]
        stream, report = reassemble(segs, ReassemblyPolicy.LOOSE)
        assert stream == "A"
        assert report.duplicate_count == 2

    def test_conflicting_duplicate_rejected(self):
        segs = [Segment(4, "A"), Segment(4, "B")]
        with pytest.raises(DuplicateMismatch) as info:
            reassemble(segs, ReassemblyPolicy.LOOSE)
        assert info.value.index == 4

    def test_missing_sorted_ascending(self):
        segs = [Segment(9, "A"), Segment(3, "B"), Segment(7, "C")]
        _, report = reassemble(segs, ReassemblyPolicy.LOOSE)
        assert report.missing_indices == (0, 1, 2, 4, 5, 6, 8)

    @given(
        payload_text(max_size=600),
        st.integers(min_value=1, max_value=50),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100)
    def test_strict_inverts_segmentation_under_any_arrival_order(
        self, stream, capacity, rng
    ):
        segs = segment(stream, SegmentationConfig(capacity=capacity))
        shuffled = list(segs)
        rng.shuffle(shuffled)
        rebuilt, report = reassemble(shuffled, ReassemblyPolicy.STRICT)
        assert rebuilt == stream
        assert report.duplicate_count == 0

    @given(
        st.lists(segments_strategy, max_size=30),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100)
    def test_loose_is_arrival_order_invariant(self, segs, rng):
        # Make payloads a function of index so duplicates never conflict.
        segs = [Segment(s.index, chr(s.index % 200 + 40)) for s in segs]
        shuffled = list(segs)
        rng.shuffle(shuffled)
        assert reassemble(shuffled, ReassemblyPolicy.LOOSE) == reassemble(
            segs, ReassemblyPolicy.LOOSE
        )
