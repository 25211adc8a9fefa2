import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import payload_text
from voicesms import (
    CapacityTooSmall,
    CostModel,
    Segment,
    SegmentationConfig,
    SegmentOverflow,
    join_lines,
    point_cost,
    render_segment,
    render_segments_file,
    segment,
    split_lines,
)


def ref_greedy(stream, capacity, model):
    """Reference segmenter: cut exactly when the next point would not fit.

    Returns None when some point alone costs more than the capacity.
    """
    chunks, current, used = [], [], 0
    for point in stream:
        cost = point_cost(point, model)
        if cost > capacity:
            return None
        if used + cost > capacity:
            chunks.append(current)
            current, used = [], 0
        current.append(point)
        used += cost
    if current:
        chunks.append(current)
    return chunks


class TestPointCost:
    def test_uniform_always_one(self):
        assert point_cost(chr(32), CostModel.UNIFORM) == 1
        assert point_cost(chr(287), CostModel.UNIFORM) == 1

    def test_wide_doubles_shifted_band(self):
        assert point_cost(chr(255), CostModel.WIDE) == 1
        assert point_cost(chr(256), CostModel.WIDE) == 2
        assert point_cost(chr(287), CostModel.WIDE) == 2


class TestSegmentation:
    def test_empty_stream(self):
        assert segment("", SegmentationConfig()) == []

    def test_exact_fit_single_segment(self):
        segs = segment("A" * 157, SegmentationConfig())
        assert len(segs) == 1
        assert segs[0].index == 0
        assert len(segs[0].payload) == 157

    def test_one_over_spills(self):
        segs = segment("A" * 158, SegmentationConfig())
        assert [len(s.payload) for s in segs] == [157, 1]
        assert [s.index for s in segs] == [0, 1]

    def test_custom_capacity(self):
        segs = segment(" !\"#$%&'()", SegmentationConfig(capacity=4))
        assert [s.payload for s in segs] == [
            " !\"#",
            "$%&'",
            "()",
        ]

    def test_wide_points_halve_uniform_fill(self):
        cfg = SegmentationConfig(capacity=10, cost_model=CostModel.WIDE)
        segs = segment(chr(256) * 12, cfg)
        assert [len(s.payload) for s in segs] == [5, 5, 2]

    def test_wide_never_splits_a_point(self):
        # Capacity 3 with alternating costs 1,2: greedy packs 1+2, then 2 alone
        # cannot pair with the next 1+2 -> packs 2+1, etc.
        cfg = SegmentationConfig(capacity=3, cost_model=CostModel.WIDE)
        segs = segment("A\u0100\u0101B\u0102", cfg)
        for seg in segs:
            assert sum(point_cost(p, CostModel.WIDE) for p in seg.payload) <= 3
        flat = "".join(s.payload for s in segs)
        assert flat == "A\u0100\u0101B\u0102"

    def test_indices_run_from_zero(self):
        segs = segment("A" * 500, SegmentationConfig(capacity=100))
        assert [s.index for s in segs] == [0, 1, 2, 3, 4]

    def test_overflow_past_thousand_segments(self):
        with pytest.raises(SegmentOverflow):
            segment("A" * 2001, SegmentationConfig(capacity=2))

    @pytest.mark.parametrize("stream, capacity, model, needed", [
        ("A" * 2001, 2, CostModel.UNIFORM, 1001),
        (chr(256) * 1001, 2, CostModel.WIDE, 1001),
        ("A\u0100" * 1500, 3, CostModel.WIDE, 1500),
    ], ids=["uniform", "wide", "wide-mixed"])
    def test_overflow_names_needed_count(self, stream, capacity, model, needed):
        cfg = SegmentationConfig(capacity=capacity, cost_model=model)
        with pytest.raises(SegmentOverflow) as info:
            segment(stream, cfg)
        assert str(info.value) == (
            f"stream of {len(stream)} points needs {needed} segments; the index space holds 1000")

    def test_exactly_thousand_segments_allowed(self):
        segs = segment("A" * 2000, SegmentationConfig(capacity=2))
        assert len(segs) == 1000
        assert segs[-1].index == 999

    def test_wide_point_larger_than_capacity(self):
        cfg = SegmentationConfig(capacity=1, cost_model=CostModel.WIDE)
        with pytest.raises(CapacityTooSmall):
            segment("A\u0100", cfg)

    def test_capacity_too_small_reported_before_overflow(self):
        cfg = SegmentationConfig(capacity=1, cost_model=CostModel.WIDE)
        with pytest.raises(CapacityTooSmall):
            segment("A" * 1001 + chr(256), cfg)

    @given(
        payload_text(),
        st.integers(min_value=1, max_value=40),
        st.sampled_from(list(CostModel)),
    )
    @settings(max_examples=150)
    def test_matches_reference_greedy(self, stream, capacity, model):
        cfg = SegmentationConfig(capacity=capacity, cost_model=model)
        expected = ref_greedy(stream, capacity, model)
        if expected is None:
            with pytest.raises(CapacityTooSmall):
                segment(stream, cfg)
            return
        segs = segment(stream, cfg)
        assert [list(s.payload) for s in segs] == expected
        assert [s.index for s in segs] == list(range(len(segs)))

    @given(payload_text(), st.integers(2, 40))
    @settings(max_examples=100)
    def test_greedy_segments_are_maximal(self, stream, capacity):
        cfg = SegmentationConfig(capacity=capacity, cost_model=CostModel.WIDE)
        segs = segment(stream, cfg)
        for here, after in zip(segs, segs[1:]):
            used = sum(point_cost(p, CostModel.WIDE) for p in here.payload)
            next_cost = point_cost(after.payload[0], CostModel.WIDE)
            assert used + next_cost > capacity


class TestRendering:
    def test_render_examples(self):
        assert render_segment(Segment(0, "Hi")) == "000Hi"
        assert render_segment(Segment(7, chr(256))) == "007" + chr(256)
        assert render_segment(Segment(999, " ")) == "999 "

    def test_render_file_line_per_segment(self):
        text = render_segments_file([Segment(0, "A"), Segment(1, "B")])
        assert text == "000A\n001B\n"

    def test_render_file_empty(self):
        assert render_segments_file([]) == ""

    def test_index_bounds_enforced(self):
        with pytest.raises(ValueError):
            Segment(-1, "A")
        with pytest.raises(ValueError):
            Segment(1000, "A")


class TestLineFraming:
    @pytest.mark.parametrize("text, lines", [
        ("", []),
        ("a", ["a"]),
        ("a\n", ["a"]),
        ("a\n\n", ["a", ""]),
        ("000A\u0085B\n001C", ["000A\u0085B", "001C"]),
    ])
    def test_split_examples(self, text, lines):
        assert split_lines(text) == lines

    def test_join_terminates_every_line(self):
        assert join_lines([]) == ""
        assert join_lines(["a", "", "b"]) == "a\n\nb\n"

    @given(st.lists(st.text().filter(lambda line: "\n" not in line), max_size=20))
    @settings(max_examples=200)
    def test_split_inverts_join(self, lines):
        assert split_lines(join_lines(lines)) == lines


class TestConfigValidation:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SegmentationConfig(capacity=0)

    def test_group_size_must_be_positive(self):
        with pytest.raises(ValueError):
            SegmentationConfig(group_size=0)
