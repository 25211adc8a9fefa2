import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voicesms import (
    AudioClip,
    CapacityTooSmall,
    CodecKind,
    CostModel,
    Segment,
    SegmentationConfig,
    SegmentOverflow,
    bytes_to_codepoints,
    compare,
    join_lines,
    point_cost,
    render_segment,
    render_segments_file,
    segment,
    split_lines,
)


def ref_greedy(stream, capacity, model):
    """Reference segmenter: cut exactly when the next point would not fit.

    It writes out the WIDE rule rather than call ``point_cost``, from which
    ``segment``'s table is built. Returns None when some point alone costs
    more than the capacity.
    """
    chunks, current, used = [], [], 0
    for point in stream:
        cost = 2 if model is CostModel.WIDE and ord(point) >= 256 else 1
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


def assert_packs_like_reference(data, capacity, model):
    """``segment`` cuts where ``ref_greedy`` does, or raises the error its chunks imply."""
    cfg = SegmentationConfig(capacity=capacity, cost_model=model)
    expected = ref_greedy(bytes_to_codepoints(data), capacity, model)
    if expected is None:
        with pytest.raises(CapacityTooSmall):
            segment(data, cfg)
    elif len(expected) > 1000:
        with pytest.raises(SegmentOverflow, match=f" needs {len(expected)} segments;"):
            segment(data, cfg)
    else:
        segs = segment(data, cfg)
        assert [list(bytes_to_codepoints(s.payload)) for s in segs] == expected
        assert [s.index for s in segs] == list(range(len(segs)))
        return segs


def counted(data, cfg):
    """``compare``'s message count for ``data``, carried as an 8-bit pcm clip's bytes."""
    return compare(AudioClip(8000, 8, data), [CodecKind.PCM], cfg)[0].message_count


def outcome(run):
    """What ``run()`` returns, or the class and message of the error it raises."""
    try:
        return run()
    except (CapacityTooSmall, SegmentOverflow) as exc:
        return type(exc), str(exc)


class TestPointCost:
    def test_uniform_always_one(self):
        assert point_cost(chr(32), CostModel.UNIFORM) == 1
        assert point_cost(chr(287), CostModel.UNIFORM) == 1

    def test_wide_doubles_shifted_band(self):
        assert point_cost(chr(255), CostModel.WIDE) == 1
        assert point_cost(chr(256), CostModel.WIDE) == 2
        assert point_cost(chr(287), CostModel.WIDE) == 2

    def test_segment_charges_each_byte_its_point_cost(self):
        # two copies of a byte fill capacity 2 exactly when its point costs 1
        for b in range(256):
            cost = point_cost(bytes_to_codepoints(bytes([b])), CostModel.WIDE)
            assert len(segment(bytes([b]) * 2, SegmentationConfig(2, CostModel.WIDE))) == cost
            assert len(segment(bytes([b]) * 2, SegmentationConfig(2))) == 1


class TestSegmentation:
    def test_empty_stream(self):
        assert segment(b"", SegmentationConfig()) == []

    def test_exact_fit_single_segment(self):
        segs = segment(b"A" * 157, SegmentationConfig())
        assert len(segs) == 1
        assert segs[0].index == 0
        assert len(segs[0].payload) == 157

    def test_one_over_spills(self):
        segs = segment(b"A" * 158, SegmentationConfig())
        assert [len(s.payload) for s in segs] == [157, 1]
        assert [s.index for s in segs] == [0, 1]

    def test_custom_capacity(self):
        segs = segment(b" !\"#$%&'()", SegmentationConfig(capacity=4))
        assert [s.payload for s in segs] == [
            b" !\"#",
            b"$%&'",
            b"()",
        ]

    def test_wide_points_halve_uniform_fill(self):
        cfg = SegmentationConfig(capacity=10, cost_model=CostModel.WIDE)
        segs = segment(b"\0" * 12, cfg)
        assert [len(s.payload) for s in segs] == [5, 5, 2]

    def test_wide_never_splits_a_point(self):
        # Capacity 3 with alternating costs 1,2: greedy packs 1+2, then 2 alone
        # cannot pair with the next 1+2 -> packs 2+1, etc.
        cfg = SegmentationConfig(capacity=3, cost_model=CostModel.WIDE)
        segs = segment(b"A\0\1B\2", cfg)
        for seg in segs:
            assert sum(point_cost(p, CostModel.WIDE) for p in bytes_to_codepoints(seg.payload)) <= 3
        flat = b"".join(s.payload for s in segs)
        assert flat == b"A\0\1B\2"
        assert bytes_to_codepoints(flat) == "A\u0100\u0101B\u0102"

    def test_indices_run_from_zero(self):
        segs = segment(b"A" * 500, SegmentationConfig(capacity=100))
        assert [s.index for s in segs] == [0, 1, 2, 3, 4]

    def test_overflow_past_thousand_segments(self):
        with pytest.raises(SegmentOverflow):
            segment(b"A" * 2001, SegmentationConfig(capacity=2))

    @pytest.mark.parametrize("data, capacity, model, needed", [
        (b"A" * 2001, 2, CostModel.UNIFORM, 1001),
        (b"\0" * 1001, 2, CostModel.WIDE, 1001),
        (b"A\0" * 1500, 3, CostModel.WIDE, 1500),
        (b"\0" * 78001, 157, CostModel.WIDE, 1001),  # 78 points per segment
        (b"A" * 20000, 2, CostModel.UNIFORM, 10000),  # ten times the index space
    ], ids=["uniform", "wide", "wide-mixed", "wide-default-capacity", "uniform-tenfold"])
    def test_overflow_names_needed_count(self, data, capacity, model, needed):
        cfg = SegmentationConfig(capacity=capacity, cost_model=model)
        with pytest.raises(SegmentOverflow) as info:
            segment(data, cfg)
        assert str(info.value) == (
            f"stream of {len(data)} points needs {needed} segments; the index space holds 1000")

    def test_exactly_thousand_segments_allowed(self):
        segs = segment(b"A" * 2000, SegmentationConfig(capacity=2))
        assert len(segs) == 1000
        assert segs[-1].index == 999

    def test_wide_point_larger_than_capacity(self):
        cfg = SegmentationConfig(capacity=1, cost_model=CostModel.WIDE)
        with pytest.raises(CapacityTooSmall):
            segment(b"A\0", cfg)

    def test_capacity_too_small_reported_before_overflow(self):
        cfg = SegmentationConfig(capacity=1, cost_model=CostModel.WIDE)
        with pytest.raises(CapacityTooSmall):
            segment(b"A" * 1001 + b"\0", cfg)

    @given(
        st.binary(max_size=400),
        st.integers(min_value=1, max_value=40),
        st.sampled_from(list(CostModel)),
    )
    @settings(max_examples=150)
    def test_matches_reference_greedy(self, data, capacity, model):
        assert_packs_like_reference(data, capacity, model)

    @given(
        st.sampled_from([0.0, 0.05, 0.38, 0.9, 1.0]),  # 0.38: speech pcm
        st.integers(0, 2000),
        st.integers(1, 200) | st.sampled_from([157, 160]),
        st.sampled_from(list(CostModel)),
        st.integers(0, 2 ** 32),
    )
    @settings(max_examples=200)
    def test_matches_reference_greedy_at_shifted_density(self, share, length, capacity, model, seed):
        rng = random.Random(seed)  # share: of bytes below 32, whose points are shifted
        data = bytes(rng.randrange(32) if rng.random() < share else rng.randrange(32, 256)
                     for _ in range(length))
        assert_packs_like_reference(data, capacity, model)

    @given(
        st.lists(st.tuples(st.integers(0, 31) | st.integers(32, 255), st.integers(1, 400)),
                 max_size=30),
        st.integers(1, 200) | st.sampled_from([157, 160]),
        st.sampled_from(list(CostModel)),
    )
    @example([(0, 196), (32, 77)], 157, CostModel.WIDE)  # ends forward with slack 1
    @example([(0, 34), (32, 181), (0, 33)], 157, CostModel.WIDE)  # odd slack, then shifted
    @settings(max_examples=300)
    def test_matches_reference_greedy_on_runs(self, runs, capacity, model):
        """Runs of shifted and unshifted bytes make a cut that starts at the
        last segment's length both overshoot and undershoot."""
        data = b"".join(bytes([value]) * length for value, length in runs)
        assert_packs_like_reference(data, capacity, model)
        cfg = SegmentationConfig(capacity=capacity, cost_model=model)
        assert outcome(lambda: counted(data, cfg)) == outcome(lambda: len(segment(data, cfg)))

    @pytest.mark.parametrize("data, capacity, message", [
        (b"A\0", 1, "point 256 costs 2 under wide; capacity 1 cannot hold it"),
        (b"A" * 1001 + b"\x1f", 1, "point 287 costs 2 under wide; capacity 1 cannot hold it"),
        ((b"\0" * 100 + b"A" * 100) * 540, 157,
         "stream of 108000 points needs 1035 segments; the index space holds 1000"),
    ], ids=["too-small", "too-small-before-overflow", "overflow"])
    def test_count_and_segments_raise_alike(self, data, capacity, message):
        cfg = SegmentationConfig(capacity=capacity, cost_model=CostModel.WIDE)
        for run in (lambda: counted(data, cfg), lambda: segment(data, cfg)):
            with pytest.raises((CapacityTooSmall, SegmentOverflow)) as info:
                run()
            assert str(info.value) == message

    @pytest.mark.parametrize("data, sizes", [
        (b"\0" * 1000, [78] * 12 + [64]),
        ((b"\0" * 100 + b"A" * 100) * 4, [78, 128] * 3 + [78, 104]),
    ], ids=["all-shifted", "runs-of-100"])
    def test_wide_cut_backs_at_odd_capacity(self, data, sizes):
        segs = assert_packs_like_reference(data, 157, CostModel.WIDE)
        assert [len(s.payload) for s in segs] == sizes

    @given(st.binary(max_size=400), st.integers(2, 40))
    @settings(max_examples=100)
    def test_greedy_segments_are_maximal(self, data, capacity):
        cfg = SegmentationConfig(capacity=capacity, cost_model=CostModel.WIDE)
        segs = segment(data, cfg)
        for here, after in zip(segs, segs[1:]):
            used = sum(point_cost(p, CostModel.WIDE) for p in bytes_to_codepoints(here.payload))
            next_cost = point_cost(bytes_to_codepoints(after.payload)[0], CostModel.WIDE)
            assert used + next_cost > capacity


class TestRendering:
    def test_render_examples(self):
        assert render_segment(Segment(0, b"Hi")) == "000Hi"
        assert render_segment(Segment(7, b"\0")) == "007" + chr(256)
        assert render_segment(Segment(999, b" ")) == "999 "
        assert render_segment(Segment(12, bytes(range(256)))) == "012" + "".join(
            map(chr, [*range(256, 288), *range(32, 256)]))

    def test_render_file_line_per_segment(self):
        text = render_segments_file([Segment(0, b"A"), Segment(1, b"B")])
        assert text == "000A\n001B\n"

    def test_render_file_empty(self):
        assert render_segments_file([]) == ""

    def test_index_bounds_enforced(self):
        with pytest.raises(ValueError):
            Segment(-1, b"A")
        with pytest.raises(ValueError):
            Segment(1000, b"A")


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
