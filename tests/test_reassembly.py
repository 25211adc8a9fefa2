import inspect

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import voicesms.errors
from support import ref_parse_segments_file
from voicesms import (
    BadIndex,
    DuplicateMismatch,
    InvalidCodePoint,
    MissingSegments,
    ReassemblyPolicy,
    ReassemblyReport,
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
    payload=st.binary(max_size=50),
)

# Points that corrupt a line: illegal ones, a surrogate, an astral point,
# U+0085 (legal, and a line break to str.splitlines) and a non-ASCII digit.
CORRUPTIONS = [chr(0), "\r", chr(31), chr(288), "\ud800", chr(0x10FFFF), "\u0085", "\u0663"]


@st.composite
def corrupted_files(draw):
    """A rendered segments file with some lines corrupted or cut short."""
    lines = draw(st.lists(
        st.tuples(st.integers(0, 999), st.binary(max_size=12)).map(
            lambda seg: f"{seg[0]:03d}" + "".join(chr(b + 256 if b < 32 else b) for b in seg[1])),
        max_size=8))
    for _ in range(draw(st.integers(0, 3)) if lines else 0):
        n = draw(st.integers(0, len(lines) - 1))
        line, pos = lines[n], draw(st.integers(0, 14))
        action = draw(st.sampled_from(["replace", "insert", "truncate"]))
        if action == "truncate":
            lines[n] = line[:pos % 3]
        else:
            pos %= len(line) + 1  # replacing at the end appends
            lines[n] = line[:pos] + draw(st.sampled_from(CORRUPTIONS)) + line[pos + (action == "replace"):]
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


ERROR_CLASSES = [cls for _, cls in inspect.getmembers(voicesms.errors, inspect.isclass)
                 if issubclass(cls, voicesms.errors.VoiceSmsError)]


class TestParseSegment:
    def test_basic(self):
        seg = parse_segment("000Hi")
        assert seg.index == 0
        assert seg.payload == b"Hi"

    def test_empty_payload(self):
        assert parse_segment("042") == Segment(42, b"")

    def test_shifted_point(self):
        assert parse_segment("007" + chr(256)).payload == b"\0"

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
        segs = [Segment(0, b"Hi"), Segment(1, b"\0 ")]
        assert parse_segments_file(render_segments_file(segs)) == segs

    def test_empty_text(self):
        assert parse_segments_file("") == []

    def test_missing_trailing_newline_tolerated(self):
        assert parse_segments_file("000A\n001B") == [
            Segment(0, b"A"),
            Segment(1, b"B"),
        ]

    def test_error_carries_line_number(self):
        with pytest.raises(BadIndex, match="line 2"):
            parse_segments_file("000A\nxyz!\n002C\n")
        with pytest.raises(BadIndex, match="line 3"):
            parse_segments_file("000A\n001B\n99\n")

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
    def test_every_error_rebuilds_with_a_prefix(self, cls):
        # parse_segments_file re-raises type(exc)(f"line N: {exc}"): the message is the whole error
        assert str(cls("line 3: x")) == "line 3: x"

    @given(corrupted_files())
    @example("000A\n001B" + "\ud800" + "\n99\n")  # a lone surrogate, then a short line
    @example("0\u0663" + "2" + chr(0) + "\n")  # a bad index and a bad point on one line
    @example("000" + chr(0x10FFFF) + "\n001\u0085\r")  # an astral point; U+0085 is a legal point
    # prefixes that the one conversion of whole lines reads before the indices are checked
    @example("000A\n00" + chr(256) + "B\n")  # a legal shifted point in a prefix
    @example("000A\n12\n002C\n")  # a short line
    @example("000A\n\n001B\n")  # an empty line
    @example("000A\n0\u06601B\n")  # a non-ASCII digit
    @settings(max_examples=300)
    def test_matches_reference_parser(self, text):
        def outcome(parse):
            try:
                return parse(text)
            except (BadIndex, InvalidCodePoint) as exc:
                return type(exc), str(exc)
        assert outcome(parse_segments_file) == outcome(ref_parse_segments_file)

    def test_preserves_arrival_order(self):
        segs = parse_segments_file("005E\n001B\n003D\n")
        assert [s.index for s in segs] == [5, 1, 3]


class TestReassemble:
    def test_complete_run_either_policy(self):
        segs = [Segment(1, b"B"), Segment(0, b"A"), Segment(2, b"C")]
        for policy in ReassemblyPolicy:
            stream, report = reassemble(segs, policy)
            assert stream == b"ABC"
            assert report.received_indices == (0, 1, 2)
            assert report.missing_indices == ()
            assert report.duplicate_count == 0

    def test_empty_input(self):
        stream, report = reassemble([], ReassemblyPolicy.STRICT)
        assert stream == b""
        assert report.received_indices == ()

    def test_loose_skips_gaps(self):
        segs = [Segment(0, b"AB"), Segment(2, b"EF")]
        stream, report = reassemble(segs, ReassemblyPolicy.LOOSE)
        assert stream == b"ABEF"
        assert report.missing_indices == (1,)

    def test_strict_raises_on_gap(self):
        segs = [Segment(0, b"A"), Segment(2, b"C")]
        with pytest.raises(MissingSegments) as info:
            reassemble(segs, ReassemblyPolicy.STRICT)
        assert str(info.value) == "missing segment indices: [1]"

    def test_strict_cannot_see_lost_tail(self):
        # Nothing marks segment 3 as ever having existed.
        stream, report = reassemble([Segment(0, b"A")], ReassemblyPolicy.STRICT)
        assert stream == b"A"
        assert report.missing_indices == ()

    def test_duplicates_counted_once(self):
        segs = [Segment(0, b"A"), Segment(0, b"A"), Segment(0, b"A")]
        stream, report = reassemble(segs, ReassemblyPolicy.LOOSE)
        assert stream == b"A"
        assert report.duplicate_count == 2

    def test_conflicting_duplicate_rejected(self):
        segs = [Segment(4, b"A"), Segment(4, b"B")]
        with pytest.raises(DuplicateMismatch) as info:
            reassemble(segs, ReassemblyPolicy.LOOSE)
        assert str(info.value) == "segments with index 4 carry different payloads"

    def test_missing_sorted_ascending(self):
        segs = [Segment(9, b"A"), Segment(3, b"B"), Segment(7, b"C")]
        _, report = reassemble(segs, ReassemblyPolicy.LOOSE)
        assert report.missing_indices == (0, 1, 2, 4, 5, 6, 8)

    def test_missing_derived_from_received(self):
        assert ReassemblyReport((0, 2, 5), 0).missing_indices == (1, 3, 4)
        assert ReassemblyReport((), 0).missing_indices == ()

    @given(
        st.binary(max_size=600),
        st.integers(min_value=1, max_value=50),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100)
    def test_strict_inverts_segmentation_under_any_arrival_order(
        self, data, capacity, rng
    ):
        segs = segment(data, SegmentationConfig(capacity=capacity))
        shuffled = list(segs)
        rng.shuffle(shuffled)
        rebuilt, report = reassemble(shuffled, ReassemblyPolicy.STRICT)
        assert rebuilt == data
        assert report.duplicate_count == 0

    @given(
        st.lists(segments_strategy, max_size=30),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100)
    def test_loose_is_arrival_order_invariant(self, segs, rng):
        # Make payloads a function of index so duplicates never conflict.
        segs = [Segment(s.index, bytes([s.index % 200 + 40])) for s in segs]
        shuffled = list(segs)
        rng.shuffle(shuffled)
        assert reassemble(shuffled, ReassemblyPolicy.LOOSE) == reassemble(
            segs, ReassemblyPolicy.LOOSE
        )
        # a one-shot iterator is read once; duplicates are arrivals minus distinct indices
        stream, report = reassemble(iter(shuffled), ReassemblyPolicy.LOOSE)
        assert (stream, report) == reassemble(segs, ReassemblyPolicy.LOOSE)
        assert report.duplicate_count == len(segs) - len({s.index for s in segs})
