import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicesms import (
    BadIndex,
    CodecKind,
    CodecSpec,
    InvalidCodePoint,
    ReassemblyPolicy,
    Segment,
    SegmentationConfig,
    bytes_to_codepoints,
    codepoints_to_bytes,
    decode,
    parse_segment,
    parse_segments_file,
    segment,
)


def chars(points):
    return "".join(map(chr, points))


def test_control_bytes_shift_into_high_band():
    points = bytes_to_codepoints(bytes(range(32)))
    assert points == chars(range(256, 288))


def test_printable_bytes_pass_through():
    points = bytes_to_codepoints(bytes(range(32, 256)))
    assert points == chars(range(32, 256))


def test_mapping_is_a_bijection_on_all_byte_values():
    points = bytes_to_codepoints(bytes(range(256)))
    assert len(set(points)) == 256
    assert all(32 <= ord(p) <= 287 for p in points)
    # No point lands in the hole the shift vacates or in the control range.
    assert not any(ord(p) < 32 for p in points)
    assert codepoints_to_bytes(points) == bytes(range(256))


@pytest.mark.parametrize(
    "byte, point", [(0, 256), (10, 266), (31, 287), (32, 32), (255, 255)]
)
def test_spot_values(byte, point):
    assert bytes_to_codepoints(bytes([byte])) == chr(point)
    assert codepoints_to_bytes(chr(point)) == bytes([byte])


def test_empty_round_trip():
    assert bytes_to_codepoints(b"") == ""
    assert codepoints_to_bytes("") == b""


@given(st.binary(max_size=2000))
@settings(max_examples=100)
def test_round_trip_property(data):
    points = bytes_to_codepoints(data)
    assert len(points) == len(data)
    assert codepoints_to_bytes(points) == data


def test_rendered_text_never_contains_control_characters():
    text = bytes_to_codepoints(bytes(range(256)))
    assert not any(ord(ch) < 32 for ch in text)


@pytest.mark.parametrize("bad", [0, 31, 288, 300, -1, 0x110000])
def test_decoder_rejects_points_outside_band(bad):
    if not 0 <= bad <= 0x10FFFF:
        # Not a Unicode code point at all, so no payload text can hold it.
        with pytest.raises(ValueError):
            chr(bad)
        return
    with pytest.raises(InvalidCodePoint, match=f"code point {bad} "):
        codepoints_to_bytes("A" + chr(bad) + "B")


@pytest.mark.parametrize("bad", [chr(0), chr(10), chr(31), chr(288), "\ud800", chr(0x10FFFF)])
def test_every_stage_rejects_an_illegal_point(bad):
    text = "A" + bad + "B"
    # segment and decode take codec bytes, whose every value has a legal point
    with pytest.raises(TypeError):
        segment(text, SegmentationConfig())
    with pytest.raises(TypeError):
        decode([Segment(0, text)], CodecSpec(CodecKind.PCM), ReassemblyPolicy.LOOSE, 8000)
    # only parsing sees text
    with pytest.raises(InvalidCodePoint, match=f"^code point {ord(bad)} "):
        codepoints_to_bytes(text)
    with pytest.raises(InvalidCodePoint, match=f"^code point {ord(bad)} "):
        parse_segment("000" + text)
    if bad == "\n":  # LF frames the file's lines: the third line, "B", has no index
        with pytest.raises(BadIndex, match="^line 3: index prefix 'B' "):
            parse_segments_file("000A\n001" + text + "\n")
    else:
        with pytest.raises(InvalidCodePoint, match=f"^line 2: code point {ord(bad)} "):
            parse_segments_file("000A\n001" + text + "\n")
