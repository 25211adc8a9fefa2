"""Byte stream <-> SMS-safe code points.

Character values 0..31 are reserved by the messaging layer (NUL, CR, LF and
friends) and cannot travel inside a message body. Each byte in that range is
shifted up by 256, landing in 256..287; all other bytes pass through as-is.
The legal on-the-wire alphabet is therefore the contiguous range 32..287,
and the mapping is a bijection on all 256 byte values.
"""

from .errors import InvalidCodePoint

RESERVED_CEILING = 31  # highest byte value the transport refuses
SHIFT = 256
MIN_POINT = 32
MAX_POINT = 287

_SHIFTED = tuple(b + SHIFT if b <= RESERVED_CEILING else b for b in range(256))


def bytes_to_codepoints(data: bytes) -> list[int]:
    """Map each byte to its transmissible code point (length-preserving)."""
    table = _SHIFTED
    return [table[b] for b in data]


def codepoints_to_bytes(points) -> bytes:
    """Invert :func:`bytes_to_codepoints`.

    Rejects any point outside 32..287 rather than repairing it; an illegal
    point means the channel corrupted the text.
    """
    points = list(points)
    if points and not MIN_POINT <= min(points) <= max(points) <= MAX_POINT:
        bad = next(p for p in points if not MIN_POINT <= p <= MAX_POINT)
        raise InvalidCodePoint(f"code point {bad} outside the legal range {MIN_POINT}..{MAX_POINT}")
    return bytes(p - SHIFT if p >= SHIFT else p for p in points)
