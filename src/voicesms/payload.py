"""Byte stream <-> SMS-safe payload text, one character per byte.

Character values 0..31 are reserved by the messaging layer (NUL, CR, LF and
friends) and cannot travel inside a message body. Each byte in that range is
shifted up by 256, landing in 256..287; all other bytes pass through as-is.
The legal on-the-wire alphabet is therefore the contiguous range 32..287,
and the mapping is a bijection on all 256 byte values.
"""

import codecs
import re

from .errors import InvalidCodePoint

RESERVED_CEILING = 31  # highest byte value the transport refuses
SHIFT = 256
MIN_POINT = RESERVED_CEILING + 1
MAX_POINT = SHIFT + RESERVED_CEILING

# ALPHABET[b] is the character that carries byte b.
ALPHABET = "".join(chr(b + SHIFT if b <= RESERVED_CEILING else b) for b in range(256))
_ILLEGAL = re.compile(f"[^{chr(MIN_POINT)}-{chr(MAX_POINT)}]")


def check_points(text: str) -> None:
    """Raise :class:`InvalidCodePoint` naming the first character of ``text`` outside 32..287."""
    match = _ILLEGAL.search(text)
    if match:
        raise InvalidCodePoint(f"code point {ord(match.group())} outside the legal range {MIN_POINT}..{MAX_POINT}")


def bytes_to_codepoints(data: bytes) -> str:
    """Map each byte to its transmissible character (length-preserving)."""
    return codecs.charmap_decode(data, "strict", ALPHABET)[0]


def codepoints_to_bytes(text: str) -> bytes:
    """Invert :func:`bytes_to_codepoints`.

    Rejects any character outside 32..287 rather than repairing it; an
    illegal point means the channel corrupted the text. Every legal
    character is one UTF-16 unit whose low byte is the byte it carries.
    """
    check_points(text)
    return text.encode("utf-16-le")[::2]
