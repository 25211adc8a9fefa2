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
_LEGAL_RUN = re.compile(f"[{chr(MIN_POINT)}-{chr(MAX_POINT)}]*")


def bytes_to_codepoints(data: bytes) -> str:
    """Map each byte to its transmissible character (length-preserving)."""
    return codecs.charmap_decode(data, "strict", ALPHABET)[0]


def codepoints_to_bytes(text: str) -> bytes:
    """Invert :func:`bytes_to_codepoints`.

    Raises :class:`InvalidCodePoint` naming the first character outside
    32..287 rather than repairing it; an illegal point means the channel
    corrupted the text. Every legal character is one UTF-16 unit whose low
    byte is the byte it carries.
    """
    # the length of the legal prefix: matching a run of legal points takes
    # about half the time of searching for an illegal one
    legal = _LEGAL_RUN.match(text).end()
    if legal < len(text):
        raise InvalidCodePoint(f"code point {ord(text[legal])} outside the legal range {MIN_POINT}..{MAX_POINT}")
    return text.encode("utf-16-le")[::2]
