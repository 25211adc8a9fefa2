"""Exception hierarchy shared by every stage of the pipeline.

This module alone decides which failures are the user's. Bad input -- a
damaged file, an option or config value outside its legal range -- raises
a :class:`VoiceSmsError` subclass. Faults of the environment, such as a
missing file or a failed write, stay :class:`OSError`. The CLI prints
exactly these two families as one line, ``error: <Name>: <message>``,
and exits 1; any other exception is a bug and shows as a traceback.
argparse usage errors exit 2. Subclass names double as user-facing error
cases. Every subclass is raised with its message alone and carries no
other attribute, so a caller can rebuild one with a prefix:
``type(exc)(f"line 3: {exc}")``.
"""


class VoiceSmsError(Exception):
    """Base class for all errors raised deliberately by this package."""


class MalformedContainer(VoiceSmsError):
    """Byte sequence violates the RIFF/WAVE container structure."""


class UnsupportedFormat(VoiceSmsError):
    """Container parses but is not linear mono 8- or 16-bit PCM."""


class UnsupportedCombination(VoiceSmsError):
    """Codec cannot be applied to the clip (e.g. u-law on an 8-bit clip)."""


class LengthMismatch(VoiceSmsError):
    """Encoded byte stream length is inconsistent with the codec."""


class InvalidCodePoint(VoiceSmsError):
    """Payload character lies outside the transmissible range 32..287."""


class CapacityTooSmall(VoiceSmsError):
    """A single code point costs more than one message payload can hold."""


class SegmentOverflow(VoiceSmsError):
    """Stream needs more parts than the 000-999 index space provides."""


class BadIndex(VoiceSmsError):
    """Received text does not start with three ASCII decimal digits."""


class MissingSegments(VoiceSmsError):
    """Strict reassembly found gaps in the received index sequence."""


class DuplicateMismatch(VoiceSmsError):
    """Two received segments share an index but carry different payloads."""


class InvalidOption(VoiceSmsError, ValueError):
    """An option or config value lies outside its legal range."""


class NotText(VoiceSmsError, ValueError):
    """An input file that must be UTF-8 text is not."""
