"""Exception hierarchy shared by every stage of the pipeline.

The CLI maps any :class:`VoiceSmsError` to a one-line diagnostic naming the
concrete subclass, so subclass names double as user-facing error cases.
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

    def __init__(self, missing):
        missing = tuple(sorted(missing))
        super().__init__(f"missing segment indices: {list(missing)}")
        self.missing = missing


class DuplicateMismatch(VoiceSmsError):
    """Two received segments share an index but carry different payloads."""

    def __init__(self, index: int):
        super().__init__(f"segments with index {index} carry different payloads")
        self.index = index
