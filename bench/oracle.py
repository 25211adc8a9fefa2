"""Per-op correctness oracle, independent of the program's pipeline code.

Expected outputs are rebuilt from the original clip samples with only the
scalar u-law spec (``ulaw_encode_sample`` / ``ulaw_decode_sample``) and
``struct``. The scalar spec comes from ``seedref``, the frozen copy of the
package's first version, so a change to the program's codec cannot change
what the oracle expects. Nothing here imports the program.

Pipeline ops: the channel log that ``simulate --log`` writes says which
segment indices were delivered. The documented ``loose`` output is those
segments' codec bytes in index order, decoded and wrapped in a canonical
WAV container. It must match the WAV that ``decode`` wrote byte for byte.

Stats ops: every row of the table must agree with an independent greedy
message count over the codec bytes.
"""

import struct

from seedref.audio import ulaw_decode_sample, ulaw_encode_sample
from speech import wav_container

DECIMATION = 4
GROUP_SIZE = 3
STATS_COLUMNS = ["codec", "chars", "messages", "connected", "capacity", "cost_model", "group_size"]


class Spec:
    """Codec tables built once from the scalar u-law spec."""

    def __init__(self):
        self.encode = bytes(ulaw_encode_sample((u - 65536 if u >= 32768 else u) >> 2)
                            for u in range(65536))
        self.decode = [ulaw_decode_sample(b) << 2 for b in range(256)]

    def codec_bytes(self, samples, codec: str) -> bytes:
        if codec == "pcm":
            return struct.pack(f"<{len(samples)}h", *samples)
        if codec == "toy":
            samples = samples[::DECIMATION]
        table = self.encode
        return bytes(table[s & 0xFFFF] for s in samples)

    def decoded_wav(self, stream: bytes, codec: str) -> bytes:
        if codec == "pcm":
            return wav_container(stream)
        samples = map(self.decode.__getitem__, stream)
        return wav_container(struct.pack(f"<{len(stream)}h", *samples))


def uniform_count(n_bytes: int, capacity: int) -> int:
    return -(-n_bytes // capacity)


def wide_cost(data: bytes) -> int:
    """Cost units under WIDE: bytes 0..31 are shifted and cost 2."""
    return len(data) + sum(1 for b in data if b < 32)


def wide_greedy_count(data: bytes, capacity: int) -> int:
    """Messages needed when each takes the longest prefix that fits."""
    count, used = 0, capacity
    for b in data:
        cost = 2 if b < 32 else 1
        if used + cost > capacity:
            count, used = count + 1, cost
        else:
            used += cost
    return count


def parse_channel_log(text: str):
    """(input count, delivered positions in order, delivered copies)."""
    delivered, copies, count = [], 0, 0
    for count, line in enumerate(text.splitlines(), start=1):
        position, outcome, ticks = line.split("\t")
        if int(position) != count - 1:
            raise ValueError(f"log line {count} names position {position}")
        if outcome != "DROPPED":
            delivered.append(count - 1)
            copies += len(ticks.split(","))
    return count, delivered, copies


class PipelineExpectation:
    """What one clip must turn into under a uniform-cost pipeline.

    ``stream`` is the clip's codec byte stream, from :meth:`Spec.codec_bytes`.
    """

    def __init__(self, spec: Spec, stream: bytes, codec: str, capacity: int):
        self.spec = spec
        self.codec = codec
        self.capacity = capacity
        self.stream = stream
        self.segments = uniform_count(len(stream), capacity)

    def loose_wav(self, delivered) -> bytes:
        cap, stream = self.capacity, self.stream
        kept = b"".join(stream[i * cap:(i + 1) * cap] for i in delivered)
        return self.spec.decoded_wav(kept, self.codec)

    def check(self, segments_file: bytes, delivered_file: bytes, log_text: str,
              wav: bytes) -> str | None:
        """None when the op's outputs are right, else what is wrong."""
        lines = segments_file.count(b"\n")
        if lines != self.segments:
            return f"segments file has {lines} lines, expected {self.segments}"
        try:
            count, delivered, copies = parse_channel_log(log_text)
        except ValueError as exc:
            return f"bad channel log: {exc}"
        if count != self.segments:
            return f"channel log covers {count} messages, expected {self.segments}"
        lines = delivered_file.count(b"\n")
        if lines != copies:
            return f"delivered file has {lines} lines, log says {copies}"
        if wav != self.loose_wav(delivered):
            return "decoded WAV differs from the loose reassembly of the delivered segments"
        return None


def stats_rows(spec: Spec, samples, codecs, capacity: int):
    """Per codec: [codec, chars, greedy WIDE message count, WIDE cost units]."""
    rows = []
    for codec in codecs:
        data = spec.codec_bytes(samples, codec)
        rows.append([codec, len(data), wide_greedy_count(data, capacity), wide_cost(data)])
    return rows


class StatsExpectation:
    """The table rows ``stats --cost wide`` must print for one clip."""

    def __init__(self, samples: int, rows, capacity: int):
        self.samples = samples
        self.rows = rows
        self.capacity = capacity

    def check(self, stdout: str) -> str | None:
        lines = [line.split() for line in stdout.splitlines()]
        if not lines or lines[0] != STATS_COLUMNS:
            return f"unexpected stats header {lines[:1]}"
        if len(lines) - 1 != len(self.rows):
            return f"stats printed {len(lines) - 1} rows, expected {len(self.rows)}"
        for got, (codec, chars, messages, _cost) in zip(lines[1:], self.rows):
            want = [codec, str(chars), str(messages), str(uniform_count(messages, GROUP_SIZE)),
                    str(self.capacity), "wide", str(GROUP_SIZE)]
            if got != want:
                return f"stats row {got} != expected {want}"
        return None
