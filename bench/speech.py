"""Seeded pseudo-speech clips, standard library only.

The byte mix of the codec stream decides how many payload points land in
the shifted band, and so how much a clip costs under the WIDE model.
Uniform noise (the test suite's ``make_clip``) has a very different mix
from speech, so the benchmark synthesises something closer to a voice:

* words of one to three syllables separated by pauses;
* each syllable is a voiced tone at a random pitch (with a glide), built
  from its harmonics below 3.4 kHz and shaped by two random formants;
* a raised-cosine envelope per syllable;
* low background noise everywhere, pauses included.

One pitch period is synthesised into a wavetable per syllable and then
played back with a phase accumulator, which keeps generation fast.
"""

import math
import random
import struct

RATE_HZ = 8000
TABLE_SIZE = 256
_MAX_HARMONIC_HZ = 3400.0
_NOISE_SIGMA = 24.0


def _period_table(rng: random.Random, f0: float) -> list[float]:
    """One period of a harmonic tone with two formant peaks, peak-normalised."""
    f1 = rng.uniform(300.0, 850.0)
    f2 = rng.uniform(900.0, 2400.0)
    harmonics = []
    k = 1
    while k * f0 < _MAX_HARMONIC_HZ:
        f = k * f0
        gain = (1.0 + 4.0 * math.exp(-((f - f1) / 120.0) ** 2)
                + 2.5 * math.exp(-((f - f2) / 180.0) ** 2)) / k
        harmonics.append((k, gain, rng.uniform(0.0, 2.0 * math.pi)))
        k += 1
    step = 2.0 * math.pi / TABLE_SIZE
    table = [sum(g * math.sin(h * i * step + ph) for h, g, ph in harmonics)
             for i in range(TABLE_SIZE)]
    peak = max(abs(v) for v in table) or 1.0
    return [v / peak for v in table]


def speech_samples(seconds: float, seed: int) -> list[int]:
    """Signed 16-bit samples of seeded pseudo-speech at 8 kHz."""
    rng = random.Random(seed)
    n = int(round(seconds * RATE_HZ))
    out = [0.0] * n
    speaker_f0 = rng.uniform(90.0, 220.0)
    pos = int(rng.uniform(0.02, 0.2) * RATE_HZ)
    while pos < n:
        for _ in range(rng.randint(1, 3)):
            length = int(rng.uniform(0.12, 0.28) * RATE_HZ)
            f_start = speaker_f0 * rng.uniform(0.85, 1.15)
            f_end = f_start * rng.uniform(0.85, 1.15)
            table = _period_table(rng, f_start)
            amp = rng.uniform(2500.0, 14000.0)
            phase = rng.random()
            end = min(n, pos + length)
            for i in range(pos, end):
                t = (i - pos) / length
                phase = (phase + (f_start + (f_end - f_start) * t) / RATE_HZ) % 1.0
                env = math.sin(math.pi * t) ** 2
                out[i] += amp * env * table[int(phase * TABLE_SIZE)]
            pos = end
        pos += int(rng.uniform(0.06, 0.35) * RATE_HZ)
    gauss = rng.gauss
    return [max(-32768, min(32767, int(round(v + gauss(0.0, _NOISE_SIGMA))))) for v in out]


def wav_container(data: bytes, rate_hz: int = RATE_HZ) -> bytes:
    """Canonical 44-byte-header mono 16-bit RIFF/WAVE container around ``data``."""
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE",
                         b"fmt ", 16, 1, 1, rate_hz, rate_hz * 2, 2, 16,
                         b"data", len(data))
    return header + data


def wav_bytes(samples, rate_hz: int = RATE_HZ) -> bytes:
    return wav_container(struct.pack(f"<{len(samples)}h", *samples), rate_hz)
