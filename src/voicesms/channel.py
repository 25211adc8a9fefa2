"""Deterministic simulator of a store-and-forward message channel.

Models the three impairments that matter to reassembly -- loss, duplication,
and delay-induced reordering -- without ever altering message content.
Everything is driven by splitmix64 so that a (messages, config) pair always
produces byte-identical results, on any platform or language. The generator
is fully specified here so tests (or a foreign implementation) can replay it:

    state' = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state'
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

``_splitmix64`` states it once in code; ``transmit`` pulls its outputs in
draw order. Unit-interval draws take the top 53 bits:
u = (output >> 11) * 2^-53. Bounded draws are output mod bound.

Draw discipline per input message, in order:
  1. one unit draw; the message is dropped when u < loss_probability
     (a dropped message consumes no further draws)
  2. one unit draw; the survivor is duplicated when u < duplication_probability
  3. one bounded draw per delivery (1, or 2 when duplicated), giving
     delivery_tick = input_position + (draw mod (max_extra_delay + 1))

Deliveries are then sorted by (tick, input_position, copy number). The
copies of one message carry the same text, so ``transmit`` sorts the one
integer tick * n + input_position per logged tick, where n is the number
of messages, and maps each back to ``messages[key % n]``.

The log is the ticks: one tuple per input message, in input order, holding
its delivery ticks -- empty when dropped, two entries when duplicated.
"""

from dataclasses import dataclass

from .errors import InvalidOption

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(seed: int):
    """Yield the outputs of the generator specified in the module docstring."""
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA) & _MASK64
        z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        yield z ^ (z >> 31)


@dataclass(frozen=True)
class ChannelConfig:
    loss_probability: float = 0.0
    duplication_probability: float = 0.0
    max_extra_delay: int = 0  # delay ticks drawn uniformly in [0, max_extra_delay]
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.loss_probability <= 1.0:
            raise InvalidOption(f"loss probability {self.loss_probability} outside [0, 1]")
        if not 0.0 <= self.duplication_probability <= 1.0:
            raise InvalidOption(f"duplication probability {self.duplication_probability} outside [0, 1]")
        if self.max_extra_delay < 0:
            raise InvalidOption(f"max extra delay must be >= 0, got {self.max_extra_delay}")


def transmit(messages, cfg: ChannelConfig) -> tuple[list[str], list[tuple[int, ...]]]:
    """Push messages through the impaired channel.

    Returns the delivered texts in delivery order plus the log: for each
    input message, the tuple of its delivery ticks. Content is never
    modified, only dropped, copied, or displaced in time.
    """
    messages = list(messages)
    n = len(messages)
    draw = _splitmix64(cfg.seed).__next__
    loss, dup, span = cfg.loss_probability, cfg.duplication_probability, cfg.max_extra_delay + 1
    log: list[tuple[int, ...]] = []
    for position in range(n):
        if (draw() >> 11) * 2.0 ** -53 < loss:
            log.append(())
        elif (draw() >> 11) * 2.0 ** -53 < dup:
            log.append((position + draw() % span, position + draw() % span))
        else:
            log.append((position + draw() % span,))
    keys = sorted([tick * n + position for position, ticks in enumerate(log) for tick in ticks])
    return [messages[key % n] for key in keys], log


# one log line per delivery count: input_position, outcome, comma-joined ticks
_LINES = ("{}\tDROPPED\t\n", "{}\tDELIVERED\t{}\n", "{}\tDUPLICATED\t{},{}\n")


def render_channel_log(log) -> str:
    """Tab-separated trace: input_position, outcome, comma-joined ticks."""
    return "".join(_LINES[len(ticks)].format(position, *ticks) for position, ticks in enumerate(log))
