"""Command-line front end.

Stages exchange plain files so each one can be scripted and inspected on
its own: ``encode`` turns a WAV into a segments file, ``simulate`` pushes a
segments file through the impaired channel, ``decode`` rebuilds a WAV, and
``roundtrip`` chains the same three steps in one process. ``stats`` prints
the per-codec accounting table. ``_FLAGS`` declares each flag once, and
``@_command`` declares each command on its body. A command reads its input,
calls the library, writes its output and prints a one-line summary. Each
output is created beside its target, a symlink's target if the path is a
link, as ``open()`` creates a file, so the umask sets its mode, then
renamed into place: a failed run leaves no partial file. ``main`` prints
a ``VoiceSmsError`` or an ``OSError`` as one line, as ``errors`` sets out;
anything else is a bug and propagates. The parser is built once per
process, on first use, and each caller gets its own copy.
"""

import argparse
import copy
import functools
import os
import sys

from .audio import DEFAULT_DECIMATION, AudioClip, CodecKind, CodecSpec, read_wav, write_wav
from .channel import ChannelConfig, render_channel_log, transmit
from .errors import InvalidOption, NotText, VoiceSmsError
from .metrics import compare, decode, encode, render_csv, render_table
from .reassembly import ReassemblyPolicy, parse_segments_file
from .segmentation import (
    DEFAULT_CAPACITY,
    DEFAULT_GROUP_SIZE,
    CostModel,
    SegmentationConfig,
    join_lines,
    render_segments_file,
    split_lines,
)

_CODEC_NAMES = sorted(k.value for k in CodecKind)

# Every flag, keyed by its argparse dest: (option string, add_argument keywords).
_FLAGS = {
    "in_path": ("--in", dict(required=True, metavar="PATH")),
    "out_path": ("--out", dict(required=True, metavar="PATH")),
    "codec": ("--codec", dict(choices=_CODEC_NAMES, default="pcm",
                              help="audio codec (default: pcm)")),
    "codecs": ("--codec", dict(action="append", choices=_CODEC_NAMES,
                               help="codec to include; may repeat (default: pcm, ulaw, toy)")),
    "decimation": ("--decimation", dict(type=int, default=DEFAULT_DECIMATION, metavar="D",
                                        help="toy codec keeps every D-th sample (default: %(default)s)")),
    "capacity": ("--capacity", dict(type=int, default=DEFAULT_CAPACITY, metavar="N",
                                    help="payload cost units per message (default: %(default)s)")),
    "cost": ("--cost", dict(choices=[m.value for m in CostModel], default="uniform",
                            help="payload cost model (default: %(default)s)")),
    "group": ("--group", dict(type=int, default=DEFAULT_GROUP_SIZE, metavar="N",
                              help="messages per connected group (default: %(default)s)")),
    "loss": ("--loss", dict(type=float, default=0.0, metavar="P",
                            help="per-message loss probability (default: %(default)s)")),
    "dup": ("--dup", dict(type=float, default=0.0, metavar="P",
                          help="per-message duplication probability (default: %(default)s)")),
    "delay": ("--delay", dict(type=int, default=0, metavar="T",
                              help="maximum extra delivery delay in ticks (default: %(default)s)")),
    "seed": ("--seed", dict(type=int, default=0, metavar="S",
                            help="channel random seed (default: %(default)s)")),
    "policy": ("--policy", dict(choices=[p.value for p in ReassemblyPolicy], default="loose",
                                help="reassembly policy (default: %(default)s)")),
    "rate": ("--rate", dict(type=int, default=8000, metavar="HZ",
                            help="sample rate of the reconstructed WAV (default: %(default)s)")),
    "bits": ("--bits", dict(type=int, choices=(8, 16), default=16,
                            help="bit depth for pcm decoding (default: %(default)s)")),
    "log_path": ("--log", dict(metavar="PATH", help="also dump the per-message channel log")),
    "csv": ("--csv", dict(action="store_true", help="emit CSV instead of the aligned table")),
}

# name -> (help line, flag dests in help order, body), in the order help lists them
_COMMANDS = {}


def _command(name: str, help_line: str, flags: str):
    """Declare the decorated body as subcommand ``name`` taking ``flags``."""
    def declare(body):
        _COMMANDS[name] = (help_line, flags.split(), body)
        return body
    return declare


def build_parser() -> argparse.ArgumentParser:
    """A parser of the caller's own, copied from the one built per process.

    The copy shares that parser's actions and subparsers, which parsing only
    reads; an attribute set on the copy stays on the copy.
    """
    return copy.copy(_parser())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voicesms",
        description="Carry recorded voice across SMS-sized text messages.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, dests, _body) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for dest in dests:
            flag, options = _FLAGS[dest]
            p.add_argument(flag, dest=dest, **options)
    return parser


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _read_text(path: str) -> str:
    try:
        return _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NotText(f"{path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _write_atomic(path: str, data: bytes) -> None:
    real = os.path.realpath(path)  # write through a symlink, not over it
    # os.replace would put a regular file in place of a FIFO, a device or a
    # symlink loop; a directory it refuses by itself, naming the path
    if os.path.lexists(real) and not (os.path.isfile(real) or os.path.isdir(real)):
        raise OSError(f"not a regular file: {path!r}")
    tmp = os.path.join(os.path.dirname(real), f".voicesms-{os.urandom(8).hex()}")
    try:
        handle = open(tmp, "xb")  # O_CREAT | O_EXCL, mode 0o666 less the umask
        try:
            with handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, real)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from exc  # name the user's path


def _segmentation_config(args) -> SegmentationConfig:
    return SegmentationConfig(args.capacity, CostModel(args.cost), args.group)


def _codec_spec(args) -> CodecSpec:
    return CodecSpec(CodecKind(args.codec), args.decimation)


def _encode_text(clip: AudioClip, args) -> tuple[str, str]:
    """WAV clip -> segments file text, and the encode summary line."""
    cfg = _segmentation_config(args)
    segments, report = encode(clip, _codec_spec(args), cfg)
    summary = (f"chars={report.char_count} messages={report.message_count} "
               f"connected={report.connected_count}")
    return render_segments_file(segments), summary


def _simulate_text(text: str, args) -> tuple[str, list[tuple[int, ...]], str]:
    """Segments file text -> delivered text, the channel log, and the summary line."""
    cfg = ChannelConfig(args.loss, args.dup, args.delay, args.seed)
    delivered, log = transmit(split_lines(text), cfg)
    summary = (f"input={len(log)} delivered={len(delivered)} dropped={log.count(())} "
               f"duplicated={sum(len(t) == 2 for t in log)}")
    return join_lines(delivered), log, summary


def _decode_text(text: str, args, rate: int, bits: int) -> tuple[AudioClip, str]:
    """Segments file text -> rebuilt clip, and the decode summary line."""
    clip, report = decode(parse_segments_file(text), _codec_spec(args),
                          ReassemblyPolicy(args.policy), rate, bits)
    summary = (f"rate={rate} samples={clip.sample_count} "
               f"received={len(report.received_indices)} "
               f"missing={','.join(map(str, report.missing_indices)) or '-'} "
               f"duplicates={report.duplicate_count}")
    return clip, summary


@_command("encode", "WAV -> segments file",
          "in_path out_path codec decimation capacity cost group")
def cmd_encode(args) -> None:
    text, summary = _encode_text(read_wav(_read_bytes(args.in_path)), args)
    _write_atomic(args.out_path, text.encode("utf-8"))
    print(summary)


@_command("decode", "segments file -> WAV",
          "in_path out_path codec decimation policy rate bits")
def cmd_decode(args) -> None:
    clip, summary = _decode_text(_read_text(args.in_path), args, args.rate, args.bits)
    _write_atomic(args.out_path, write_wav(clip))
    print(summary)


@_command("simulate", "segments file -> delivered segments file",
          "in_path out_path loss dup delay seed log_path")
def cmd_simulate(args) -> None:
    if args.log_path and os.path.realpath(args.log_path) == os.path.realpath(args.out_path):
        raise InvalidOption(f"--log {args.log_path!r} and --out {args.out_path!r} name the same file")
    delivered, log, summary = _simulate_text(_read_text(args.in_path), args)
    _write_atomic(args.out_path, delivered.encode("utf-8"))
    if args.log_path:
        _write_atomic(args.log_path, render_channel_log(log).encode("utf-8"))
    print(summary)


@_command("stats", "per-codec character/message accounting",
          "in_path codecs decimation capacity cost group csv")
def cmd_stats(args) -> None:
    clip = read_wav(_read_bytes(args.in_path))
    kinds = [CodecKind(name) for name in args.codecs] if args.codecs else list(CodecKind)
    cfg = _segmentation_config(args)
    reports = compare(clip, [CodecSpec(kind, args.decimation) for kind in kinds], cfg)
    sys.stdout.write(render_csv(reports) if args.csv else render_table(reports))


@_command("roundtrip", "encode, simulate, and decode in one go",
          "in_path out_path codec decimation capacity cost group loss dup delay seed policy")
def cmd_roundtrip(args) -> None:
    """``encode | simulate | decode`` on in-memory text."""
    clip = read_wav(_read_bytes(args.in_path))
    text, summary = _encode_text(clip, args)
    print(summary)
    delivered, _log, summary = _simulate_text(text, args)
    print(summary)
    heard, summary = _decode_text(delivered, args, clip.sample_rate_hz, clip.bit_depth)
    _write_atomic(args.out_path, write_wav(heard))
    print(summary)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command][2](args)
    except (VoiceSmsError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0
