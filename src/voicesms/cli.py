"""Command-line front end.

Stages exchange plain files so each one can be scripted and inspected on
its own: ``encode`` turns a WAV into a segments file, ``simulate`` pushes a
segments file through the impaired channel, ``decode`` rebuilds a WAV, and
``roundtrip`` chains the same three steps in one process. ``stats`` prints
the per-codec accounting table. Each command reads its input, calls the
library, writes its output and prints a one-line summary. Every output
file is written to a temp file and renamed into place, so a failed run
never leaves a partial file.
"""

import argparse
import os
import sys
import tempfile

from .audio import DEFAULT_DECIMATION, AudioClip, CodecKind, codec_decode, read_wav, write_wav
from .channel import ChannelConfig, ChannelEvent, Outcome, render_channel_log, transmit
from .errors import VoiceSmsError
from .metrics import compare, encode, render_csv, render_table
from .payload import codepoints_to_bytes
from .reassembly import ReassemblyPolicy, parse_segments_file, reassemble
from .segmentation import (
    DEFAULT_CAPACITY,
    CostModel,
    SegmentationConfig,
    join_lines,
    render_segments_file,
    split_lines,
)

_CODEC_NAMES = sorted(k.value for k in CodecKind)


def _write_atomic(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".voicesms-")
    try:
        with os.fdopen(fd, "wb") as handle:
            # mkstemp creates 0600; give the output the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_text(path: str) -> str:
    with open(path, "rb") as handle:
        return handle.read().decode("utf-8")


def _segmentation_config(args) -> SegmentationConfig:
    return SegmentationConfig(args.capacity, CostModel(args.cost), args.group)


def _fmt_indices(indices) -> str:
    return ",".join(map(str, indices)) if indices else "-"


def _add_codec_flags(parser):
    parser.add_argument("--codec", choices=_CODEC_NAMES, default="pcm",
                        help="audio codec (default: pcm)")
    parser.add_argument("--decimation", type=int, default=DEFAULT_DECIMATION, metavar="D",
                        help="toy codec keeps every D-th sample (default: %(default)s)")


def _add_segmentation_flags(parser):
    parser.add_argument("--capacity", type=int, default=DEFAULT_CAPACITY, metavar="N",
                        help="payload cost units per message (default: %(default)s)")
    parser.add_argument("--cost", choices=[m.value for m in CostModel], default="uniform",
                        help="payload cost model (default: %(default)s)")
    parser.add_argument("--group", type=int, default=3, metavar="N",
                        help="messages per connected group (default: %(default)s)")


def _add_channel_flags(parser):
    parser.add_argument("--loss", type=float, default=0.0, metavar="P",
                        help="per-message loss probability (default: %(default)s)")
    parser.add_argument("--dup", type=float, default=0.0, metavar="P",
                        help="per-message duplication probability (default: %(default)s)")
    parser.add_argument("--delay", type=int, default=0, metavar="T",
                        help="maximum extra delivery delay in ticks (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="channel random seed (default: %(default)s)")


def _add_policy_flag(parser):
    parser.add_argument("--policy", choices=[p.value for p in ReassemblyPolicy], default="loose",
                        help="reassembly policy (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voicesms",
        description="Carry recorded voice across SMS-sized text messages.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="WAV -> segments file")
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p.add_argument("--out", dest="out_path", required=True, metavar="PATH")
    _add_codec_flags(p)
    _add_segmentation_flags(p)

    p = sub.add_parser("decode", help="segments file -> WAV")
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p.add_argument("--out", dest="out_path", required=True, metavar="PATH")
    _add_codec_flags(p)
    _add_policy_flag(p)
    p.add_argument("--rate", type=int, default=8000, metavar="HZ",
                   help="sample rate of the reconstructed WAV (default: %(default)s)")
    p.add_argument("--bits", type=int, choices=(8, 16), default=16,
                   help="bit depth for pcm decoding (default: %(default)s)")

    p = sub.add_parser("simulate", help="segments file -> delivered segments file")
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p.add_argument("--out", dest="out_path", required=True, metavar="PATH")
    _add_channel_flags(p)
    p.add_argument("--log", dest="log_path", metavar="PATH",
                   help="also dump the per-message channel log")

    p = sub.add_parser("stats", help="per-codec character/message accounting")
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p.add_argument("--codec", action="append", choices=_CODEC_NAMES, dest="codecs",
                   help="codec to include; may repeat (default: pcm, ulaw, toy)")
    p.add_argument("--decimation", type=int, default=DEFAULT_DECIMATION, metavar="D")
    _add_segmentation_flags(p)
    p.add_argument("--csv", action="store_true", help="emit CSV instead of the aligned table")

    p = sub.add_parser("roundtrip", help="encode, simulate, and decode in one go")
    p.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    p.add_argument("--out", dest="out_path", required=True, metavar="PATH")
    _add_codec_flags(p)
    _add_segmentation_flags(p)
    _add_channel_flags(p)
    _add_policy_flag(p)

    return parser


def _encode_text(clip: AudioClip, args) -> tuple[str, str]:
    """WAV clip -> segments file text, and the encode summary line."""
    segments, report = encode(clip, CodecKind(args.codec), _segmentation_config(args),
                              args.decimation)
    summary = (f"chars={report.char_count} messages={report.message_count} "
               f"connected={report.connected_count}")
    return render_segments_file(segments), summary


def _simulate_text(text: str, args) -> tuple[str, list[ChannelEvent], str]:
    """Segments file text -> delivered text, the channel log, and the summary line."""
    cfg = ChannelConfig(args.loss, args.dup, args.delay, args.seed)
    delivered, log = transmit(split_lines(text), cfg)
    dropped = sum(1 for e in log if e.outcome is Outcome.DROPPED)
    duplicated = sum(1 for e in log if e.outcome is Outcome.DUPLICATED)
    summary = (f"input={len(log)} delivered={len(delivered)} dropped={dropped} "
               f"duplicated={duplicated}")
    return join_lines(delivered), log, summary


def _decode_text(text: str, args, rate: int, bits: int) -> tuple[AudioClip, str]:
    """Segments file text -> rebuilt clip, and the decode summary line."""
    stream, report = reassemble(parse_segments_file(text), ReassemblyPolicy(args.policy))
    clip = codec_decode(codepoints_to_bytes(stream), CodecKind(args.codec), rate, bits,
                        args.decimation)
    summary = (f"rate={rate} samples={clip.sample_count} "
               f"received={len(report.received_indices)} "
               f"missing={_fmt_indices(report.missing_indices)} "
               f"duplicates={report.duplicate_count}")
    return clip, summary


def cmd_encode(args) -> int:
    text, summary = _encode_text(read_wav(_read_bytes(args.in_path)), args)
    _write_atomic(args.out_path, text.encode("utf-8"))
    print(summary)
    return 0


def cmd_decode(args) -> int:
    clip, summary = _decode_text(_read_text(args.in_path), args, args.rate, args.bits)
    _write_atomic(args.out_path, write_wav(clip))
    print(summary)
    return 0


def cmd_simulate(args) -> int:
    delivered, log, summary = _simulate_text(_read_text(args.in_path), args)
    _write_atomic(args.out_path, delivered.encode("utf-8"))
    if args.log_path:
        _write_atomic(args.log_path, render_channel_log(log).encode("utf-8"))
    print(summary)
    return 0


def cmd_stats(args) -> int:
    clip = read_wav(_read_bytes(args.in_path))
    kinds = [CodecKind(name) for name in (args.codecs or ["pcm", "ulaw", "toy"])]
    reports = compare(clip, kinds, _segmentation_config(args), args.decimation)
    sys.stdout.write(render_csv(reports) if args.csv else render_table(reports))
    return 0


def cmd_roundtrip(args) -> int:
    """``encode | simulate | decode`` on in-memory text."""
    clip = read_wav(_read_bytes(args.in_path))
    text, summary = _encode_text(clip, args)
    print(summary)
    delivered, _log, summary = _simulate_text(text, args)
    print(summary)
    heard, summary = _decode_text(delivered, args, clip.sample_rate_hz, clip.bit_depth)
    _write_atomic(args.out_path, write_wav(heard))
    print(summary)
    return 0


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


_COMMANDS = {
    "encode": cmd_encode,
    "decode": cmd_decode,
    "simulate": cmd_simulate,
    "stats": cmd_stats,
    "roundtrip": cmd_roundtrip,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (VoiceSmsError, OSError, UnicodeDecodeError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
