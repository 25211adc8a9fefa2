"""Command-line front end wiring the pipeline stages together.

Stages exchange plain files so each one can be scripted and inspected on
its own: ``encode`` turns a WAV into a segments file, ``simulate`` pushes a
segments file through the impaired channel, ``decode`` rebuilds a WAV, and
``roundtrip`` chains all three in one process. ``stats`` prints the
per-codec accounting table. Every output file is written to a temp file
and renamed into place, so a failed run never leaves a partial file.
"""

import argparse
import os
import sys
import tempfile

from .audio import (
    DEFAULT_DECIMATION,
    AudioClip,
    CodecKind,
    codec_decode,
    codec_encode,
    read_wav,
    write_wav,
)
from .channel import ChannelConfig, Outcome, render_channel_log, transmit
from .errors import VoiceSmsError
from .metrics import compare, render_csv, render_table
from .payload import bytes_to_codepoints, codepoints_to_bytes
from .reassembly import ReassemblyPolicy, parse_segments_file, reassemble
from .segmentation import (
    DEFAULT_CAPACITY,
    CostModel,
    SegmentationConfig,
    connected_group_count,
    render_segment,
    render_segments_file,
    segment,
)

_CODECS = {k.value: k for k in CodecKind}


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


def _channel_config(args) -> ChannelConfig:
    return ChannelConfig(args.loss, args.dup, args.delay, args.seed)


def _fmt_indices(indices) -> str:
    return ",".join(map(str, indices)) if indices else "-"


def _add_codec_flags(parser):
    parser.add_argument("--codec", choices=sorted(_CODECS), default="pcm",
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
    p.add_argument("--codec", action="append", choices=sorted(_CODECS), dest="codecs",
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


def _encode_clip(clip: AudioClip, kind: CodecKind, cfg: SegmentationConfig, decimation: int):
    data = codec_encode(clip, kind, decimation)
    segments = segment(bytes_to_codepoints(data), cfg)
    return segments, len(data)


def _encode_summary(char_count: int, message_count: int, group_size: int) -> str:
    connected = connected_group_count(message_count, group_size)
    return f"chars={char_count} messages={message_count} connected={connected}"


def _decode_stream(segments, policy, kind, rate, bits, decimation):
    stream, report = reassemble(segments, policy)
    clip = codec_decode(codepoints_to_bytes(stream), kind, rate, bits, decimation)
    return clip, report


def _report_summary(report, rate: int, sample_count: int) -> str:
    return (f"rate={rate} samples={sample_count} received={len(report.received_indices)} "
            f"missing={_fmt_indices(report.missing_indices)} duplicates={report.duplicate_count}")


def _channel_summary(log) -> str:
    dropped = sum(1 for e in log if e.outcome is Outcome.DROPPED)
    duplicated = sum(1 for e in log if e.outcome is Outcome.DUPLICATED)
    delivered = len(log) - dropped + duplicated
    return (f"input={len(log)} delivered={delivered} dropped={dropped} "
            f"duplicated={duplicated}")


def cmd_encode(args) -> int:
    clip = read_wav(_read_bytes(args.in_path))
    cfg = _segmentation_config(args)
    segments, char_count = _encode_clip(clip, _CODECS[args.codec], cfg, args.decimation)
    _write_atomic(args.out_path, render_segments_file(segments).encode("utf-8"))
    print(_encode_summary(char_count, len(segments), cfg.group_size))
    return 0


def cmd_decode(args) -> int:
    segments = parse_segments_file(_read_text(args.in_path))
    clip, report = _decode_stream(segments, ReassemblyPolicy(args.policy),
                                  _CODECS[args.codec], args.rate, args.bits, args.decimation)
    _write_atomic(args.out_path, write_wav(clip))
    print(_report_summary(report, args.rate, clip.sample_count))
    return 0


def cmd_simulate(args) -> int:
    text = _read_text(args.in_path)
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    delivered, log = transmit(lines, _channel_config(args))
    _write_atomic(args.out_path, "".join(line + "\n" for line in delivered).encode("utf-8"))
    if args.log_path:
        _write_atomic(args.log_path, render_channel_log(log).encode("utf-8"))
    print(_channel_summary(log))
    return 0


def cmd_stats(args) -> int:
    clip = read_wav(_read_bytes(args.in_path))
    kinds = [_CODECS[name] for name in (args.codecs or ["pcm", "ulaw", "toy"])]
    reports = compare(clip, kinds, _segmentation_config(args), args.decimation)
    sys.stdout.write(render_csv(reports) if args.csv else render_table(reports))
    return 0


def cmd_roundtrip(args) -> int:
    clip = read_wav(_read_bytes(args.in_path))
    cfg = _segmentation_config(args)
    kind = _CODECS[args.codec]
    segments, char_count = _encode_clip(clip, kind, cfg, args.decimation)
    print(_encode_summary(char_count, len(segments), cfg.group_size))

    rendered = [render_segment(seg) for seg in segments]
    delivered, log = transmit(rendered, _channel_config(args))
    print(_channel_summary(log))

    received = parse_segments_file("".join(line + "\n" for line in delivered))
    out_clip, report = _decode_stream(received, ReassemblyPolicy(args.policy), kind,
                                      clip.sample_rate_hz, clip.bit_depth, args.decimation)
    _write_atomic(args.out_path, write_wav(out_clip))
    print(_report_summary(report, clip.sample_rate_hz, out_clip.sample_count))
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
