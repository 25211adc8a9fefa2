import builtins
import contextlib
import errno
import io
import os
import re
import stat
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import make_clip
from voicesms import InvalidOption, NotText, VoiceSmsError, cli, errors, read_wav, write_wav
from voicesms.cli import build_parser, main


@pytest.fixture
def wav_path(tmp_path):
    path = tmp_path / "in.wav"
    path.write_bytes(write_wav(make_clip(400, seed=6)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_main(*argv, columns=80):
    """``python -m voicesms *argv`` in a new interpreter: exit code and stdout."""
    env = {**os.environ, "COLUMNS": str(columns),
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "voicesms", *argv], env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def read_segment_lines(path):
    # The format is LF-delimited; str.splitlines would also split on
    # payload characters like U+0085 that Unicode treats as line breaks.
    text = path.read_bytes().decode("utf-8")
    lines = text.split("\n")
    assert lines[-1] == ""  # file ends with a newline
    return lines[:-1]


class TestEncode:
    def test_writes_segments_and_summary(self, wav_path, tmp_path, capsys):
        out = str(tmp_path / "segments.txt")
        code, stdout, _ = run(capsys, "encode", "--in", wav_path, "--out", out)
        assert code == 0
        assert stdout.strip() == "chars=800 messages=6 connected=2"
        lines = read_segment_lines(tmp_path / "segments.txt")
        assert len(lines) == 6
        assert [line[:3] for line in lines] == [f"{i:03d}" for i in range(6)]

    def test_empty_clip(self, tmp_path, capsys):
        src = tmp_path / "empty.wav"
        src.write_bytes(write_wav(make_clip(0)))
        out = str(tmp_path / "out.txt")
        code, stdout, _ = run(capsys, "encode", "--in", str(src), "--out", out)
        assert code == 0
        assert stdout.strip() == "chars=0 messages=0 connected=0"
        assert (tmp_path / "out.txt").read_bytes() == b""

    def test_codec_and_capacity_flags(self, wav_path, tmp_path, capsys):
        out = str(tmp_path / "o.txt")
        code, stdout, _ = run(
            capsys, "encode", "--in", wav_path, "--out", out,
            "--codec", "ulaw", "--capacity", "100",
        )
        assert code == 0
        assert stdout.strip() == "chars=400 messages=4 connected=2"

    def test_malformed_wav_reports_error(self, tmp_path, capsys):
        src = tmp_path / "broken.wav"
        src.write_bytes(b"RIFF\x00\x00")
        out = str(tmp_path / "o.txt")
        code, _, stderr = run(capsys, "encode", "--in", str(src), "--out", out)
        assert code == 1
        assert "MalformedContainer" in stderr
        assert not (tmp_path / "o.txt").exists()  # nothing partial left behind

    def test_missing_input_reports_error(self, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "encode", "--in", str(tmp_path / "nope.wav"),
            "--out", str(tmp_path / "o.txt"),
        )
        assert code == 1
        assert stderr.startswith("error:")

    def test_bad_capacity_reports_error(self, wav_path, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "encode", "--in", wav_path,
            "--out", str(tmp_path / "o.txt"), "--capacity", "0",
        )
        assert code == 1
        assert stderr == "error: InvalidOption: capacity must be >= 1, got 0\n"


class TestDecode:
    def test_pcm_round_trip_bit_exact(self, wav_path, tmp_path, capsys):
        seg_file = str(tmp_path / "segs.txt")
        out_wav = str(tmp_path / "out.wav")
        run(capsys, "encode", "--in", wav_path, "--out", seg_file)
        code, stdout, _ = run(
            capsys, "decode", "--in", seg_file, "--out", out_wav, "--rate", "8000"
        )
        assert code == 0
        assert "rate=8000 samples=400 received=6 missing=- duplicates=0" == stdout.strip()
        assert (tmp_path / "out.wav").read_bytes() == Path(wav_path).read_bytes()

    def test_loose_tolerates_gap(self, wav_path, tmp_path, capsys):
        seg_file = tmp_path / "segs.txt"
        run(capsys, "encode", "--in", wav_path, "--out", str(seg_file),
            "--codec", "ulaw")
        lines = read_segment_lines(seg_file)
        del lines[1]  # lose the middle of the three ulaw segments
        seg_file.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
        code, stdout, _ = run(
            capsys, "decode", "--in", str(seg_file), "--codec", "ulaw",
            "--out", str(tmp_path / "o.wav"), "--policy", "loose",
        )
        assert code == 0
        fields = dict(kv.split("=") for kv in stdout.split())
        assert fields["missing"] == "1"
        assert fields["received"] == "2"
        assert fields["samples"] == "243"  # 157 + 86 surviving bytes

    def test_strict_rejects_gap(self, wav_path, tmp_path, capsys):
        seg_file = tmp_path / "segs.txt"
        run(capsys, "encode", "--in", wav_path, "--out", str(seg_file))
        lines = read_segment_lines(seg_file)
        seg_file.write_bytes("".join(line + "\n" for line in lines[1:]).encode("utf-8"))
        code, _, stderr = run(
            capsys, "decode", "--in", str(seg_file),
            "--out", str(tmp_path / "o.wav"), "--policy", "strict",
        )
        assert code == 1
        assert "MissingSegments" in stderr
        assert not (tmp_path / "o.wav").exists()

    @pytest.mark.parametrize("text, diagnostic", [
        ("000AB\n002CD\n", "error: InvalidOption: decimation must be >= 1, got 0"),
        ("000AB\nxx\n", "error: BadIndex: line 2: index prefix 'xx' is not three decimal digits"),
    ], ids=["gap", "unparsable"])
    def test_codec_spec_is_checked_after_parsing_and_before_reassembly(self, tmp_path, capsys,
                                                                      text, diagnostic):
        seg_file = tmp_path / "segs.txt"
        seg_file.write_text(text, encoding="utf-8")
        code, stdout, stderr = run(
            capsys, "decode", "--in", str(seg_file), "--out", str(tmp_path / "o.wav"),
            "--policy", "strict", "--codec", "toy", "--decimation", "0",
        )
        assert (code, stdout) == (1, "")
        assert stderr.splitlines() == [diagnostic]
        assert not (tmp_path / "o.wav").exists()

    @pytest.mark.parametrize("text, diagnostic", [
        ("000AB\nxx\n", "error: BadIndex: line 2: index prefix 'xx' is not three decimal digits"),
        ("000AB\n99\n", "error: BadIndex: line 2: index prefix '99' is not three decimal digits"),
        ("000A\x05\n", "error: InvalidCodePoint: line 1: code point 5 outside the legal range 32..287"),
    ], ids=["letters", "short", "control"])
    def test_parse_error_names_line(self, tmp_path, capsys, text, diagnostic):
        seg_file = tmp_path / "segs.txt"
        seg_file.write_text(text, encoding="utf-8")
        code, _, stderr = run(
            capsys, "decode", "--in", str(seg_file), "--out", str(tmp_path / "o.wav")
        )
        assert code == 1
        assert stderr.splitlines() == [diagnostic]
        assert not (tmp_path / "o.wav").exists()

    def test_eight_bit_pcm(self, tmp_path, capsys):
        src = tmp_path / "eight.wav"
        src.write_bytes(write_wav(make_clip(100, seed=8, bit_depth=8)))
        seg_file = str(tmp_path / "segs.txt")
        run(capsys, "encode", "--in", str(src), "--out", seg_file)
        code, _, _ = run(
            capsys, "decode", "--in", seg_file,
            "--out", str(tmp_path / "o.wav"), "--bits", "8",
        )
        assert code == 0
        assert (tmp_path / "o.wav").read_bytes() == src.read_bytes()

    def test_rate_overflowing_wav_header_reports_error(self, wav_path, tmp_path, capsys):
        seg_file = str(tmp_path / "segs.txt")
        run(capsys, "encode", "--in", wav_path, "--out", seg_file)
        code, stdout, stderr = run(
            capsys, "decode", "--in", seg_file,
            "--out", str(tmp_path / "o.wav"), "--rate", "3000000000",
        )
        assert code == 1
        assert stdout == ""
        assert stderr == "error: InvalidOption: sample rate 3000000000 Hz overflows the WAV byte-rate field\n"
        assert not (tmp_path / "o.wav").exists()

    def test_audio_past_the_wav_size_limit_reports_error(self, wav_path, tmp_path, capsys):
        # 100 toy bytes held 2e9 ticks each would need 400 GB: refused before allocating.
        seg_file = str(tmp_path / "segs.txt")
        _, stdout, _ = run(capsys, "encode", "--in", wav_path, "--out", seg_file, "--codec", "toy")
        assert stdout == "chars=100 messages=1 connected=1\n"
        code, stdout, stderr = run(
            capsys, "decode", "--in", seg_file, "--out", str(tmp_path / "o.wav"),
            "--codec", "toy", "--decimation", "2000000000",
        )
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: InvalidOption: ")
        assert stderr.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav", "segs.txt"]

    def test_empty_toy_stream_decodes_at_once_at_any_decimation(self, tmp_path, capsys):
        seg_file = tmp_path / "segs.txt"
        seg_file.write_bytes(b"")
        started = time.perf_counter()
        code, stdout, _ = run(
            capsys, "decode", "--in", str(seg_file), "--out", str(tmp_path / "o.wav"),
            "--codec", "toy", "--decimation", "2000000000",
        )
        assert time.perf_counter() - started < 1
        assert code == 0
        assert stdout == "rate=8000 samples=0 received=0 missing=- duplicates=0\n"
        code, stdout, stderr = run(
            capsys, "decode", "--in", str(seg_file), "--out", str(tmp_path / "z.wav"),
            "--codec", "toy", "--decimation", "0",
        )
        assert (code, stdout) == (1, "")
        assert stderr == "error: InvalidOption: decimation must be >= 1, got 0\n"
        assert not (tmp_path / "z.wav").exists()


class TestSimulate:
    def make_segments(self, tmp_path, capsys, wav_path):
        seg_file = str(tmp_path / "segs.txt")
        run(capsys, "encode", "--in", wav_path, "--out", seg_file)
        return seg_file

    def test_transparent(self, wav_path, tmp_path, capsys):
        seg_file = self.make_segments(tmp_path, capsys, wav_path)
        out = tmp_path / "delivered.txt"
        code, stdout, _ = run(capsys, "simulate", "--in", seg_file, "--out", str(out))
        assert code == 0
        assert stdout.strip() == "input=6 delivered=6 dropped=0 duplicated=0"
        assert out.read_bytes() == Path(seg_file).read_bytes()

    def test_total_loss_with_log(self, wav_path, tmp_path, capsys):
        seg_file = self.make_segments(tmp_path, capsys, wav_path)
        out, log = tmp_path / "d.txt", tmp_path / "log.txt"
        code, stdout, _ = run(
            capsys, "simulate", "--in", seg_file, "--out", str(out),
            "--loss", "1.0", "--log", str(log),
        )
        assert code == 0
        assert stdout.strip() == "input=6 delivered=0 dropped=6 duplicated=0"
        assert out.read_bytes() == b""
        log_lines = log.read_text(encoding="utf-8").splitlines()
        assert len(log_lines) == 6
        assert all(line.split("\t")[1] == "DROPPED" for line in log_lines)

    @pytest.mark.parametrize("channel", [
        ("--dup", "1.0"),
        ("--loss", ".3", "--dup", ".3", "--delay", "4", "--seed", "5"),
    ], ids=["all-duplicated", "mixed"])
    def test_summary_tallies_match_log(self, wav_path, tmp_path, capsys, channel):
        seg_file = str(tmp_path / "segs.txt")
        run(capsys, "encode", "--in", wav_path, "--out", seg_file, "--capacity", "10")
        out, log = tmp_path / "d.txt", tmp_path / "log.txt"
        code, stdout, _ = run(capsys, "simulate", "--in", seg_file, "--out", str(out),
                              "--log", str(log), *channel)
        assert code == 0
        tallies = dict(field.split("=") for field in stdout.split())
        outcomes = [line.split("\t")[1] for line in log.read_text(encoding="utf-8").splitlines()]
        assert int(tallies["input"]) == len(outcomes) == 80
        assert int(tallies["dropped"]) == outcomes.count("DROPPED")
        assert int(tallies["duplicated"]) == outcomes.count("DUPLICATED") > 0
        assert int(tallies["delivered"]) == len(read_segment_lines(out))

    def test_reruns_are_byte_identical(self, wav_path, tmp_path, capsys):
        seg_file = self.make_segments(tmp_path, capsys, wav_path)
        blobs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            run(capsys, "simulate", "--in", seg_file, "--out", str(out),
                "--loss", "0.4", "--dup", "0.3", "--delay", "4", "--seed", "17")
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_changes_output(self, wav_path, tmp_path, capsys):
        seg_file = self.make_segments(tmp_path, capsys, wav_path)
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.txt"
            run(capsys, "simulate", "--in", seg_file, "--out", str(out),
                "--loss", "0.5", "--seed", seed)
            blobs.append(out.read_bytes())
        assert blobs[0] != blobs[1]

    def test_final_newline_optional(self, wav_path, tmp_path, capsys):
        self.make_segments(tmp_path, capsys, wav_path)
        seg_file = tmp_path / "segs.txt"
        bare = tmp_path / "bare.txt"
        bare.write_bytes(seg_file.read_bytes().removesuffix(b"\n"))
        blobs = []
        for src in (seg_file, bare):
            out = tmp_path / f"{src.stem}.out"
            code, _, _ = run(capsys, "simulate", "--in", str(src), "--out", str(out),
                             "--dup", "0.5", "--delay", "3", "--seed", "9")
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0].endswith(b"\n")

    def test_bad_probability_reports_error(self, wav_path, tmp_path, capsys):
        seg_file = self.make_segments(tmp_path, capsys, wav_path)
        code, _, stderr = run(
            capsys, "simulate", "--in", seg_file,
            "--out", str(tmp_path / "o.txt"), "--loss", "1.5",
        )
        assert code == 1
        assert stderr == "error: InvalidOption: loss probability 1.5 outside [0, 1]\n"

    @pytest.mark.parametrize("through", ["same-path", "symlink"])
    def test_log_naming_the_out_file_is_refused(self, wav_path, tmp_path, capsys, through):
        # Refused before anything is written: the log would replace the delivered lines.
        seg_file = self.make_segments(tmp_path, capsys, wav_path)
        out = tmp_path / "d.txt"
        log = out
        if through == "symlink":
            out.write_bytes(b"old\n")
            log = tmp_path / "log.txt"
            log.symlink_to("d.txt")
        code, stdout, stderr = run(capsys, "simulate", "--in", seg_file, "--out", str(out),
                                   "--log", str(log), "--loss", ".1")
        assert (code, stdout) == (1, "")
        assert stderr == (f"error: InvalidOption: --log {str(log)!r} and --out {str(out)!r} "
                          "name the same file\n")
        if through == "symlink":
            assert out.read_bytes() == b"old\n" and log.is_symlink()
        else:
            assert not out.exists()
        assert not list(tmp_path.glob(".voicesms-*"))


class TestStats:
    def test_table(self, wav_path, capsys):
        code, stdout, _ = run(capsys, "stats", "--in", wav_path)
        lines = stdout.splitlines()
        assert code == 0
        assert lines[0].split() == [
            "codec", "chars", "messages", "connected", "capacity", "cost_model", "group_size"
        ]
        assert len(lines) == 4
        assert lines[1].split()[:4] == ["pcm", "800", "6", "2"]

    def test_csv_with_codec_selection(self, wav_path, capsys):
        code, stdout, _ = run(
            capsys, "stats", "--in", wav_path, "--csv", "--codec", "ulaw"
        )
        assert code == 0
        assert stdout.splitlines() == [
            "codec,chars,messages,connected,capacity,cost_model,group_size",
            "ulaw,400,3,1,157,uniform,3",
        ]


class TestRoundtrip:
    def test_transparent_pcm_bit_exact(self, wav_path, tmp_path, capsys):
        out = tmp_path / "out.wav"
        code, stdout, _ = run(
            capsys, "roundtrip", "--in", wav_path, "--out", str(out)
        )
        assert code == 0
        assert out.read_bytes() == Path(wav_path).read_bytes()
        summary_lines = stdout.splitlines()
        assert summary_lines[0] == "chars=800 messages=6 connected=2"
        assert summary_lines[1] == "input=6 delivered=6 dropped=0 duplicated=0"
        assert summary_lines[2].startswith("rate=8000 samples=400 ")

    def test_lossy_loose_keeps_surviving_span(self, wav_path, tmp_path, capsys):
        # Seed 5 at 40% loss drops segments 0 and 2 of the three ulaw
        # segments; the middle 157-sample span still comes back as audio.
        out = tmp_path / "out.wav"
        code, stdout, _ = run(
            capsys, "roundtrip", "--in", wav_path, "--out", str(out),
            "--codec", "ulaw", "--loss", "0.4", "--seed", "5", "--policy", "loose",
        )
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "chars=400 messages=3 connected=1"
        assert lines[1] == "input=3 delivered=1 dropped=2 duplicated=0"
        assert lines[2] == "rate=8000 samples=157 received=1 missing=0 duplicates=0"
        assert read_wav(out.read_bytes()).sample_count == 157

    def test_strict_over_lossy_channel_fails(self, wav_path, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "roundtrip", "--in", wav_path, "--out", str(tmp_path / "o.wav"),
            "--loss", "0.9", "--seed", "1", "--policy", "strict",
        )
        assert code == 1
        assert "MissingSegments" in stderr


# Seed 5 loses middle segments under every codec, so strict runs fail.
LOSSY = ["--loss", "0.3", "--dup", "0.2", "--delay", "5", "--seed", "5"]


@pytest.mark.parametrize("policy", ["loose", "strict"])
@pytest.mark.parametrize("codec", ["pcm", "ulaw", "toy"])
def test_roundtrip_is_encode_simulate_decode(codec, policy, tmp_path, capsys):
    # roundtrip behaves exactly like the three commands chained through files.
    src = tmp_path / "in.wav"
    src.write_bytes(write_wav(make_clip(2000, seed=12)))
    seg, got, piped, direct = (str(tmp_path / name)
                               for name in ("segs.txt", "got.txt", "piped.wav", "direct.wav"))
    flags = ["--codec", codec]
    _, encoded, _ = run(capsys, "encode", "--in", str(src), "--out", seg, *flags)
    _, simulated, _ = run(capsys, "simulate", "--in", seg, "--out", got, *LOSSY)
    decode_code, decoded, decode_err = run(capsys, "decode", "--in", got, "--out", piped,
                                           *flags, "--policy", policy)
    code, stdout, stderr = run(capsys, "roundtrip", "--in", str(src), "--out", direct,
                               *flags, *LOSSY, "--policy", policy)
    assert (code, stderr) == (decode_code, decode_err)
    assert stdout == encoded + simulated + decoded
    assert code == (1 if policy == "strict" else 0)
    if code == 0:
        assert (tmp_path / "direct.wav").read_bytes() == (tmp_path / "piped.wav").read_bytes()
    else:
        # the encode and channel lines still print; no output or temp file is left
        assert "MissingSegments" in stderr and len(stdout.splitlines()) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["got.txt", "in.wav", "segs.txt"]


def test_module_entry_point(wav_path, tmp_path):
    assert fresh_main("encode", "--in", wav_path, "--out", str(tmp_path / "o.txt")) == (
        0, "chars=800 messages=6 connected=2\n")


def test_module_entry_point_in_process(wav_path, tmp_path, capsys, monkeypatch):
    import runpy

    out = tmp_path / "o.txt"
    monkeypatch.setattr(sys, "argv", ["voicesms", "encode", "--in", wav_path, "--out", str(out)])
    with pytest.raises(SystemExit) as info:
        runpy.run_module("voicesms", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == "chars=800 messages=6 connected=2"


def test_no_temp_droppings_after_failure(tmp_path, capsys):
    # A failed run leaves neither the output file nor any temp file behind.
    src = tmp_path / "broken.wav"
    src.write_bytes(b"not a wav at all")
    run(capsys, "encode", "--in", str(src), "--out", str(tmp_path / "o.txt"))
    assert [p.name for p in tmp_path.iterdir()] == ["broken.wav"]


def output_modes(wav_path, tmp_path, capsys, umask):
    """The modes of every command's outputs, written under ``umask``."""
    outputs = [tmp_path / name for name in ("segs.txt", "got.txt", "log.txt", "o.wav", "rt.wav")]
    segs, got, log, wav, rt = map(str, outputs)
    old = os.umask(umask)
    try:
        assert run(capsys, "encode", "--in", wav_path, "--out", segs)[0] == 0
        assert run(capsys, "simulate", "--in", segs, "--out", got, "--log", log)[0] == 0
        assert run(capsys, "decode", "--in", got, "--out", wav)[0] == 0
        assert run(capsys, "roundtrip", "--in", wav_path, "--out", rt)[0] == 0
    finally:
        os.umask(old)
    return [stat.S_IMODE(p.stat().st_mode) for p in outputs]


def test_outputs_get_normal_permissions(wav_path, tmp_path, capsys):
    # Outputs get the mode open() would give them under the process umask.
    assert output_modes(wav_path, tmp_path, capsys, 0o022) == [0o644] * 5


def test_outputs_follow_a_strict_umask(wav_path, tmp_path, capsys):
    # The umask is read, not assumed: 077 leaves the owner's bits only.
    assert output_modes(wav_path, tmp_path, capsys, 0o077) == [0o600] * 5


def assert_failed_cleanly(result, tmp_path, exc_name):
    """One error line, nothing on stdout, and no temp file left beside the target."""
    code, stdout, stderr = result
    assert (code, stdout) == (1, "")
    assert stderr.startswith(f"error: {exc_name}: ") and stderr.count("\n") == 1
    assert not list(tmp_path.glob(".voicesms-*"))


def test_out_naming_a_directory_fails_after_the_temp_file(wav_path, tmp_path, capsys):
    # The temp file is written in full; os.replace then refuses to put it over a directory.
    target = tmp_path / "outdir"
    target.mkdir()
    (target / "kept.txt").write_bytes(b"kept")
    result = run(capsys, "encode", "--in", wav_path, "--out", str(target))
    assert_failed_cleanly(result, tmp_path, "IsADirectoryError")
    assert [p.name for p in target.iterdir()] == ["kept.txt"]
    # the error names the target the user gave, not the temp file
    assert result[2].endswith(f": {str(target)!r}\n") and ".voicesms-" not in result[2]


def test_out_in_a_missing_directory_names_the_out_path(wav_path, tmp_path, capsys):
    target = str(tmp_path / "nodir" / "segs.txt")
    result = run(capsys, "encode", "--in", wav_path, "--out", target)
    assert_failed_cleanly(result, tmp_path, "FileNotFoundError")
    assert result[2] == (f"error: FileNotFoundError: [Errno {errno.ENOENT}] "
                         f"{os.strerror(errno.ENOENT)}: {target!r}\n")


def test_failed_fsync_keeps_the_existing_output(wav_path, tmp_path, capsys, monkeypatch):
    target = tmp_path / "segs.txt"
    target.write_bytes(b"old\n")

    def fail(fd):
        raise OSError(errno.EIO, "fsync failed")

    monkeypatch.setattr(os, "fsync", fail)
    result = run(capsys, "encode", "--in", wav_path, "--out", str(target))
    assert_failed_cleanly(result, tmp_path, "OSError")
    assert target.read_bytes() == b"old\n"


def test_out_symlink_is_written_through(wav_path, tmp_path, capsys):
    assert run(capsys, "encode", "--in", wav_path, "--out", str(tmp_path / "direct.txt"))[0] == 0
    (tmp_path / "real.txt").write_bytes(b"old\n")
    link = tmp_path / "link.txt"
    link.symlink_to("real.txt")
    assert run(capsys, "encode", "--in", wav_path, "--out", str(link))[0] == 0
    assert link.is_symlink() and os.readlink(link) == "real.txt"
    assert (tmp_path / "real.txt").read_bytes() == (tmp_path / "direct.txt").read_bytes()
    assert not list(tmp_path.glob(".voicesms-*"))


def test_dangling_out_symlink_creates_its_target(wav_path, tmp_path, capsys):
    link = tmp_path / "link.txt"
    link.symlink_to("made.txt")
    assert run(capsys, "encode", "--in", wav_path, "--out", str(link))[0] == 0
    assert link.is_symlink() and os.readlink(link) == "made.txt"
    assert read_segment_lines(tmp_path / "made.txt")
    assert not list(tmp_path.glob(".voicesms-*"))


@pytest.mark.parametrize("kind", [stat.S_ISFIFO, stat.S_ISLNK], ids=["fifo", "symlink-loop"])
def test_out_naming_a_non_regular_file_is_refused(kind, wav_path, tmp_path, capsys):
    # Refused before any temp file is made; os.replace would put a file in its place.
    target = tmp_path / "target"
    if kind is stat.S_ISFIFO:
        os.mkfifo(target)
    else:
        target.symlink_to("target")
    result = run(capsys, "encode", "--in", wav_path, "--out", str(target))
    assert_failed_cleanly(result, tmp_path, "OSError")
    assert result[2] == f"error: OSError: not a regular file: {str(target)!r}\n"
    assert kind(os.lstat(target).st_mode)


# Each subcommand's long options in help order, and what parse_args fills in
# when only the required paths are given.
CONTRACT = {
    "encode": ("--in --out --codec --decimation --capacity --cost --group",
               dict(codec="pcm", decimation=4, capacity=157, cost="uniform", group=3)),
    "decode": ("--in --out --codec --decimation --policy --rate --bits",
               dict(codec="pcm", decimation=4, policy="loose", rate=8000, bits=16)),
    "simulate": ("--in --out --loss --dup --delay --seed --log",
                 dict(loss=0.0, dup=0.0, delay=0, seed=0, log_path=None)),
    "stats": ("--in --codec --decimation --capacity --cost --group --csv",
              dict(codecs=None, decimation=4, capacity=157, cost="uniform", group=3, csv=False)),
    "roundtrip": ("--in --out --codec --decimation --capacity --cost --group "
                  "--loss --dup --delay --seed --policy",
                  dict(codec="pcm", decimation=4, capacity=157, cost="uniform", group=3,
                       loss=0.0, dup=0.0, delay=0, seed=0, policy="loose")),
}


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as caught:
        main([*argv, "--help"])
    assert caught.value.code == 0
    return capsys.readouterr().out


def test_top_level_help_lists_the_commands_in_order(capsys):
    assert "{encode,decode,simulate,stats,roundtrip}" in help_text(capsys)


@pytest.mark.parametrize("command", CONTRACT)
def test_subcommand_flags_and_defaults(command, capsys):
    # Only the option names and their order are pinned: argparse's help
    # layout differs between Python versions.
    usage = help_text(capsys, command).split("\n\n")[0]
    flags, defaults = CONTRACT[command]
    flags = flags.split()
    assert re.findall(r"--[a-z]+", usage) == flags
    expected = {"command": command, "in_path": "i", **defaults}
    argv = [command, "--in", "i"]
    if "--out" in flags:
        argv += ["--out", "o"]
        expected["out_path"] = "o"
    assert vars(build_parser().parse_args(argv)) == expected


def test_each_call_gets_its_own_parser():
    assert build_parser() is not build_parser()


def test_a_patch_on_one_parser_does_not_leak(wav_path, capsys, monkeypatch):
    # Wraps parse_args on the instance, as bench/tracing.py does.
    calls = []
    unpatched = cli.build_parser

    def counting_build_parser():
        parser = unpatched()
        parse_args = parser.parse_args

        def counting(*args, **kwargs):
            calls.append(args)
            return parse_args(*args, **kwargs)
        parser.parse_args = counting
        return parser

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    assert run(capsys, "stats", "--in", wav_path)[0] == 0
    monkeypatch.undo()
    assert run(capsys, "stats", "--in", wav_path)[0] == 0
    assert len(calls) == 1


def test_appended_codecs_do_not_build_up(wav_path, capsys):
    rows = [len(run(capsys, "stats", "--in", wav_path, *codec)[1].splitlines()) - 1
            for codec in (["--codec", "ulaw"], ["--codec", "pcm"], [])]
    assert rows == [1, 1, 3]


def test_a_failed_parse_leaves_nothing_behind(wav_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as caught:
        main(["encode"])
    assert caught.value.code == 2
    capsys.readouterr()
    code, stdout, _ = run(capsys, "encode", "--in", wav_path, "--out", str(tmp_path / "a.txt"))
    assert (code, stdout) == fresh_main("encode", "--in", wav_path, "--out", str(tmp_path / "b.txt"))
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_help_width_is_read_when_help_prints(capsys, monkeypatch):
    for columns in (80, 120):
        monkeypatch.setenv("COLUMNS", str(columns))
        assert (0, help_text(capsys, "encode")) == fresh_main("encode", "--help", columns=columns)


# The error contract: bad input names a VoiceSmsError, an environment fault
# an OSError, each on one line with exit 1; anything else is a bug.
NOT_TEXT = b"000\xff\xfe\n"


def test_invalid_option_and_not_text_are_voicesms_errors_and_value_errors():
    for cls in (InvalidOption, NotText):
        assert issubclass(cls, VoiceSmsError) and issubclass(cls, ValueError)


def test_a_value_error_from_a_bug_propagates(wav_path, tmp_path, capsys, monkeypatch):
    seg_file = str(tmp_path / "segs.txt")
    assert run(capsys, "encode", "--in", wav_path, "--out", seg_file)[0] == 0

    def broken(messages, cfg):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "transmit", broken)
    with pytest.raises(ValueError, match="^boom$"):
        main(["simulate", "--in", seg_file, "--out", str(tmp_path / "d.txt")])


@pytest.mark.parametrize("command", ["simulate", "decode"])
def test_a_segments_file_that_is_not_utf8_names_not_text(command, tmp_path, capsys):
    src = tmp_path / "segs.txt"
    src.write_bytes(NOT_TEXT)
    code, stdout, stderr = run(capsys, command, "--in", str(src), "--out", str(tmp_path / "o"))
    assert (code, stdout) == (1, "")
    assert stderr == f"error: NotText: {str(src)!r} is not UTF-8 text: invalid start byte at byte 3\n"
    assert [p.name for p in tmp_path.iterdir()] == ["segs.txt"]


_HOSTILE_FLAGS = ("--decimation", "--capacity", "--group", "--loss", "--dup", "--delay",
                  "--seed", "--rate", "--bits")
# 10**12 is refused before anything is allocated. A decimation near 2e9 is
# never drawn: decoding a non-empty toy stream there would allocate gigabytes.
_HOSTILE_VALUES = ("0", "-1", "nan", "inf", str(10**12))
_WAV = write_wav(make_clip(200, seed=3))
# besides these, a valid input: a WAV for the commands that read one, else a segments file
_INPUTS = {"truncated-wav": _WAV[:len(_WAV) // 2], "empty": b"", "not-text": NOT_TEXT}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_run_succeeds_or_names_its_error(data):
    command = data.draw(st.sampled_from(sorted(CONTRACT)), label="command")
    options = CONTRACT[command][0].split()
    source = data.draw(st.sampled_from(["valid", *_INPUTS]), label="input")
    argv = []
    for _ in range(data.draw(st.integers(0, 2))):
        argv += [data.draw(st.sampled_from([f for f in _HOSTILE_FLAGS if f in options])),
                 data.draw(st.sampled_from(_HOSTILE_VALUES))]
    if "--codec" in options and data.draw(st.booleans()):
        argv += ["--codec", data.draw(st.sampled_from(["pcm", "ulaw", "toy"]))]
    if source != "valid":
        content = _INPUTS[source]
    elif command in ("encode", "stats", "roundtrip"):
        content = _WAV
    else:
        content = b"000ABCD\n001EFGH\n"
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "in")
        Path(src).write_bytes(content)
        argv = [command, "--in", src, *argv]
        if "--out" in options:
            argv += ["--out", os.path.join(tmp, "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the value
                code = exc.code
                assert code == 2
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    elif code == 1:
        line, = err.getvalue().splitlines()
        name = re.match(r"error: (\w+): ", line).group(1)
        reported = getattr(errors, name, None) or getattr(builtins, name)
        assert issubclass(reported, (VoiceSmsError, OSError))
