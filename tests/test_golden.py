"""Byte-identity gate on everything the CLI prints and writes.

Each digest covers a fixed grid of ``encode``, ``stats --csv``,
``simulate --log`` and ``decode`` runs over one clip and one codec: every
exit code, stdout, stderr and output file, in run order. The digests were
recorded with the code as it stood before the receive side moved into
``metrics.decode``, so a rewrite that changes a single byte of observable
output fails here. A change that alters the output on purpose records new
digests and says why.
"""

import hashlib

import pytest

from support import make_clip
from voicesms import write_wav
from voicesms.cli import main

CLIPS = {
    "16bit": (make_clip(4001, seed=2), "16"),
    "8bit": (make_clip(401, seed=2, bit_depth=8), "8"),
}
CHANNELS = {
    "clean": (),
    "lossy": ("--loss", ".3", "--dup", ".2", "--delay", "5", "--seed", "3"),
}

DIGESTS = {
    ("16bit", "pcm"): "58bf28ac34f5710d9db22ca6a218b807e87632805d265503bc47d14fee99acac",
    ("16bit", "ulaw"): "e0b87deff028650bebc7abf8abff3bfe27841d636e2883914374f6785dfa2aaa",
    ("16bit", "toy"): "fbc6a08a814d74530b3dc1b2a9216baa9265839f4c439a31933e6b450df86f52",
    ("8bit", "pcm"): "6cab641b105b51fde3d0d002e3692a58536f252ed272de0ad629d1f81ebbcc79",
}


def run_grid(clip, bits: str, codec: str, tmp_path, capsys) -> str:
    """Run the grid in ``tmp_path`` (the working directory) and hash what
    every run printed and wrote."""
    (tmp_path / "in.wav").write_bytes(write_wav(clip))
    digest = hashlib.sha256()

    def run(*argv, outputs=()):
        code = main(list(argv))
        captured = capsys.readouterr()
        err = captured.err.replace(str(tmp_path), "<tmp>")
        digest.update(repr((argv, code, captured.out, err)).encode("utf-8"))
        for name in outputs:
            path = tmp_path / name
            digest.update(hashlib.sha256(path.read_bytes()).digest() if path.exists()
                          else b"absent")

    for capacity in ("157", "60"):
        for cost in ("uniform", "wide"):
            shape = ("--capacity", capacity, "--cost", cost)
            segments = f"seg-{capacity}-{cost}.txt"
            run("encode", "--in", "in.wav", "--out", segments, "--codec", codec, *shape,
                outputs=[segments])
            run("stats", "--in", "in.wav", "--csv", "--codec", codec, *shape)
            for channel, flags in CHANNELS.items():
                got = f"got-{capacity}-{cost}-{channel}.txt"
                log = f"log-{capacity}-{cost}-{channel}.txt"
                run("simulate", "--in", segments, "--out", got, "--log", log, *flags,
                    outputs=[got, log])
                for policy in ("loose", "strict"):
                    heard = f"heard-{capacity}-{cost}-{channel}-{policy}.wav"
                    run("decode", "--in", got, "--out", heard, "--codec", codec,
                        "--policy", policy, "--bits", bits, outputs=[heard])
    return digest.hexdigest()


@pytest.mark.parametrize("clip_name, codec", list(DIGESTS))
def test_cli_output_is_byte_identical(clip_name, codec, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    clip, bits = CLIPS[clip_name]
    assert run_grid(clip, bits, codec, tmp_path, capsys) == DIGESTS[clip_name, codec]
