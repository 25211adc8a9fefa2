"""Run one declared grid of CLI invocations and digest everything each run
prints and writes, or compare that against another revision's ``src/``.

Run from anywhere in the repository:

    python3 tests/cli_grid.py                   # one line per run
    python3 tests/cli_grid.py --against HEAD~1  # the runs that differ
    python3 tests/cli_grid.py --python python3.10 --against HEAD

Each line holds a run's argv, its exit code, and the SHA-256 of its
stdout, its stderr and each file it left in its working directory.
``--against REV`` extracts ``src/`` of ``REV`` with a local ``git archive``,
runs the same grid on it and on this tree's ``src/``, and prints the first
run that differs, a count of the differing runs per command and change of
outcome (exit code and the error named), and the totals; it exits 1 if any
run differs. ``--python`` picks the interpreter that runs the grid.

The grid covers each command over the axes it reads: codec, decimation 0,
1, 3 and 4, capacity 1, 2, 157 and 160, cost model, a clean and a lossy
channel, and both policies, on 0-, 1- and 8001-sample 16-bit clips and an
8-bit clip; ``stats`` codec orderings with repeats; ``--delay 10**12``; an
``--out`` symlink; and the known error paths. The inputs are built here,
with no ``voicesms`` import, so both sides read the same bytes. Runs go in
process, one interpreter per tree. ``--help`` and argparse usage errors
are left out: their layout differs across Python versions. The name has
no ``test_`` prefix, so pytest does not collect it;
``tests/test_cli_grid.py`` runs a slice of it.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import re
import shlex
import shutil
import struct
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CODECS = ("pcm", "ulaw", "toy")
DECIMATIONS = ("0", "1", "3", "4")
CAPACITIES = ("1", "2", "157", "160")
COSTS = ("uniform", "wide")
CHANNELS = ((), ("--loss", "0.1", "--dup", "0.05", "--delay", "8", "--seed", "1"))
POLICIES = ("loose", "strict")
CLIPS = ("c0.wav", "c1.wav", "c8001.wav", "c8bit.wav")
SEGMENT_FILES = ("segs.txt", "lossy.txt", "gap2.txt", "odd.txt", "empty.txt")
STATS_CODECS = ((), ("--csv",), ("--codec", "ulaw", "--codec", "toy", "--csv"),
                ("--codec", "toy", "--codec", "ulaw", "--codec", "toy", "--codec", "pcm"))


def _wav(samples, bit_depth=16, rate=8000) -> bytes:
    """A canonical mono RIFF/WAVE container of the given signed samples."""
    if bit_depth == 8:
        data = bytes(s + 128 for s in samples)
    else:
        data = struct.pack(f"<{len(samples)}h", *samples)
    width = bit_depth // 8
    pad = b"\0" * (len(data) % 2)
    return (struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data) + len(pad), b"WAVE",
                        b"fmt ", 16, 1, 1, rate, rate * width, width, bit_depth,
                        b"data", len(data)) + data + pad)


def _line(index: int, payload: bytes) -> str:
    """One segments-file line: bytes 0..31 ride as points 256..287."""
    return f"{index:03d}" + "".join(chr(b + 256 if b < 32 else b) for b in payload) + "\n"


def make_inputs(directory: Path) -> None:
    """Write every input file the grid reads into ``directory``."""
    rng = random.Random(31)
    full = [rng.randrange(-32768, 32768) for _ in range(8001)]
    blob = bytes(rng.randrange(256) for _ in range(1570))
    lines = [_line(i, blob[i * 157:(i + 1) * 157]) for i in range(10)]
    files = {
        "c0.wav": _wav([]),
        "c1.wav": _wav([-12345]),
        "c8001.wav": _wav(full),
        "c8bit.wav": _wav([rng.randrange(-128, 128) for _ in range(401)], bit_depth=8),
        "bad.wav": b"RIFX" + bytes(40),
        "segs.txt": "".join(lines),
        "lossy.txt": "".join(lines[i] for i in (9, 5, 0, 8, 5, 2, 1, 7, 4, 6, 5)),  # 3 lost
        "gap2.txt": "000AB\n002CD\n",
        "odd.txt": _line(0, blob[:3]),
        "empty.txt": "",
        "not-text.txt": b"000\xff\xfe\n",
        "bad-index.txt": "000AB\nxx\n",
        "control.txt": "000A\x05\n",
        "mismatch.txt": "000AB\n000AC\n",
    }
    for name, content in files.items():
        (directory / name).write_bytes(content if isinstance(content, bytes) else content.encode())


def grid() -> list[tuple[list[str], tuple]]:
    """Every run as (argv, setup); ``setup`` names what exists in the run
    directory before it starts: ``("link", name, target)`` or ``("dir", name)``."""
    runs = []

    def add(*argv, setup=()):
        runs.append(([*argv], setup))

    for clip, codec, d, cap, cost in itertools.product(CLIPS, CODECS, DECIMATIONS, CAPACITIES, COSTS):
        add("encode", "--in", f"../in/{clip}", "--out", "out.txt", "--codec", codec,
            "--decimation", d, "--capacity", cap, "--cost", cost)
    for segs, codec, d, policy in itertools.product(SEGMENT_FILES, CODECS, DECIMATIONS, POLICIES):
        add("decode", "--in", f"../in/{segs}", "--out", "out.wav", "--codec", codec,
            "--decimation", d, "--policy", policy)
    for segs in ("segs.txt", "odd.txt"):
        add("decode", "--in", f"../in/{segs}", "--out", "out.wav", "--bits", "8")
    for segs, channel, log in itertools.product(("segs.txt", "lossy.txt", "empty.txt"),
                                                CHANNELS, ((), ("--log", "log.txt"))):
        add("simulate", "--in", f"../in/{segs}", "--out", "out.txt", *channel, *log)
    for clip, codecs, d, cap, cost in itertools.product(CLIPS, STATS_CODECS, DECIMATIONS, CAPACITIES, COSTS):
        add("stats", "--in", f"../in/{clip}", *codecs, "--decimation", d, "--capacity", cap,
            "--cost", cost)
    for clip, codec, d, cap, cost, channel, policy in itertools.product(
            CLIPS, CODECS, DECIMATIONS, CAPACITIES, COSTS, CHANNELS, POLICIES):
        add("roundtrip", "--in", f"../in/{clip}", "--out", "out.wav", "--codec", codec,
            "--decimation", d, "--capacity", cap, "--cost", cost, *channel, "--policy", policy)
    # known error paths, and the edges no axis reaches
    add("encode", "--in", "../in/missing.wav", "--out", "out.txt")
    add("encode", "--in", "../in/bad.wav", "--out", "out.txt")
    add("encode", "--in", "../in/c8001.wav", "--out", "out.txt", "--capacity", "0")
    add("encode", "--in", "../in/c8001.wav", "--out", "out.txt", "--group", "0")
    add("encode", "--in", "../in/c8001.wav", "--out", "link.txt", setup=("link", "link.txt", "real.txt"))
    add("encode", "--in", "../in/c8001.wav", "--out", "out.txt", setup=("dir", "out.txt"))
    add("encode", "--in", "../in/c8001.wav", "--out", "missing/out.txt")
    for segs in ("not-text.txt", "bad-index.txt", "control.txt", "mismatch.txt"):
        add("decode", "--in", f"../in/{segs}", "--out", "out.wav")
    add("decode", "--in", "../in/segs.txt", "--out", "out.wav", "--rate", "3000000000")
    for segs in ("segs.txt", "empty.txt"):  # refused before allocating, or nothing to hold
        add("decode", "--in", f"../in/{segs}", "--out", "out.wav", "--codec", "toy",
            "--decimation", "2000000000")
    add("simulate", "--in", "../in/segs.txt", "--out", "out.txt", "--loss", "1.5")
    add("simulate", "--in", "../in/segs.txt", "--out", "out.txt", "--dup", "-0.1")
    add("simulate", "--in", "../in/segs.txt", "--out", "out.txt", "--log", "out.txt")
    add("simulate", "--in", "../in/not-text.txt", "--out", "out.txt")
    add("simulate", "--in", "../in/segs.txt", "--out", "out.txt", "--delay", str(10**12), "--seed", "1")
    add("stats", "--in", "../in/bad.wav")
    add("roundtrip", "--in", "../in/c8001.wav", "--out", "out.wav", "--loss", "2")
    return runs


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_one(main, argv, setup, directory: Path) -> dict:
    """Run ``main(argv)`` in an emptied ``directory``; return what it printed
    and the digest of each entry it left there."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    if setup and setup[0] == "link":
        (directory / setup[2]).write_bytes(b"")
        (directory / setup[1]).symlink_to(setup[2])
    elif setup:
        (directory / setup[1]).mkdir()
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a bug: record it rather than stop the grid
                code = f"raised {type(exc).__name__}"
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    finally:
        os.chdir(cwd)
    files = {}
    for path in sorted(directory.rglob("*")):
        name = path.relative_to(directory).as_posix()
        if path.is_symlink():
            files[name] = "->" + os.readlink(path)
        elif path.is_dir():
            files[name] = "dir"
        else:
            files[name] = _digest(path.read_bytes())
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files}


def run_all(main, runs, workdir: Path):
    """Yield ``run_one``'s record for each run, with the inputs in ``workdir/in``."""
    inputs = workdir / "in"
    if not inputs.exists():
        inputs.mkdir(parents=True)
        make_inputs(inputs)
    for argv, setup in runs:
        yield run_one(main, argv, setup, workdir / "run")


def render(record: dict) -> str:
    """The run's line: argv, exit code, then the digests."""
    cells = [shlex.join(record["argv"]), f"exit={record['exit']}",
             f"stdout={_digest(record['stdout'].encode())}",
             f"stderr={_digest(record['stderr'].encode())}"]
    cells += [f"{name}={digest}" for name, digest in record["files"].items()]
    return "  ".join(cells)


def _worker(src: str, workdir: str) -> int:
    """Run the whole grid on the package under ``src``; one JSON record a line."""
    sys.path.insert(0, src)
    from voicesms.cli import main
    for record in run_all(main, grid(), Path(workdir)):
        print(json.dumps(record), flush=True)
    return 0


def _records(python: str, src: Path, workdir: Path) -> list[dict]:
    proc = subprocess.run([python, str(Path(__file__).resolve()), "--worker", str(src), str(workdir)],
                          capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"grid on {src} failed:\n{proc.stderr}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def _extract_src(rev: str, into: Path) -> Path:
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    return into / "src"


def _outcome(record: dict) -> str:
    """Exit code and the error class the run named, if any."""
    named = re.match(r"error: (\w+): ", record["stderr"])
    return f"exit={record['exit']}" + (f" {named.group(1)}" if named else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="compare with src/ of this git revision")
    parser.add_argument("--python", default=sys.executable, metavar="PATH",
                        help="interpreter that runs the grid (default: this one)")
    parser.add_argument("--worker", nargs=2, metavar=("SRC", "WORKDIR"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return _worker(*args.worker)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        here = _records(args.python, ROOT / "src", tmp / "here")
        if args.against is None:
            for record in here:
                print(render(record))
            print(f"cli_grid: {len(here)} runs")
            return 0
        there = _records(args.python, _extract_src(args.against, tmp / "rev"), tmp / "there")
    differ = [(a, b) for a, b in zip(there, here) if render(a) != render(b)]
    if differ:
        a, b = differ[0]
        print(f"first differing run:\n  {args.against}: {render(a)}\n  src/: {render(b)}\n"
              f"  {args.against}: {a['stderr']!r}\n  src/: {b['stderr']!r}")
        changes = collections.Counter(
            f"{b['argv'][0]}: {_outcome(a)} -> {_outcome(b)}"
            + (" (same outcome, other bytes)" if _outcome(a) == _outcome(b) else "")
            for a, b in differ)
        for change, count in sorted(changes.items()):
            print(f"{count:6d}  {change}")
    print(f"cli_grid: {len(here)} runs, {len(here) - len(differ)} same, {len(differ)} differ "
          f"(src/ against {args.against})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
