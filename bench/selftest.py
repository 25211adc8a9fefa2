"""Self-test of the benchmark at the smallest run length.

    python3 bench/selftest.py

Checks, in order:

1. Each workload with ``--seconds 1``, untraced and traced: the last stdout
   line names exactly the metrics BENCHMARK.json lists, each with its unit,
   and no op failed on the current code.
2. The oracle rejects corrupted outputs: one flipped sample in the decoded
   WAV, a decode that lost one delivered line, a delivered file missing a
   line, and a stats table with one message count off by one.
3. In a directory holding only BENCHMARK.json and bench/, run.py exits
   with a non-zero status and prints no result.

Exits non-zero on the first failed check.
"""

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check(condition, message, detail=""):
    if not condition:
        sys.exit(f"selftest FAILED: {message}\n{detail}")
    print(f"ok  {message}")


def result_of(cwd: Path, workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = done.stdout.splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done.stderr


def check_runs():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            status, result, stderr = result_of(run.ROOT, workload, trace)
            check(status == 0 and result is not None,
                  f"{workload} --trace {trace} exits 0 with a result", stderr[-2000:])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == {m["name"]: m["unit"] for m in SPEC[key]},
                  f"{workload} --trace {trace} prints every {key} metric with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} --trace {trace}: {result['attempted']} ops, none failed")
            if trace == 0:
                check(result["metrics"]["ok_share"]["value"] == 1.0,
                      f"{workload}: ok_share is 1 (failed share 0)")


def check_oracle(work: Path):
    pipeline = run.Run(run.WORKLOADS["ulaw-lossy"], 1, work / "pipeline")
    index, channel_seed = pipeline.next_job()
    error, _ = pipeline.cli_job(index, channel_seed)
    check(error is None, "oracle accepts a correct ulaw-lossy job")
    _, expect = pipeline.clips[index]
    seg, delivered, log, wav = (p.read_bytes() for p in pipeline.wl.outputs(pipeline.out))
    log = log.decode("utf-8")

    flipped = bytearray(wav)
    flipped[44 + 2 * 1000] ^= 0x01
    check(expect.check(seg, delivered, log, bytes(flipped)) is not None,
          "oracle rejects a decoded WAV with one flipped sample")

    lines = delivered.split(b"\n")
    counts = {}
    for line in lines[:-1]:
        counts[line[:3]] = counts.get(line[:3], 0) + 1
    drop = next(i for i, line in enumerate(lines[:-1]) if counts[line[:3]] == 1)
    short = b"\n".join(lines[:drop] + lines[drop + 1:])
    check(expect.check(seg, short, log, wav) is not None,
          "oracle rejects a delivered file with one line dropped")

    delivered_path, decoded_path = pipeline.wl.outputs(pipeline.out)[1::2]
    delivered_path.write_bytes(short)
    _, status, _ = run.run_cli(pipeline.cli.main, ["decode", "--in", str(delivered_path),
                                                   "--out", str(decoded_path), "--codec", "ulaw"])
    check(status == 0 and expect.check(seg, delivered, log, decoded_path.read_bytes()) is not None,
          "oracle rejects a decode that lost one delivered segment")

    stats = run.Run(run.WORKLOADS["stats-wide"], 1, work / "stats")
    index, channel_seed = stats.next_job()
    error, stdouts = stats.cli_job(index, channel_seed)
    check(error is None, "oracle accepts a correct stats-wide job")
    _, expect = stats.clips[index]
    rows = stdouts[0].splitlines()
    cells = rows[1].split()
    cells[2] = str(int(cells[2]) + 1)
    rows[1] = "  ".join(cells)
    check(expect.check("\n".join(rows) + "\n") is not None,
          "oracle rejects a stats table with one message count off by one")


def check_bare(work: Path):
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    status, result, _ = result_of(bare, SPEC["workloads"][0]["name"], 0)
    check(status != 0 and result is None,
          "run.py fails without a result when the sources are absent")


def main():
    check_runs()
    scratch = run.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch, prefix="selftest-"))
    try:
        for sub in ("pipeline", "stats"):
            (work / sub).mkdir()
        check_oracle(work)
        check_bare(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print("selftest passed")


if __name__ == "__main__":
    main()
