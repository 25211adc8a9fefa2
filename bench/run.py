#!/usr/bin/env python3
"""voicesms benchmark: seeded pseudo-speech clips through the real CLI.

    python3 bench/run.py --workload ulaw-lossy --seed 1 --seconds 20 --trace 0

Setting: one single-threaded, closed-loop client in one process. Each
clip's job calls ``voicesms.cli.main([...])`` in-process, one command after
another, with its files in a temporary directory inside the checkout; the
next job starts only when the previous one has finished and been checked.
There is no server and no arrival schedule.

Workloads (see ``WORKLOADS`` and bench/README.md for the rationale):

* ``ulaw-lossy``  encode --codec ulaw | simulate loss .1 dup .05 delay 8 |
  decode --policy loose, 10 s clips.
* ``pcm-reorder`` encode --codec pcm --capacity 160 (1000 segments) |
  simulate loss .02 dup .2 delay 32 | decode --codec pcm --policy loose,
  10 s clips.
* ``stats-wide``  stats --cost wide over pcm, ulaw and toy, 5 s clips.

Every op is checked by an independent oracle (bench/oracle.py). With
``--trace 0`` each job is paired with the same job run through a frozen
reference copy of the package (bench/yardstick.py), and job times are
reported relative to it, because the host's speed drifts too much for raw
times to be steady; set-up time is taken the same way. With ``--trace 1``
the run alternates untraced jobs with the same jobs run with spans around
the program's cross-module calls (bench/tracing.py), checks both, and
reports the per-layer metrics and the raw job latency. The last line of stdout is one JSON object; progress and
diagnostics go to stderr.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracing import Tracer, instrument

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_OPS = 100          # so that at least ten samples lie beyond the p90
MIN_TRACED_OPS = 20
WALL_LIMIT_S = 140.0   # stop early rather than overrun the run's time limit
WARMUP_JOBS = 2
IMPORT_PAIRS = 25
# Median fresh-interpreter import time of seedref.cli on the host the
# benchmark was built on (2 vCPUs): setup_s is the program's import time
# relative to seedref's, expressed in that host's seconds.
REFERENCE_IMPORT_S = 0.015

# name -> unit, in the order printed
END_TO_END = {
    "op_rel_p50": "x",
    "op_rel_p90": "x",
    "messages_per_clip": "count",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer time metric -> span names whose self time it sums
LAYER_SPANS = {
    "audio.read_wav_ms": ["audio.read_wav"],
    "audio.codec_encode_ms": ["audio.codec_encode"],
    "audio.codec_decode_ms": ["audio.codec_decode"],
    "audio.write_wav_ms": ["audio.write_wav"],
    "payload.bytes_to_codepoints_ms": ["payload.bytes_to_codepoints"],
    "payload.codepoints_to_bytes_ms": ["payload.codepoints_to_bytes"],
    "segmentation.segment_ms": ["segmentation.segment"],
    "segmentation.render_segments_file_ms": ["segmentation.render_segments_file"],
    "reassembly.parse_segments_file_ms": ["reassembly.parse_segments_file"],
    "reassembly.reassemble_ms": ["reassembly.reassemble"],
    "channel.transmit_ms": ["channel.transmit"],
    "channel.render_channel_log_ms": ["channel.render_channel_log"],
    "metrics.compare_self_ms": ["metrics.compare"],
    "metrics.render_table_ms": ["metrics.render_table"],
    "cli.parse_args_ms": ["cli.parse_args"],
    "cli.file_io_ms": ["cli.file_io"],
    "cli.glue_ms": ["cli.encode", "cli.simulate", "cli.decode", "cli.stats"],
}
LAYER_COUNTS = ["audio.samples", "payload.points", "segmentation.segments",
                "segmentation.fill_ratio", "channel.delivered", "channel.dropped",
                "channel.duplicated", "reassembly.useful_ratio", "reassembly.missing"]
PER_LAYER = {
    "cli.op_ms_p50": "ms",
    "cli.audio_s_per_s": "s/s",
    **{name: "ms" for name in LAYER_SPANS},
    "cli.encode_ms_p50": "ms",
    "cli.simulate_ms_p50": "ms",
    "cli.decode_ms_p50": "ms",
    "cli.stats_ms_p50": "ms",
    **{name: ("ratio" if name.endswith("_ratio") else "count") for name in LAYER_COUNTS},
    "trace.op_ms_p50": "ms",
    "trace.overhead_ms": "ms",
}


def load_program():
    """Import voicesms from this checkout's sources, never from elsewhere."""
    if not (SRC / "voicesms" / "cli.py").is_file():
        sys.exit(f"error: no voicesms sources at {SRC / 'voicesms'}")
    sys.path.insert(0, str(SRC))
    import voicesms.cli
    if Path(voicesms.cli.__file__).resolve().parent != SRC / "voicesms":
        sys.exit(f"error: imported voicesms from {voicesms.cli.__file__}, not {SRC}")
    return voicesms.cli


class Pipeline:
    """encode | simulate --log | decode over uniform-cost segments."""

    def __init__(self, name, clip_seconds, pool, codec, capacity, encode, channel, decode):
        self.name, self.clip_seconds, self.pool = name, clip_seconds, pool
        self.codec, self.capacity = codec, capacity
        self.encode, self.channel, self.decode = encode, channel, decode
        self.steps = ["encode", "simulate", "decode"]

    @staticmethod
    def outputs(out_dir: Path):
        return [out_dir / "segments.txt", out_dir / "delivered.txt", out_dir / "channel.log",
                out_dir / "decoded.wav"]

    def commands(self, wav: Path, out_dir: Path, channel_seed: int):
        seg, delivered, log, decoded = map(str, self.outputs(out_dir))
        return [
            ["encode", "--in", str(wav), "--out", seg, *self.encode],
            ["simulate", "--in", seg, "--out", delivered, "--log", log,
             "--seed", str(channel_seed), *self.channel],
            ["decode", "--in", delivered, "--out", decoded, *self.decode],
        ]

    def prepare(self, oracle, spec, samples, path: Path):
        path.write_bytes(spec.codec_bytes(samples, self.codec))

    def expectation(self, oracle, spec, path: Path):
        return oracle.PipelineExpectation(spec, path.read_bytes(), self.codec, self.capacity)

    def check(self, expect, out_dir: Path, stdouts):
        seg, delivered, log, decoded = (p.read_bytes() for p in self.outputs(out_dir))
        return expect.check(seg, delivered, log.decode("utf-8"), decoded)

    def messages(self, out_dir: Path, stdouts) -> int:
        return self.outputs(out_dir)[0].read_bytes().count(b"\n")

    def cost_units(self, expect) -> int:
        return len(expect.stream)

    def counts(self, expect, stdouts) -> dict:
        """The per-layer counts of one job, from the commands' summaries."""
        enc, sim, dec = (dict(field.split("=", 1) for field in out.split()) for out in stdouts)
        segments, lines = int(enc["messages"]), int(sim["delivered"])
        return {
            "audio.samples": int(dec["samples"]),
            "payload.points": int(enc["chars"]),
            "segmentation.segments": segments,
            "segmentation.fill_ratio": self.cost_units(expect) / (segments * self.capacity),
            "channel.delivered": lines,
            "channel.dropped": int(sim["dropped"]),
            "channel.duplicated": int(sim["duplicated"]),
            "reassembly.useful_ratio": int(dec["received"]) / lines,
            "reassembly.missing": 0 if dec["missing"] == "-" else dec["missing"].count(",") + 1,
        }


class Stats:
    """stats over the default codecs, checked against a greedy count."""

    codecs = ["pcm", "ulaw", "toy"]

    def __init__(self, name, clip_seconds, pool, capacity, args):
        self.name, self.clip_seconds, self.pool = name, clip_seconds, pool
        self.capacity, self.args = capacity, args
        self.steps = ["stats"]

    @staticmethod
    def outputs(out_dir: Path):
        return []

    def commands(self, wav: Path, out_dir: Path, channel_seed: int):
        return [["stats", "--in", str(wav), *self.args]]

    def prepare(self, oracle, spec, samples, path: Path):
        rows = oracle.stats_rows(spec, samples, self.codecs, self.capacity)
        path.write_text(json.dumps([len(samples), rows]), encoding="utf-8")

    def expectation(self, oracle, spec, path: Path):
        samples, rows = json.loads(path.read_text(encoding="utf-8"))
        return oracle.StatsExpectation(samples, rows, self.capacity)

    def check(self, expect, out_dir: Path, stdouts):
        return expect.check(stdouts[0])

    def messages(self, out_dir: Path, stdouts) -> int:
        return sum(int(line.split()[2]) for line in stdouts[0].splitlines()[1:])

    def cost_units(self, expect) -> int:
        return sum(row[3] for row in expect.rows)

    def counts(self, expect, stdouts) -> dict:
        rows = [line.split() for line in stdouts[0].splitlines()[1:]]
        segments = sum(int(row[2]) for row in rows)
        return {
            "audio.samples": expect.samples,
            "payload.points": sum(int(row[1]) for row in rows),
            "segmentation.segments": segments,
            "segmentation.fill_ratio": self.cost_units(expect) / (segments * self.capacity),
            "channel.delivered": 0,
            "channel.dropped": 0,
            "channel.duplicated": 0,
            "reassembly.useful_ratio": 0.0,
            "reassembly.missing": 0,
        }


WORKLOADS = {
    w.name: w for w in [
        Pipeline("ulaw-lossy", 10.0, 8, "ulaw", 157,
                 encode=["--codec", "ulaw"],
                 channel=["--loss", "0.1", "--dup", "0.05", "--delay", "8"],
                 decode=["--codec", "ulaw", "--policy", "loose"]),
        Pipeline("pcm-reorder", 10.0, 8, "pcm", 160,
                 encode=["--codec", "pcm", "--capacity", "160"],
                 channel=["--loss", "0.02", "--dup", "0.2", "--delay", "32"],
                 decode=["--codec", "pcm", "--policy", "loose"]),
        Stats("stats-wide", 5.0, 16, 157, args=["--cost", "wide"]),
    ]
}


def run_cli(main, argv):
    """(ms, exit status or error text, stdout) of one in-process CLI call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = perf_counter()
        try:
            status = main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed op, not a failed run
            status = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return elapsed * 1e3, status, buf.getvalue()


IMPORTS = [(SRC, "voicesms.cli"), (BENCH, "seedref.cli")]  # program, reference


def import_seconds(path: Path, module: str) -> float:
    """Fresh-interpreter time to import ``module`` from ``path``."""
    code = ("import sys, time\nsys.path.insert(0, sys.argv[1])\n"
            f"t = time.perf_counter()\nimport {module}\nprint(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(path)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def import_ratio(program_first: bool) -> float:
    """The program's import time over seedref's, in fresh interpreters back to back."""
    order = IMPORTS if program_first else IMPORTS[::-1]
    times = {module: import_seconds(path, module) for path, module in order}
    return times["voicesms.cli"] / times["seedref.cli"]


class Yardstick:
    """The child process that times reference jobs (see yardstick.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "yardstick.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def time(self, commands) -> float:
        self.proc.stdin.write(json.dumps(commands) + "\n")
        self.proc.stdin.flush()
        ms, status = json.loads(self.proc.stdout.readline())
        if status != 0:
            raise RuntimeError(f"reference job {commands} exited with {status}")
        return ms

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else median(values)


class Run:
    """One workload's clip pool and the jobs run on it, untraced."""

    def __init__(self, workload, seed, work: Path):
        self.cli = load_program()
        import oracle

        subprocess.run([sys.executable, str(BENCH / "prepare.py"), workload.name, str(seed),
                        str(work)], check=True, timeout=120)
        self.wl = workload
        self.rng = random.Random(f"{workload.name}/{seed}/channel")
        spec = oracle.Spec()
        self.clips = [(work / f"clip{i}.wav",
                       workload.expectation(oracle, spec, work / f"clip{i}.expect"))
                      for i in range(workload.pool)]
        self.work = work
        self.out = work / "cli"
        self.out.mkdir()
        self.jobs = 0
        self.attempted = 0
        self.failed = 0
        self.short = False
        self.busy_ms = 0.0
        self.op_ms = []
        self.ref_ms = []
        self.step_ms = {step: [] for step in workload.steps}
        self.audio_s = 0.0
        self.messages = {}

    def next_job(self):
        index = self.jobs % len(self.clips)
        self.jobs += 1
        return index, self.rng.getrandbits(32)

    def run_job(self, index, channel_seed, call=run_cli, around=contextlib.nullcontext):
        """Run one clip's commands through cli.main and check the outputs.

        Each command goes through ``call(main, argv)``, all of them inside
        ``around()``. Returns (ms per command, stdouts, None or what is wrong).
        """
        wav, expect = self.clips[index]
        for path in self.wl.outputs(self.out):
            path.unlink(missing_ok=True)
        gc.collect()
        times, stdouts, error = [], [], None
        with around():
            for argv in self.wl.commands(wav, self.out, channel_seed):
                ms, status, stdout = call(self.cli.main, argv)
                times.append(ms)
                stdouts.append(stdout)
                if status != 0:
                    error = f"{argv[0]} exited with {status}"
                    break
        if error is None:
            error = self.wl.check(expect, self.out, stdouts)
        if error is not None:
            print(f"{self.wl.name}: clip {index} seed {channel_seed}: {error}", file=sys.stderr)
        return times, stdouts, error

    def cli_job(self, index, channel_seed, record=True):
        """One untraced job; (None or what is wrong, stdouts)."""
        times, stdouts, error = self.run_job(index, channel_seed)
        if record:
            self.attempted += 1
            self.busy_ms += sum(times)
            if error is None:
                self.op_ms.append(sum(times))
                for step, ms in zip(self.wl.steps, times):
                    self.step_ms[step].append(ms)
                self.audio_s += self.wl.clip_seconds
                self.messages.setdefault(index, self.wl.messages(self.out, stdouts))
            else:
                self.failed += 1
        return error, stdouts

    def loop(self, seconds, min_ops, job, between=None):
        """Warm up, then run jobs until ``seconds`` of timed jobs and ``min_ops`` jobs.

        ``between(busy_ms)`` runs before each measured job, outside its timing.
        A run cut by the wall-clock limit before ``min_ops`` jobs is marked short.
        """
        for _ in range(WARMUP_JOBS):
            job(*self.next_job(), record=False)
        wall = perf_counter()
        while ((self.busy_ms < seconds * 1e3 or self.attempted < min_ops)
               and perf_counter() - wall < WALL_LIMIT_S):
            if between:
                between(self.busy_ms)
            job(*self.next_job())
        if self.attempted < min_ops:
            self.short = True
            print(f"{self.wl.name}: wall-clock limit of {WALL_LIMIT_S:g} s reached after "
                  f"{self.attempted} of {min_ops} jobs; the result is not valid", file=sys.stderr)

    def relative_job(self, index, channel_seed, record=True):
        """The program's job and the yardstick's, back to back, alternating
        which goes first."""
        commands = self.wl.commands(self.clips[index][0], self.work / "reference", channel_seed)
        if self.jobs % 2:
            ref_ms = self.yardstick.time(commands)
        error, _ = self.cli_job(index, channel_seed, record)
        if not self.jobs % 2:
            ref_ms = self.yardstick.time(commands)
        if record and error is None:
            self.ref_ms.append(ref_ms)
            self.busy_ms += ref_ms

    def end_to_end(self, seconds):
        # Import times drift with the host as job times do, so each sample
        # is a ratio to seedref's import time, taken back to back, and the
        # samples are spread evenly over the measured time.
        for path, module in IMPORTS:
            import_seconds(path, module)  # compiles the bytecode caches
        ratios = []

        def sample_import(busy_ms):
            if len(ratios) < IMPORT_PAIRS and busy_ms >= len(ratios) * seconds * 1e3 / IMPORT_PAIRS:
                ratios.append(import_ratio(program_first=len(ratios) % 2 == 0))

        (self.work / "reference").mkdir()
        self.yardstick = Yardstick()
        try:
            self.loop(seconds, MIN_OPS, self.relative_job, sample_import)
        finally:
            self.yardstick.close()
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "op_rel_p50": median([op / ref for op, ref in zip(self.op_ms, self.ref_ms)]),
            "op_rel_p90": p90(self.op_ms) / p90(self.ref_ms) if self.ref_ms else 0.0,
            "messages_per_clip": statistics.fmean(self.messages.values()) if self.messages else 0.0,
            "ok_share": (self.attempted - self.failed) / self.attempted,
            "setup_s": REFERENCE_IMPORT_S * statistics.median(ratios),
            "peak_rss_mb": rss_kb / 1024.0,
        }


class TracedRun(Run):
    """Each untraced job is followed by the same job with spans around the
    program's cross-module calls."""

    def __init__(self, workload, seed, work: Path):
        super().__init__(workload, seed, work)
        self.tracer = Tracer()
        self.counts = {name: [] for name in LAYER_COUNTS}
        self.traced_ops = []

    @contextlib.contextmanager
    def traced_op(self):
        with instrument(self.tracer), self.tracer.begin_op():
            yield

    def traced_call(self, main, argv):
        with self.tracer.span("cli." + argv[0]):
            return run_cli(main, argv)

    def paired_job(self, index, channel_seed, record=True):
        error, _ = self.cli_job(index, channel_seed, record)
        if error is not None:
            return
        _, stdouts, error = self.run_job(index, channel_seed, self.traced_call, self.traced_op)
        if not record:
            return
        if error is not None:
            self.failed += 1
            return
        op = self.tracer.op
        self.traced_ops.append(op)
        self.busy_ms += self.tracer.op_ms(op)
        for name, value in self.wl.counts(self.clips[index][1], stdouts).items():
            self.counts[name].append(value)

    def per_layer(self, seconds):
        self.loop(seconds, MIN_TRACED_OPS, self.paired_job)
        selfs = [self.tracer.self_ms(op) for op in self.traced_ops]
        metrics = {"cli.op_ms_p50": median(self.op_ms),
                   "cli.audio_s_per_s": self.audio_s / (sum(self.op_ms) / 1e3) if self.op_ms else 0.0}
        metrics.update({name: median([sum(s.get(n, 0.0) for n in spans) for s in selfs])
                        for name, spans in LAYER_SPANS.items()})
        for step in ("encode", "simulate", "decode", "stats"):
            metrics[f"cli.{step}_ms_p50"] = median(self.step_ms.get(step, []))
        metrics.update({name: median(values) for name, values in self.counts.items()})
        traced = median([self.tracer.op_ms(op) for op in self.traced_ops])
        metrics["trace.op_ms_p50"] = traced
        metrics["trace.overhead_ms"] = traced - median(self.op_ms)
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time of measured jobs to run, after warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for the measuring process and every child it starts: the
    # host's speed differs between CPUs as well as over time, and the
    # program and the yardstick must be timed on the same one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch, prefix=f"{workload.name}-"))
    try:
        if args.trace:
            run = TracedRun(workload, args.seed, work)
            metrics, units = run.per_layer(args.seconds), PER_LAYER
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            run.tracer.dump(str(out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl"))
        else:
            run = Run(workload, args.seed, work)
            metrics, units = run.end_to_end(args.seconds), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    print(json.dumps({
        "correct": run.failed == 0 and bool(run.op_ms) and not run.short,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
