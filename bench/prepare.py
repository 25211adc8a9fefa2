"""Write a workload's clip pool and the oracle's expectations to a directory.

run.py starts this as a child process, so the memory that speech synthesis
and the expectations need never counts towards the measured process's peak
RSS. The clips come from the workload seed alone.

    python3 bench/prepare.py WORKLOAD SEED DIR
"""

import random
import sys
from pathlib import Path

from run import WORKLOADS


def prepare(workload, seed: int, directory: Path) -> None:
    import oracle
    from speech import speech_samples, wav_bytes

    rng = random.Random(f"{workload.name}/{seed}/clips")
    spec = oracle.Spec()
    for i in range(workload.pool):
        samples = speech_samples(workload.clip_seconds, rng.getrandbits(64))
        (directory / f"clip{i}.wav").write_bytes(wav_bytes(samples))
        workload.prepare(oracle, spec, samples, directory / f"clip{i}.expect")


if __name__ == "__main__":
    name, seed, directory = sys.argv[1:]
    prepare(WORKLOADS[name], int(seed), Path(directory))
