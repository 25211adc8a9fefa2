"""Reference jobs for relative timing, run in a child process.

The host's speed drifts by up to 2x over seconds to minutes, so a job's
wall time says as much about the neighbours as about the program. run.py
therefore runs every measured job twice, back to back and in alternating
order: once through the program and once through ``seedref``, a frozen copy
of the package's sources kept as a yardstick. Both see the same machine
state, so their ratio is steady where the raw times are not.

The yardstick runs in this separate process so that its memory never
counts towards the measured process's peak RSS. Protocol, one JSON value
per line: read a list of argv lists, run them in order through
``seedref.cli.main`` with stdout discarded, reply ``[milliseconds, status]``.
"""

import contextlib
import gc
import io
import json
import sys
from time import perf_counter

import seedref.cli


def main() -> None:
    for line in sys.stdin:
        gc.collect()
        elapsed, status = 0.0, 0
        for argv in json.loads(line):
            with contextlib.redirect_stdout(io.StringIO()):
                start = perf_counter()
                status = seedref.cli.main(argv) or status
                elapsed += perf_counter() - start
        print(json.dumps([elapsed * 1e3, status]), flush=True)


if __name__ == "__main__":
    main()
