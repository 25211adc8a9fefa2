"""Fail if any executable line under src/voicesms/ is never run by tier-1.

Run from the repository root:

    PYTHONPATH=src python3 tests/line_gate.py

It installs a stdlib line tracer (``sys.settrace`` and ``threading.settrace``)
before anything imports ``voicesms``, runs the tier-1 suite in process with
``pytest.main``, then compares the lines that ran against every line that
starts an instruction in some code object of each module
(``dis.findlinestarts``, nested functions and classes included). It prints
``file:line`` for each line that never ran and exits non-zero if there is
any, or if the suite itself fails. The name has no ``test_`` prefix, so
pytest does not collect it.

Deselected: the two wall-clock gates that a line tracer slows past their
ceilings, ``test_c04_segmentation_round_trip_fuzz_under_10s`` and
``test_c06_ulaw_exhaustive_scan_under_100ms``. The plain tier-1 run still
runs both unchanged.
"""

import dis
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "voicesms"
DESELECT = ("tests/test_acceptance.py::test_c04_segmentation_round_trip_fuzz_under_10s",
            "tests/test_acceptance.py::test_c06_ulaw_exhaustive_scan_under_100ms")

ran: dict[str, set[int]] = {}  # resolved path of a package file -> lines run
_watched: dict[str, set[int] | None] = {}  # co_filename -> its set in ``ran``, or None


def _lines(frame, event, arg):
    if event == "line":
        _watched[frame.f_code.co_filename].add(frame.f_lineno)
    return _lines


def _calls(frame, event, arg):
    """Global tracer: trace lines only in frames of the package's files."""
    name = frame.f_code.co_filename
    if name not in _watched:
        path = Path(name).resolve()
        _watched[name] = ran.setdefault(str(path), set()) if path.parent == PACKAGE else None
    return _lines if _watched[name] is not None else None


def executable_lines(path: Path) -> set[int]:
    """Every line that starts an instruction in the module or a nested code object."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _offset, line in dis.findlinestarts(code) if line)
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main() -> int:
    if "voicesms" in sys.modules:
        raise SystemExit("voicesms was imported before the tracer was installed")
    threading.settrace(_calls)
    sys.settrace(_calls)
    try:
        status = pytest.main(["-q", "-W", "error", "--rootdir", str(ROOT), str(ROOT / "tests"),
                              *(f"--deselect={node}" for node in DESELECT)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted(PACKAGE.glob("*.py"))
             for line in sorted(executable_lines(path) - ran.get(str(path.resolve()), set()))]
    print("\n".join(unrun) if unrun else "line gate: every executable line ran")
    return 1 if unrun or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
