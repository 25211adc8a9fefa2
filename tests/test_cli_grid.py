"""A slice of ``tests/cli_grid.py`` runs in process, so the script cannot rot."""

import hashlib

import cli_grid
from voicesms.cli import main


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_grid_is_declared_once_with_no_help_runs():
    argvs = [tuple(argv) for argv, _setup in cli_grid.grid()]
    assert len(set(argvs)) == len(argvs)
    assert not any("--help" in argv for argv in argvs)
    assert {argv[0] for argv in argvs} == {"encode", "decode", "simulate", "stats", "roundtrip"}


def test_a_slice_runs_in_process(tmp_path):
    runs = cli_grid.grid()
    # the first 8-bit toy run is at decimation 0: two faults, and the spec is named
    two_faults = next(run for run in runs if "../in/c8bit.wav" in run[0] and "toy" in run[0])
    with_setup = [run for run in runs if run[1]]  # the --out symlink, then the directory
    records = list(cli_grid.run_all(main, runs[::97] + [two_faults] + with_setup, tmp_path))
    for record in records:
        assert record["exit"] in (0, 1)
        assert record["stderr"].startswith("error: ") == (record["exit"] == 1)
        assert cli_grid.render(record).startswith(" ".join(record["argv"]) + "  exit=")
    empty, *_sampled, refused, link, directory = records
    assert (empty["argv"][2], empty["stdout"]) == ("../in/c0.wav", "chars=0 messages=0 connected=0\n")
    assert empty["files"] == {"out.txt": digest("")}
    assert "0" == refused["argv"][refused["argv"].index("--decimation") + 1]
    assert refused["stderr"] == "error: InvalidOption: decimation must be >= 1, got 0\n"
    assert link["exit"] == 0 and link["files"]["link.txt"] == "->real.txt"
    assert link["files"]["real.txt"] != digest("")
    assert directory["exit"] == 1 and directory["files"] == {"out.txt": "dir"}
