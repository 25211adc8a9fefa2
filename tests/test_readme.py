"""The README's "Library use" example runs as written."""

import re
from pathlib import Path

from support import make_clip
from voicesms import AudioClip, write_wav

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "clip.wav").write_bytes(write_wav(make_clip(4000, seed=3)))
    namespace = {}
    exec(compile(library_use_block(), "README.md", "exec"), namespace)
    assert isinstance(namespace["heard"], AudioClip)
    assert (tmp_path / "heard.wav").exists()
