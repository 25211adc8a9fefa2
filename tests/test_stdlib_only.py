"""The package is pure standard-library Python: every import it makes
names either one of its own modules or a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "voicesms"


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_absolute_import_is_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    imported = {name: path.name for path in sources for name in absolute_imports(path)}
    assert "sys" in imported  # the scan sees imports at all
    outside = {name: where for name, where in imported.items()
               if name not in sys.stdlib_module_names}
    assert outside == {}
