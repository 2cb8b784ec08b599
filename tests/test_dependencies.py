"""The library depends on the standard library and numpy only: every
``import`` and ``from`` in ``src/diffusion_lms`` names one of those or the
package itself."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "diffusion_lms").glob("*.py"))
ALLOWED = sys.stdlib_module_names | {"numpy", "diffusion_lms"}


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_library_imports_only_stdlib_and_numpy():
    assert SOURCES
    foreign = {
        f"{path.name}: {name}" for path in SOURCES for name in imported_modules(path) if name.split(".")[0] not in ALLOWED
    }
    assert foreign == set()
