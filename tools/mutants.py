"""Run the mutation sentinels of ``tests/mutants.py``: every listed mutant
must make its pytest selector fail.

Usage::

    python3 tools/mutants.py

For each selector, a clean copy of ``src/``, ``tests/`` and
``pyproject.toml`` in a temporary directory must pass it first, so that a
failing test kills no mutant by accident. Then each row gets its own copy,
with the row's old text, which must occur exactly once in its file,
replaced by the new text; ``python -m pytest -x -q SELECTOR`` run there
must fail. Pytest runs from the copy, whose ``pyproject.toml`` puts the
copy's ``src/`` on the path, and each run reports where it imported
``diffusion_lms`` from: a run that imported it from anywhere but the copy
tested other code and fails the runner. Nothing is written inside the
checkout. Prints one markdown table row per mutant and a killed/total line;
exits 1 unless every mutant is killed.
"""

from __future__ import annotations

import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
IMPORTED = "imported diffusion_lms from "
# runs pytest, then reports where the package under test came from
PYTEST = (
    "import sys, pytest\n"
    "code = pytest.main(sys.argv[1:])\n"
    "module = sys.modules.get('diffusion_lms')\n"
    f"print({IMPORTED!r} + str(module and module.__file__))\n"
    "sys.exit(code)\n"
)


def copy_tree(dest: Path) -> None:
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(ROOT / name, dest / name)


def run_selector(tree: Path, selector: str) -> tuple[bool, str]:
    """Whether ``selector`` passes in ``tree``, and pytest's output."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", PYTEST, "-x", "-q", "-p", "no:cacheprovider", selector],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    origin = done.stdout.rpartition(IMPORTED)[2].strip()
    if origin != "None" and not Path(origin).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"{selector}: imported diffusion_lms from {origin}, outside the copy {tree}")
    return done.returncode == 0, done.stdout + done.stderr


def main() -> int:
    mutants = runpy.run_path(str(ROOT / "tests" / "mutants.py"))["MUTANTS"]
    start = time.perf_counter()
    failures = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        for selector in dict.fromkeys(row[3] for row in mutants):
            tree = Path(tempfile.mkdtemp(dir=tmp))
            copy_tree(tree)
            passed, output = run_selector(tree, selector)
            if not passed:
                print(output, file=sys.stderr)
                failures.append(f"{selector} fails without a mutant")
        print("| # | mutant | selector | result | s |\n|---|---|---|---|---|")
        killed = 0
        for i, (path, old, new, selector) in enumerate(mutants, 1):
            tree = Path(tempfile.mkdtemp(dir=tmp))
            copy_tree(tree)
            target = tree / path
            text = target.read_text(encoding="utf-8")
            if text.count(old) != 1:
                failures.append(f"mutant {i}: its old text occurs {text.count(old)} times in {path}, not once")
                print(f"| {i} | {path} | {selector} | old text does not match once | |")
                continue
            line = text[: text.index(old)].count("\n") + 1
            target.write_text(text.replace(old, new), encoding="utf-8")
            began = time.perf_counter()
            passed, _ = run_selector(tree, selector)
            killed += not passed
            if passed:
                failures.append(f"mutant {i} ({path}:{line}) survives {selector}")
            result = "survived" if passed else "killed"
            print(f"| {i} | {path}:{line} | {selector} | {result} | {time.perf_counter() - began:.1f} |", flush=True)
    print(f"\nkilled {killed}/{len(mutants)} mutants in {time.perf_counter() - start:.0f} s")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
