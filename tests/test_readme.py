"""The README's library example runs, and its config example parses,
against the code as it is, so the documented API and config format cannot
drift from the package."""

import re
from pathlib import Path

from diffusion_lms.config import parse_config_text
from diffusion_lms.experiment import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:python", "exec"), {"__name__": "readme_example"})


def test_config_example_parses_to_the_defaults():
    blocks = re.findall(r"^```ini\n(.*?)^```$", README.read_text(encoding="utf-8"), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    assert parse_config_text(blocks[0], origin=f"{README}:ini") == ExperimentConfig()
