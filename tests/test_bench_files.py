"""Every performance trajectory file at the repository root is complete: it
parses, names the parent commit it was measured against, and holds both
sides' medians and quartiles of every end-to-end metric of every workload
that BENCHMARK.json declares."""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
FILES = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_trajectory_file_is_complete(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    assert re.fullmatch(r"[0-9a-f]{40}", data["parent"]["git_sha"])
    pairs = data["pairs"]
    assert pairs >= 1
    for workload in BENCHMARK["workloads"]:
        for metric in BENCHMARK["end_to_end"]:
            entry = data["workloads"][workload["name"]][metric["name"]]
            for side in ("parent", "change"):
                spread = entry[side]
                assert len(spread["values"]) == pairs
                assert all(math.isfinite(v) for v in spread["values"])
                assert spread["q1"] <= spread["median"] <= spread["q3"]
            assert entry["change_better_pairs"] + entry["parent_better_pairs"] <= pairs
