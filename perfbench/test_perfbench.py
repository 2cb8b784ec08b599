"""Smoke tests of the benchmark at tiny sizes, so the harness cannot rot.

They run every workload untraced and traced, and check correctness, the
metric names against ``BENCHMARK.json``, the counts that describe each
workload, and the tracer's self-checks. They assert no timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, script: Path = HERE / "run.py", cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_of_every_workload(trace, section):
    done = _bench("--workload", "all", "--seed", "5", "--seconds", "0", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3 * len(SPEC["workloads"])
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    metrics = result["metrics"]
    for workload in (w["name"] for w in SPEC["workloads"]):
        got = {k.split("/", 1)[1]: v["unit"] for k, v in metrics.items() if k.startswith(workload + "/")}
        assert got == expected, workload
    if trace == "1":
        value = lambda key: metrics[key]["value"]  # noqa: E731
        assert value("headline_run/signals.stream_reuse") == 1.0
        assert value("mu_sweep/signals.stream_reuse") == 0.2
        assert value("mu_sweep/experiment.setup_builds") == 5
        assert value("mu_sweep/filters.wasted_rounds") > 0
        assert value("headline_run/filters.useful_round_ratio") == 1.0
        assert value("denoise_wav/analysis.diverged_trials") == 0
        assert value("denoise_wav/filters.calls") == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench(
        "--workload", "headline_run", "--seed", "1", "--seconds", "1", "--trace", "0",
        script=tmp_path / "perfbench" / "run.py", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_missing_boundary_fails_loudly(monkeypatch):
    from diffusion_lms import cli, config, experiment

    monkeypatch.delattr(experiment, "run_filter")
    with pytest.raises(tracing.TraceError, match="run_filter is missing"):
        with tracing.Tracer("headline_run"):
            pass
    assert cli.parse_config is config.parse_config  # wrappers already installed are removed


def test_boundary_without_spans_fails_loudly():
    with pytest.raises(tracing.TraceError, match="experiment:run_filter"):
        tracing.Tracer("headline_run").check_boundaries()


def test_counts_that_do_not_repeat_fail_loudly():
    runs = [Counter({k: 1 for k in tracing.PER_LAYER_UNITS}) for _ in range(2)]
    runs[1]["filters.rounds"] = 2
    with pytest.raises(tracing.TraceError, match="filters.rounds"):
        tracing.summarize(runs, [1.0, 1.0], [1.0], [1.0], [1.0])


def test_blas_thread_count_is_read_from_the_library():
    import os

    import run

    assert 1 <= run.blas_threads() <= os.cpu_count()


def test_program_clock_stops_while_sampling():
    from time import perf_counter

    import calibration

    with calibration.Sampler(calibration.Kernel((20, 5))) as sampler:
        start, clock_start = perf_counter(), sampler.clock()
        while perf_counter() - start < 0.3:
            pass
        elapsed, clock_elapsed = perf_counter() - start, sampler.clock() - clock_start
    assert sampler.samples
    assert sampler.paused > sum(sampler.samples)  # warm-up runs are paused too
    assert clock_elapsed == pytest.approx(elapsed - sampler.paused, abs=1e-3)
