"""Benchmark of the diffusion-lms CLI: four workloads, end-to-end metrics
untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload headline_run --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0 --tiny

Every execution calls ``diffusion_lms.cli.main(argv)`` in this process on
inputs generated from ``--seed``, and is checked: exit code, outputs
against ``reference.json``, and bytes against the run's first execution.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Untraced (``--trace 0``) it carries the
end-to-end metrics; traced (``--trace 1``) the per-layer metrics. Work files
go to ``.perfbench_out/`` at the repository root; per-run results, with
quartiles, sample counts, run metadata and (traced) the spans, go to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

# one BLAS thread: the program is single-threaded Python, and a pinned
# thread count keeps timings steady on a shared host
BLAS_THREADS = 1
MIN_EXECUTIONS = 3  # untraced; also the minimum of each kind in a traced run
MIN_TRACED = 2  # counts are compared across at least two traced executions
# one block of set-up repetitions runs before every untraced execution, so
# set-up is sampled across the whole run like the executions are
SETUP_BLOCK_REPS = 50
SETUP_BLOCK_S = 0.1

END_TO_END_UNITS = {
    "wall_s": "s",
    "node_rounds_per_s": "node_rounds/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Execution:
    wall_s: float  # on the program clock: calibration samples excluded
    exit_code: int | None  # None when main raised
    digest: str
    files: dict[str, int]  # output name -> bytes
    log: str
    traced: bool
    kernel_s: list[float]  # calibration kernel times sampled during the execution


def _pin_blas() -> None:
    """Fix the BLAS thread count; takes effect only before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def blas_threads() -> int:
    """The thread count the loaded OpenBLAS reports."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.restype = ctypes.c_int
                return get()
    raise RuntimeError(f"no OpenBLAS with a thread count query in {libs}")


def _bootstrap() -> None:
    """Import the program from this checkout's ``src``, with BLAS pinned."""
    _pin_blas()
    sys.path.insert(0, str(SRC))
    import diffusion_lms

    if Path(diffusion_lms.__file__).resolve().parent != SRC / "diffusion_lms":
        raise ImportError(f"diffusion_lms was imported from {diffusion_lms.__file__}, not {SRC}")


def _outputs(out_dir: Path) -> tuple[str, dict[str, int]]:
    digest = hashlib.sha256()
    files = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data)
            files[path.name] = len(data)
    return digest.hexdigest(), files


def execute(main, prep, out_dir: Path, kernel, tracer=None) -> Execution:
    """One timed execution: from ``main(argv)`` until its files are on disk.
    It is timed on the sampler's program clock, so the time spent in
    calibration samples is not counted."""
    from calibration import Sampler

    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    argv = [*prep.argv, "--out", str(out_dir)]
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), Sampler(kernel) as sampler:
        start = sampler.clock()
        try:
            if tracer is None:
                code = main(argv)
            else:
                with tracer:
                    code = tracer.run(main, argv, sampler.clock)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = None
            traceback.print_exc()
        wall = sampler.clock() - start
    digest, files = _outputs(out_dir)
    return Execution(wall, code, digest, files, log.getvalue(), tracer is not None, sampler.samples)


def measure_setup(prep) -> list[float]:
    """One block of repeated set-up before the first filter round: parse
    the config, build the network and model, and load the WAV samples."""
    from diffusion_lms.config import parse_config
    from diffusion_lms.experiment import build_setup
    from diffusion_lms.signals import load_samples

    times: list[float] = []
    start = perf_counter()
    while len(times) < SETUP_BLOCK_REPS and (not times or perf_counter() - start < SETUP_BLOCK_S):
        t0 = perf_counter()
        build_setup(parse_config(prep.config_path))
        if prep.wav_path is not None:
            load_samples(prep.wav_path)
        times.append(perf_counter() - t0)
    return times


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_metadata(prep, size: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = blas_threads()
    if threads != BLAS_THREADS:
        raise RuntimeError(f"BLAS runs {threads} threads, not the pinned {BLAS_THREADS}")
    return {
        "seed": prep.seed,
        "variant": prep.variant,
        "base_seed": prep.base_seed,
        "topology_seed": prep.topology_seed,
        "size": size,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def _spread(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_workload(args: argparse.Namespace) -> int:
    _bootstrap()
    from diffusion_lms.cli import main

    import calibration
    import checks
    import tracing
    import workloads

    size = "tiny" if args.tiny else "full"
    run_dir = WORK / f"run-{os.getpid()}"
    out_dir = run_dir / "out"
    try:
        prep = workloads.prepare(args.workload, args.seed, size, run_dir / "inputs")
        references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        reference = references[size][prep.name][str(prep.variant)]
        meta = run_metadata(prep, size)

        setup: list[list[float]] = []  # one block per untraced execution
        tracer = tracing.Tracer(prep.name) if args.trace else None
        runs: list[Execution] = []
        kernel = calibration.Kernel(prep.shape)
        calibrations = [kernel.measure()]  # one before and after each execution
        misses: list[str] = []
        start = perf_counter()
        while True:
            untraced = [r for r in runs if not r.traced]
            traced = [r for r in runs if r.traced]
            enough = len(untraced) >= MIN_EXECUTIONS and (tracer is None or len(traced) >= MIN_TRACED)
            # stop before an execution that would end past the measured time
            if enough and perf_counter() - start + median(r.wall_s for r in runs) > args.seconds:
                break
            use_tracer = tracer is not None and len(traced) < len(untraced)
            if tracer is None:
                setup.append(measure_setup(prep))
            runs.append(execute(main, prep, out_dir, kernel, tracer if use_tracer else None))
            calibrations.append(kernel.measure())
            if len(runs) == 1:
                try:
                    misses = checks.check(prep, out_dir, reference)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    misses = [f"unreadable outputs: {exc!r}"]
        failures = [
            r for r in runs if r.exit_code != 0 or r.digest != runs[0].digest or misses
        ]
        for miss in misses:
            print(f"output check: {miss}", file=sys.stderr)
        for i, r in enumerate(runs):
            if r.exit_code != 0:
                print(f"execution {i} exited {r.exit_code}:\n{r.log[-2000:]}", file=sys.stderr)
            elif r.digest != runs[0].digest:
                print(f"execution {i}: output bytes differ from execution 0", file=sys.stderr)

        scales = [kernel.scale([calibrations[i], *r.kernel_s, calibrations[i + 1]]) for i, r in enumerate(runs)]
        scaled = [r.wall_s * f for r, f in zip(runs, scales)]
        untraced_wall = [w for w, r in zip(scaled, runs) if not r.traced]
        traced_wall = [w for w, r in zip(scaled, runs) if r.traced]
        record = {
            "workload": prep.name,
            "trace": args.trace,
            "meta": meta,
            "misses": misses,
            "raw_wall_s": [r.wall_s for r in runs],
            "scale": scales,
            "calibration_s": calibrations,
        }
        if tracer is None:
            wall = median(untraced_wall)
            setup_s = [t * kernel.scale([calibrations[i]]) for i, block in enumerate(setup) for t in block]
            metrics = {
                "wall_s": wall,
                "node_rounds_per_s": prep.node_rounds / wall,
                "setup_s": median(setup_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            record["wall_s"] = _spread(untraced_wall)
            record["setup_s"] = _spread(setup_s)
            record["node_rounds"] = prep.node_rounds
        else:
            tracer.check_boundaries()
            traced_runs = [(r, f) for r, f in zip(runs, scales) if r.traced]
            per_execution = [
                tracer.execution_metrics(i, r.wall_s, f, r.files) for i, (r, f) in enumerate(traced_runs)
            ]
            untraced_runs = [(r, f) for r, f in zip(runs, scales) if not r.traced]
            metrics = tracing.summarize(
                per_execution,
                traced_wall,
                untraced_wall,
                [r.wall_s for r, _ in untraced_runs],
                [f for _, f in untraced_runs],
            )
            units = tracing.PER_LAYER_UNITS
            record["wall_s"] = _spread(traced_wall)
            record["untraced_wall_s"] = _spread(untraced_wall)
            record["spans"] = tracer.spans
        record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    except tracing.TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{prep.name}-{size}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{prep.name} ({size}) seed {args.seed} variant {prep.variant} trace {args.trace}")
    for key, value in metrics.items():
        extra = ""
        if key == "wall_s":
            s = record["wall_s"]
            raw = median(r.wall_s for r in runs if not r.traced)
            extra = f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}; unscaled median {raw:.6g})"
        print(f"  {key:<30} {value:>14.6g} {units[key]}{extra}")
    print(f"  {'failed_frac':<30} {len(failures) / len(runs):>14.6g} ratio  ({len(failures)}/{len(runs)})")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: benchmark exited {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{workload}/{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    _pin_blas()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny input sizes (smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "diffusion_lms" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
