"""Command-line front end: run, sweep, denoise, validate.

Exit codes: 0 success, 1 internal error (a bug; Python prints the
traceback), 2 config error (also a run too large to allocate), 3 runtime
divergence, 4 I/O error, 5 data error (a malformed sample or edge-list
file). All numbers are serialized with 17 significant digits, so reruns of
the same config produce byte-identical files. Node indices and iterations
on the command line and in messages are 1-based, matching the edge-list
file format and the trace CSVs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from diffusion_lms import __version__
from diffusion_lms.config import ConfigError, format_config, parse_config
from diffusion_lms.experiment import denoise_speech, run_ensemble, sweep_leakage, sweep_step_size
from diffusion_lms.signals import DataFileError, wav_bytes

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4
EXIT_DATA = 5

MANIFEST_NAME = "manifest.json"
RESOLVED_CONFIG_NAME = "resolved_config.cfg"
ARTIFACT = "diffusion-lms"
# rows per ``%`` application: one whole-file format string would hold every
# rendered row and its arguments at once
SLAB_ROWS = 2048


def _csv(header: str, row: str, table: np.ndarray) -> str:
    """``header`` then one ``row % values`` line per row of the 2-D ``table``.

    One ``%`` renders a slab of SLAB_ROWS rows. ``%d`` takes an integral
    float, and ``%.17g`` renders every float exactly like
    ``format(value, ".17g")``, ``-inf``, ``inf``, ``nan`` and ``-0`` included.
    """
    parts = [header, "\n"]
    for start in range(0, len(table), SLAB_ROWS):
        slab = table[start : start + SLAB_ROWS]
        parts.append((row * len(slab)) % tuple(slab.ravel().tolist()))
    return "".join(parts)


def _indexed(first: int, *columns: np.ndarray) -> np.ndarray:
    """Rows of an index counted from ``first`` beside the given columns."""
    return np.column_stack((np.arange(first, first + len(columns[0])), *columns))


def _load_config(args: argparse.Namespace):
    out = getattr(args, "out", None)
    if out is not None:
        out_dir = Path(out).resolve()
        # the outputs are staged in a sibling of the output directory, named after
        # it: a directory with no name, such as the root, has no such sibling
        if not out_dir.name:
            raise ConfigError(f"--out: {out!r} resolves to {out_dir}, a directory with no name")
        # a file at or above the output directory would fail the write only after the run
        existing = next(path for path in (out_dir, *out_dir.parents) if path.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"--out: {existing} is not a directory")
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    return cfg


def _listed_outputs(manifest_path: Path) -> set[str]:
    """The plain file names an existing manifest lists under ``outputs``;
    none if there is no manifest or it is not one this program wrote."""
    try:
        manifest = json.loads(manifest_path.read_text(encoding="ascii"))
    except (FileNotFoundError, ValueError):
        return set()
    if not isinstance(manifest, dict) or manifest.get("artifact") != ARTIFACT:
        return set()
    listed = manifest.get("outputs")
    if not isinstance(listed, list):
        return set()
    return {
        name
        for name in listed
        if isinstance(name, str) and name not in ("", ".", "..", MANIFEST_NAME) and os.path.basename(name) == name
    }


def _write_outputs(args: argparse.Namespace, cfg, command: str, files: dict[str, str | bytes]) -> None:
    """Write all prepared files, the resolved config and the manifest into
    ``args.out``, then print their names, the manifest last; nothing
    touches disk before every payload is ready.

    Every file is first written into a temporary sibling of the output
    directory, named after it and the process id. Only then is any old
    manifest in the output directory deleted, with every file it lists
    that this run does not write, and the files moved in, the manifest
    last. A failure part way therefore leaves no manifest beside a mix of
    old and new files, and the temporary directory is always removed.
    Files no manifest lists are never touched.
    """
    cfg_text = format_config(cfg)
    files = {**files, RESOLVED_CONFIG_NAME: cfg_text}
    names = sorted(files)
    manifest = {
        "artifact": ARTIFACT,
        "version": __version__,
        "command": command,
        "base_seed": cfg.base_seed,
        "config": cfg_text,
        "outputs": names,
    }
    out_dir = Path(args.out).resolve()
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = out_dir.with_name(f".{out_dir.name}.{os.getpid()}.partial")
    # only a process with this pid owns the name: a leftover is from one that was killed
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        for name in names:
            payload = files[name]
            if isinstance(payload, bytes):
                (staging / name).write_bytes(payload)
            else:
                (staging / name).write_text(payload, encoding="utf-8")
        (staging / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="ascii"
        )
        out_dir.mkdir(exist_ok=True)
        stale = _listed_outputs(out_dir / MANIFEST_NAME).difference(names)
        (out_dir / MANIFEST_NAME).unlink(missing_ok=True)
        for name in sorted(stale):
            (out_dir / name).unlink(missing_ok=True)
        for name in names + [MANIFEST_NAME]:
            os.replace(staging / name, out_dir / name)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    staging.rmdir()
    for name in names + [MANIFEST_NAME]:
        print(name)


def cmd_run(args: argparse.Namespace, cfg) -> int:
    results = run_ensemble(cfg)
    traces = {k: v for k, v in results.items() if v.per_iteration_db is not None}
    failures = {k: v for k, v in results.items() if v.per_iteration_db is None}

    files: dict[str, str] = {}
    for label, trace in traces.items():
        files[f"trace_{label}.csv"] = _csv(
            "iteration,msd_db", "%d,%.17g\n", _indexed(1, trace.per_iteration_db)
        )
    if traces:
        files["comparison.csv"] = _csv(
            "iteration," + ",".join(traces),
            "%d" + ",%.17g" * len(traces) + "\n",
            _indexed(1, *(trace.per_iteration_db for trace in traces.values())),
        )

    _write_outputs(args, cfg, "run", files)
    for label, trace in traces.items():
        if trace.divergent_trials:
            print(
                f"note: {label}: {trace.divergent_trials}/{trace.trials} trials diverged and were excluded",
                file=sys.stderr,
            )
    if failures:
        for label, failure in failures.items():
            iteration, node = failure.first_divergence
            print(
                f"error: {label}: all {failure.trials} trials diverged"
                f" (first at iteration {iteration + 1}, node {node + 1})",
                file=sys.stderr,
            )
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace, cfg) -> int:
    try:
        grid = tuple(float(v) for v in args.grid.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"--grid: not a numeric list: {args.grid!r}") from None
    if args.param == "mu":
        results = sweep_step_size(cfg, grid)
    else:
        results = sweep_leakage(cfg, grid)

    files: dict[str, str] = {}
    for label, points in results.items():
        # a grid point whose every trial diverged holds the token "divergent"
        rows = [(value, "divergent" if db is None else "%.17g" % db) for value, db in points]
        table = np.array(rows, dtype=object)
        files[f"sweep_{args.param}_{label}.csv"] = _csv("param,steady_state_db", "%.17g,%s\n", table)
    _write_outputs(args, cfg, f"sweep_{args.param}", files)
    return EXIT_OK


def cmd_denoise(args: argparse.Namespace, cfg) -> int:
    if not 1 <= args.node <= cfg.nodes:
        raise ConfigError(f"--node: {args.node} out of range 1..{cfg.nodes}")
    result = denoise_speech(cfg, args.node - 1)
    files: dict[str, str | bytes] = {
        f"denoise_node{args.node}.csv": _csv(
            "t,noisy,filtered,residual",
            "%d,%.17g,%.17g,%.17g\n",
            _indexed(0, result.noisy, result.filtered, result.residual),
        ),
    }
    if result.sample_rate is not None:
        for name, data in (
            ("noisy", result.noisy),
            ("filtered", result.filtered),
            ("residual", result.residual),
        ):
            files[f"denoise_node{args.node}_{name}.wav"] = wav_bytes(data, result.sample_rate)
    _write_outputs(args, cfg, "denoise", files)
    if not np.isfinite(result.filtered).all():
        print("error: filter output is not finite (divergent run)", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_validate(args: argparse.Namespace, cfg) -> int:
    print(format_config(cfg), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffusion-lms",
        description="Diffusion LMS / leaky diffusion LMS network simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out: bool = True) -> None:
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override base_seed")
        if out:
            p.add_argument("--out", required=True, help="output directory")

    p_run = sub.add_parser("run", help="ensemble learning curves to CSV")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="steady-state MSD over a parameter grid")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=("mu", "gamma"))
    p_sweep.add_argument("--grid", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_dn = sub.add_parser("denoise", help="single-run noisy/filtered/residual output")
    common(p_dn)
    p_dn.add_argument("--node", required=True, type=int, help="node index (1-based)")
    p_dn.set_defaults(func=cmd_denoise)

    p_val = sub.add_parser("validate", help="parse the config and echo it resolved")
    common(p_val, out=False)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _load_config(args))
    except (ConfigError, MemoryError) as exc:  # numpy's MemoryError names the size
        print(f"config error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DataFileError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
