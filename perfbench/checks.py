"""Output checks: read a workload's CLI outputs, reduce them to a few named
observables, and compare those with the values recorded in
``reference.json``.

A reference match within ``TOL_DB`` catches a changed recursion (any change
to the update moves these values by far more) and passes a float
reassociation of about 1e-16 (the recursion is contractive, so such
differences stay near that size).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import (
    DENOISE_NODE,
    DENOISE_SCALE,
    DENOISE_SETTLE,
    DENOISE_TAPS,
    MU_CONVERGING,
    MU_DIVERGENT,
    MU_EDGE,
    MU_GRID,
    Prepared,
    read_wav,
)

TOL_DB = 1e-6
MIN_SNR_GAIN_DB = 5.0
DIVERGENT = "divergent"


def _trace_db(path: Path) -> np.ndarray:
    rows = path.read_text(encoding="ascii").splitlines()[1:]
    return np.array([float(r.split(",")[1]) for r in rows])


def _sweep_points(path: Path) -> list[float | str]:
    rows = path.read_text(encoding="ascii").splitlines()[1:]
    return [DIVERGENT if r.split(",")[1] == DIVERGENT else float(r.split(",")[1]) for r in rows]


def observe(prep: Prepared, out_dir: Path) -> dict[str, float | str]:
    """Named observables of one execution's outputs."""
    obs: dict[str, float | str] = {}
    if prep.name in ("headline_run", "large_network"):
        for label in prep.algorithms:
            trace = _trace_db(out_dir / f"trace_{label}.csv")
            obs[f"{label}.steady_db"] = float(trace[-prep.steady_window :].mean())
            obs[f"{label}.mean_db"] = float(trace.mean())
    elif prep.name == "mu_sweep":
        for label in prep.algorithms:
            for mu, value in zip(MU_GRID, _sweep_points(out_dir / f"sweep_mu_{label}.csv")):
                obs[f"{label}.mu={mu}"] = value
    elif prep.name == "denoise_wav":
        table = np.loadtxt(out_dir / f"denoise_node{DENOISE_NODE}.csv", delimiter=",", skiprows=1)
        noisy, filtered = table[:, 1], table[:, 2]
        samples = read_wav(prep.wav_path)
        clean = DENOISE_SCALE * np.convolve(samples, np.full(DENOISE_TAPS, 1.0 / DENOISE_TAPS))[: samples.size]
        tail = slice(DENOISE_SETTLE, None)
        noise_power = float(((noisy - clean)[tail] ** 2).sum())
        error_power = float(((filtered - clean)[tail] ** 2).sum())
        obs["finite"] = float(np.isfinite(table).all())
        obs["snr_gain_db"] = 10.0 * math.log10(noise_power / error_power)
    return obs


def _expected_files(prep: Prepared) -> set[str]:
    if prep.name == "mu_sweep":
        files = {f"sweep_mu_{label}.csv" for label in prep.algorithms}
    elif prep.name == "denoise_wav":
        stem = f"denoise_node{DENOISE_NODE}"
        files = {f"{stem}.csv"} | {f"{stem}_{k}.wav" for k in ("noisy", "filtered", "residual")}
    else:
        files = {f"trace_{label}.csv" for label in prep.algorithms} | {"comparison.csv"}
    return files | {"resolved_config.cfg", "manifest.json"}


def _near(obs: dict, ref: dict, key: str) -> list[str]:
    got, want = obs.get(key), ref.get(key)
    if isinstance(want, str) or isinstance(got, str):
        return [] if got == want else [f"{key}: got {got!r}, reference {want!r}"]
    if got is None or want is None or not abs(got - want) <= TOL_DB:
        return [f"{key}: got {got!r}, reference {want!r} (tolerance {TOL_DB} dB)"]
    return []


def structural_misses(prep: Prepared, obs: dict[str, float | str]) -> list[str]:
    """Checks that hold on every input: the paper's orderings and limits."""
    misses = []
    if prep.name == "headline_run":
        for atc, cta in (("atc_dlms", "cta_dlms"), ("atc_leaky_dlms", "cta_leaky_dlms")):
            if not obs[f"{atc}.steady_db"] < obs[f"{cta}.steady_db"]:
                misses.append(f"{atc} steady state is not below {cta}")
    if prep.name in ("headline_run", "large_network"):
        misses += [f"{k} is not finite" for k, v in obs.items() if not math.isfinite(v)]
    if prep.name == "mu_sweep":
        for label in prep.algorithms:
            points = [obs[f"{label}.mu={MU_GRID[i]}"] for i in MU_CONVERGING]
            if any(isinstance(p, str) for p in points) or sorted(points) != points:
                misses.append(f"{label}: converging points {points} are not nondecreasing in mu")
            edge = obs[f"{label}.mu={MU_GRID[MU_EDGE]}"]
            if edge != DIVERGENT and not (isinstance(edge, float) and math.isfinite(edge)):
                misses.append(f"{label}: edge point is neither a number nor {DIVERGENT!r}")
            if obs[f"{label}.mu={MU_GRID[MU_DIVERGENT]}"] != DIVERGENT:
                misses.append(f"{label}: mu={MU_GRID[MU_DIVERGENT]} is not {DIVERGENT!r}")
    if prep.name == "denoise_wav":
        if obs["finite"] != 1.0:
            misses.append("denoise output is not finite")
        if not obs["snr_gain_db"] >= MIN_SNR_GAIN_DB:
            misses.append(f"SNR gain {obs['snr_gain_db']:.2f} dB is below {MIN_SNR_GAIN_DB} dB")
    return misses


def check(prep: Prepared, out_dir: Path, reference: dict[str, float | str]) -> list[str]:
    """Every miss of one execution's outputs; empty when they are correct."""
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    missing = _expected_files(prep) - present
    if missing:
        return [f"missing outputs: {sorted(missing)}"]
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="ascii"))
    if sorted(manifest["outputs"]) != sorted(present - {"manifest.json"}):
        return [f"manifest outputs {manifest['outputs']} do not match the directory"]
    obs = observe(prep, out_dir)
    misses = structural_misses(prep, obs)
    for key in reference:
        if prep.name == "mu_sweep" and key.endswith(f"mu={MU_GRID[MU_EDGE]}"):
            continue  # which trials diverge at the edge is chaotic under reassociation
        misses += _near(obs, reference, key)
    return misses
