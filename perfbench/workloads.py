"""Benchmark workloads: seeded inputs and the CLI argument vector for each.

A workload is one CLI command plus the config (and, for denoising, the WAV
file) the benchmark generates for it. The program sees only those files.

The seed selects one of ``VARIANTS`` input sets (``seed % VARIANTS``). Each
variant fixes ``base_seed``, ``topology_seed`` and the denoising WAV, and
``reference.json`` holds the outputs recorded for every variant, so the
output check is exact to a tight tolerance on any seed.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

VARIANTS = 32

MU_GRID = (0.02, 0.08, 0.32, 2.2, 3.0)
# grid indices by role: converging, edge (about half the trials diverge), divergent
MU_CONVERGING = (0, 1, 2)
MU_EDGE = 3
MU_DIVERGENT = 4

DENOISE_NODE = 14  # 1-based, as on the command line
DENOISE_RATE = 16000
# the config's default variance profile pins node 14 of a 20-node network
# to 0.35; with scale_exponent 2 its regressor scale is that variance
DENOISE_SCALE = 0.35
DENOISE_TAPS = 5
DENOISE_SETTLE = 200  # samples skipped before the SNR gain is measured

WORKLOADS = ("headline_run", "mu_sweep", "denoise_wav", "large_network")

# per size: the config knobs each workload sets beyond the seeds
SIZES = {
    "full": {
        "headline_run": {},
        "mu_sweep": {"trials": 10},
        "denoise_wav": {"samples": 48000},
        "large_network": {"nodes": 200, "trials": 3},
    },
    "tiny": {
        "headline_run": {"trials": 4, "horizon": 300, "steady_window": 100},
        "mu_sweep": {"trials": 2, "horizon": 600, "steady_window": 100},
        "denoise_wav": {"samples": 4000},
        "large_network": {"nodes": 40, "trials": 1, "horizon": 200, "steady_window": 100},
    },
}


@dataclass(frozen=True)
class Prepared:
    """Generated inputs of one workload at one seed."""

    name: str
    seed: int
    variant: int
    base_seed: int
    topology_seed: int
    config_path: Path
    wav_path: Path | None
    argv: tuple[str, ...]  # CLI arguments without --out
    algorithms: tuple[str, ...]
    steady_window: int
    shape: tuple[int, int]  # network size N and taps M
    node_rounds: int  # N x horizon x trials x algorithms x grid points


def variant_seeds(variant: int) -> tuple[int, int]:
    """(base_seed, topology_seed) of one input variant."""
    rng = np.random.default_rng([variant, 0x5EED])
    base_seed, topology_seed = rng.integers(1, 2**31 - 1, size=2)
    return int(base_seed), int(topology_seed)


def speech_like(length: int, rng: np.random.Generator) -> np.ndarray:
    """Voiced bursts (a pitch and two harmonics under a raised-cosine
    envelope) separated by quiet AR(1) background, peak 0.5."""
    background = np.zeros(length)
    eps = rng.standard_normal(length) * 0.01
    for i in range(1, length):
        background[i] = 0.95 * background[i - 1] + eps[i]
    s = background
    i = int(rng.integers(100, 800))
    while i < length:
        burst = min(int(rng.integers(1600, 4000)), length - i)
        t = np.arange(burst)
        pitch = rng.uniform(100.0, 250.0) / DENOISE_RATE
        voice = sum(
            rng.uniform(0.3, 1.0) / h * np.sin(2.0 * np.pi * h * pitch * t + rng.uniform(0, 2 * np.pi))
            for h in (1, 2, 3)
        )
        s[i : i + burst] += np.sin(np.pi * t / burst) ** 2 * voice
        i += burst + int(rng.integers(400, 2400))
    return 0.5 * s / np.abs(s).max()


def write_wav(path: Path, samples: np.ndarray) -> None:
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(DENOISE_RATE)
        wf.writeframes(pcm.tobytes())


def read_wav(path: Path) -> np.ndarray:
    """Samples as the program normalizes them (int16 / 32768)."""
    with wave.open(str(path), "rb") as wf:
        raw = wf.readframes(wf.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(float) / 32768.0


def _config_text(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


def prepare(name: str, seed: int, size: str, input_dir: Path) -> Prepared:
    """Write the workload's inputs for ``seed`` into ``input_dir``."""
    knobs = dict(SIZES[size][name])
    variant = seed % VARIANTS
    base_seed, topology_seed = variant_seeds(variant)
    input_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-{size}-v{variant}"
    network: dict[str, object] = {"topology_seed": topology_seed}
    run: dict[str, object] = {"base_seed": base_seed}
    for key in ("trials", "horizon", "steady_window"):
        if key in knobs:
            run[key] = knobs[key]
    sections: dict[str, dict[str, object]] = {"network": network, "run": run}
    wav_path = None
    algorithms = ("atc_dlms", "cta_dlms", "atc_leaky_dlms", "cta_leaky_dlms")
    nodes, taps, grid_points = 20, 5, 1

    if name in ("headline_run", "mu_sweep"):
        argv = ["run"] if name == "headline_run" else ["sweep", "--param", "mu", "--grid", ",".join(map(str, MU_GRID))]
        if name == "mu_sweep":
            grid_points = len(MU_GRID)
        horizon, trials = knobs.get("horizon", 1000), knobs.get("trials", 50)
    elif name == "denoise_wav":
        wav_path = input_dir / f"{stem}.wav"
        write_wav(wav_path, speech_like(knobs["samples"], np.random.default_rng([variant, 0xA0D10])))
        sections["source"] = {"kind": "delay_line", "sample_path": wav_path.resolve()}
        algorithms = ("atc_leaky_dlms",)
        run["algorithms"] = algorithms[0]
        argv = ["denoise", "--node", str(DENOISE_NODE)]
        horizon, trials = knobs["samples"], 1
    elif name == "large_network":
        nodes = knobs["nodes"]
        network.update(nodes=nodes, topology="ring_lattice", half_width=3)
        taps = 16
        sections["model"] = {"taps": taps}
        algorithms = ("atc_dlms", "cta_leaky_dlms")
        run["algorithms"] = ", ".join(algorithms)
        argv = ["run"]
        horizon, trials = knobs.get("horizon", 1000), knobs["trials"]
    else:
        raise ValueError(f"unknown workload {name!r}")

    config_path = input_dir / f"{stem}.cfg"
    config_path.write_text(_config_text(sections), encoding="utf-8")
    return Prepared(
        name=name,
        seed=seed,
        variant=variant,
        base_seed=base_seed,
        topology_seed=topology_seed,
        config_path=config_path,
        wav_path=wav_path,
        argv=(*argv, "--config", str(config_path)),
        algorithms=algorithms,
        steady_window=knobs.get("steady_window", 200),
        shape=(nodes, taps),
        node_rounds=nodes * horizon * trials * len(algorithms) * grid_points,
    )
