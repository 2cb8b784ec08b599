"""Line-oriented experiment configs: ``key = value`` entries under
``[section]`` headers, ``#`` comments.

Every key is optional; an empty file resolves to the headline defaults
(mu 0.08, gamma 0.002, 50 trials, horizon 1000, 0 dB SNR). Unknown sections
or keys are hard errors, as are type or constraint violations, each naming
the offending key. ``format_config`` emits the fully resolved config with
17-significant-digit floats so that parse(format(cfg)) == cfg exactly.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import fields, replace

from diffusion_lms.experiment import (
    ALGORITHM_LABELS,
    SOURCE_KINDS,
    TOPOLOGY_KINDS,
    WEIGHT_RULES,
    ExperimentConfig,
)

__all__ = ["ConfigError", "parse_config", "parse_config_text", "format_config"]


class ConfigError(ValueError):
    """Invalid experiment config: unknown key, bad type, or bad constraint."""


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if math.isnan(value):
        raise ConfigError(f"{key}: NaN is not a valid value")
    return value


def _parse_float_list(key: str, raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated list of numbers")
    return tuple(_parse_float(key, p) for p in parts)


def _parse_str_list(key: str, raw: str) -> tuple[str, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated list")
    return tuple(parts)


def _parse_enum(key: str, raw: str, allowed: tuple[str, ...]) -> str:
    value = raw.strip()
    if value not in allowed:
        raise ConfigError(f"{key}: must be one of {', '.join(allowed)}; got {value!r}")
    return value


# section -> key -> (config field, parser)
_SCHEMA = {
    "network": {
        "nodes": ("nodes", _parse_int),
        "topology": ("topology", lambda k, v: _parse_enum(k, v, TOPOLOGY_KINDS)),
        "radius": ("radius", _parse_float),
        "half_width": ("half_width", _parse_int),
        "edge_list_path": ("edge_list_path", lambda k, v: v.strip() or None),
        "topology_seed": ("topology_seed", _parse_int),
        "weights": ("weights", lambda k, v: _parse_enum(k, v, WEIGHT_RULES)),
    },
    "model": {
        "taps": ("taps", _parse_int),
        "coefficients": ("coefficients", _parse_float_list),
        "snr_db": ("snr_db", _parse_float),
        "noise_variance": ("noise_variance", _parse_float),
        "regressor_variances": ("regressor_variances", _parse_float_list),
    },
    "source": {
        "kind": ("source", lambda k, v: _parse_enum(k, v, SOURCE_KINDS)),
        "sample_path": ("sample_path", lambda k, v: v.strip()),
        "scale_exponent": ("scale_exponent", _parse_float),
    },
    "run": {
        "algorithms": ("algorithms", _parse_str_list),
        "mu": ("mu", _parse_float),
        "gamma": ("gamma", _parse_float),
        "trials": ("trials", _parse_int),
        "horizon": ("horizon", _parse_int),
        "base_seed": ("base_seed", _parse_int),
        "steady_window": ("steady_window", _parse_int),
    },
}


def _validate(cfg: ExperimentConfig, explicit: set[str]) -> ExperimentConfig:
    if cfg.nodes < 1:
        raise ConfigError(f"nodes: must be >= 1, got {cfg.nodes}")
    if cfg.radius <= 0.0:
        raise ConfigError(f"radius: must be positive, got {cfg.radius}")
    if cfg.half_width < 0:
        raise ConfigError(f"half_width: must be >= 0, got {cfg.half_width}")
    if cfg.topology == "ring_lattice" and 2 * cfg.half_width >= cfg.nodes and cfg.nodes > 1:
        raise ConfigError(
            f"half_width: {cfg.half_width} too large for {cfg.nodes} nodes (need 2*half_width < nodes)"
        )
    if cfg.topology == "edge_list" and not cfg.edge_list_path:
        raise ConfigError("edge_list_path: required when topology = edge_list")
    if cfg.taps < 1:
        raise ConfigError(f"taps: must be >= 1, got {cfg.taps}")
    if cfg.coefficients is not None:
        if any(not math.isfinite(v) for v in cfg.coefficients):
            raise ConfigError("coefficients: entries must be finite")
        if "taps" in explicit and cfg.taps != len(cfg.coefficients):
            raise ConfigError(
                f"coefficients: {len(cfg.coefficients)} entries contradict taps = {cfg.taps}"
            )
        cfg = replace(cfg, taps=len(cfg.coefficients))
    if cfg.noise_variance is not None and cfg.noise_variance < 0.0:
        raise ConfigError(f"noise_variance: must be >= 0, got {cfg.noise_variance}")
    if cfg.regressor_variances is not None:
        if len(cfg.regressor_variances) != cfg.nodes:
            raise ConfigError(
                f"regressor_variances: {len(cfg.regressor_variances)} entries for {cfg.nodes} nodes"
            )
        if any(v <= 0.0 or not math.isfinite(v) for v in cfg.regressor_variances):
            raise ConfigError("regressor_variances: entries must be finite and positive")
    if not math.isfinite(cfg.scale_exponent):
        raise ConfigError(f"scale_exponent: must be finite, got {cfg.scale_exponent}")
    if not cfg.algorithms:
        raise ConfigError("algorithms: need at least one label")
    for label in cfg.algorithms:
        if label not in ALGORITHM_LABELS:
            raise ConfigError(
                f"algorithms: unknown label {label!r} (choose from {', '.join(ALGORITHM_LABELS)})"
            )
    if len(set(cfg.algorithms)) != len(cfg.algorithms):
        raise ConfigError("algorithms: duplicate labels")
    if not (math.isfinite(cfg.mu) and cfg.mu > 0.0):
        raise ConfigError(f"mu: must be finite and positive, got {cfg.mu}")
    if not (math.isfinite(cfg.gamma) and cfg.gamma >= 0.0):
        raise ConfigError(f"gamma: must be finite and >= 0, got {cfg.gamma}")
    if cfg.trials < 1:
        raise ConfigError(f"trials: must be >= 1, got {cfg.trials}")
    if cfg.horizon < 1:
        raise ConfigError(f"horizon: must be >= 1, got {cfg.horizon}")
    if cfg.steady_window < 1:
        raise ConfigError(f"steady_window: must be >= 1, got {cfg.steady_window}")
    uses_config_horizon = cfg.source == "white_gaussian" or cfg.sample_path == "synthetic"
    if uses_config_horizon and cfg.steady_window > cfg.horizon:
        raise ConfigError(
            f"steady_window: {cfg.steady_window} exceeds horizon {cfg.horizon}"
        )
    return cfg


def parse_config_text(text: str, origin: str = "<config>") -> ExperimentConfig:
    """Parse config text into a fully resolved ExperimentConfig."""
    parser = configparser.ConfigParser(
        delimiters=("=",),
        comment_prefixes=("#",),
        inline_comment_prefixes=("#",),
        strict=True,
        interpolation=None,
    )
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ConfigError(f"{origin}: {exc}") from exc

    values: dict[str, object] = {}
    explicit: set[str] = set()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field, parse = _SCHEMA[section][key]
            values[field] = parse(key, raw)
            explicit.add(key)
    cfg = ExperimentConfig(**values)
    return _validate(cfg, explicit)


def parse_config(path: str | os.PathLike) -> ExperimentConfig:
    """Read and resolve a config file; missing keys take the defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, origin=str(path))


def _fmt_value(value: object) -> str:
    if isinstance(value, bool):  # guard: bools are ints
        raise TypeError("no boolean config fields")
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, tuple):
        return ", ".join(_fmt_value(v) for v in value)
    return str(value)


def format_config(cfg: ExperimentConfig) -> str:
    """Emit the fully resolved config in canonical section and key order.

    Keys holding None are omitted; re-parsing the result reproduces ``cfg``
    exactly, floats included.
    """
    covered = {field for keys in _SCHEMA.values() for field, _ in keys.values()}
    missing = [f.name for f in fields(cfg) if f.name not in covered]
    if missing:
        raise AssertionError(f"schema does not cover config fields: {missing}")
    lines: list[str] = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (field, _) in keys.items():
            value = getattr(cfg, field)
            if value is None or value == "":
                continue
            lines.append(f"{key} = {_fmt_value(value)}")
        lines.append("")
    return "\n".join(lines)
