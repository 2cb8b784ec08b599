"""Line-oriented experiment configs: ``key = value`` entries under
``[section]`` headers, ``#`` comments.

Every key is optional; an empty file resolves to the headline defaults
(mu 0.08, gamma 0.002, 50 trials, horizon 1000, 0 dB SNR), and ``taps``
defaults to the length of ``coefficients`` when only they are given.
Unknown sections or keys are hard errors, as are type violations, each
naming the offending key; the constraints are ``ExperimentConfig``'s own.
``format_config`` emits the fully resolved config with 17-significant-digit
floats so that parse(format(cfg)) == cfg exactly.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import fields

from diffusion_lms.experiment import ConfigError, ExperimentConfig

__all__ = ["ConfigError", "parse_config", "parse_config_text", "format_config"]


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_str(key: str, raw: str) -> str:
    return raw.strip()


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


# section -> key -> (config field, parser)
_SCHEMA = {
    "network": {
        "nodes": ("nodes", _parse_int),
        "topology": ("topology", _parse_str),
        "radius": ("radius", _parse_float),
        "half_width": ("half_width", _parse_int),
        "edge_list_path": ("edge_list_path", lambda k, v: v.strip() or None),
        "topology_seed": ("topology_seed", _parse_int),
        "weights": ("weights", _parse_str),
    },
    "model": {
        "taps": ("taps", _parse_int),
        "coefficients": ("coefficients", _parse_float_list),
        "snr_db": ("snr_db", _parse_float),
        "noise_variance": ("noise_variance", _parse_float),
        "regressor_variances": ("regressor_variances", _parse_float_list),
    },
    "source": {
        "kind": ("source", _parse_str),
        "sample_path": ("sample_path", _parse_str),
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
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field, parse = _SCHEMA[section][key]
            values[field] = parse(key, raw)
    if "coefficients" in values:
        values.setdefault("taps", len(values["coefficients"]))
    return ExperimentConfig(**values)


def parse_config(path: str | os.PathLike) -> ExperimentConfig:
    """Read and resolve a config file; missing keys take the defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
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
