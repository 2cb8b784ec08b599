"""Line-oriented experiment configs: ``key = value`` entries under
``[section]`` headers, ``#`` comments.

Sections and keys follow ``ExperimentConfig``'s field order; each key is
named after its field (``[source] kind`` sets ``source``) and parsed as the
field is annotated. Every key is optional; an empty file resolves to the
headline defaults (mu 0.08, gamma 0.002, 50 trials, horizon 1000, 0 dB
SNR), an empty value leaves a field that defaults to None unset, and
``taps`` defaults to the length of ``coefficients`` when only they are
given. Unknown sections or keys are hard errors, as are type violations,
each naming the offending key; the constraints are ``ExperimentConfig``'s
own. ``format_config`` emits the fully resolved config with
17-significant-digit floats so that parse(format(cfg)) == cfg exactly.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import fields
from typing import get_type_hints

from diffusion_lms.experiment import ConfigError, ExperimentConfig

__all__ = ["ConfigError", "parse_config", "parse_config_text", "format_config"]


def _number_parser(kind: type, expected: str):
    def parse(key: str, raw: str) -> int | float:
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from None

    return parse


def _parse_list(key: str, raw: str, numbers: bool = False) -> tuple:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected a comma-separated list{' of numbers' if numbers else ''}")
    return tuple(_PARSERS[float](key, p) for p in parts) if numbers else tuple(parts)


# the parser of each annotated field type; X | None parses as X
_PARSERS = {
    int: _number_parser(int, "an integer"),
    float: _number_parser(float, "a number"),
    str: lambda key, raw: raw.strip(),
    tuple[float, ...]: lambda key, raw: _parse_list(key, raw, numbers=True),
    tuple[str, ...]: _parse_list,
}
_PARSERS |= {hint | None: parse for hint, parse in _PARSERS.items()}
_HINTS = get_type_hints(ExperimentConfig)

# the file layout: the field that opens each section, and the one key not
# named after its field
_SECTION_STARTS = {"nodes": "network", "taps": "model", "source": "source", "algorithms": "run"}
_KEY_NAMES = {"source": "kind"}
# section -> key -> (the field it sets; the parser of its type; whether an
# empty value leaves it unset, as for every field defaulting to None)
_KEYS: dict[str, dict[str, tuple]] = {}
for _f in fields(ExperimentConfig):
    if _f.name in _SECTION_STARTS:
        _section = _KEYS[_SECTION_STARTS[_f.name]] = {}
    _section[_KEY_NAMES.get(_f.name, _f.name)] = (_f.name, _PARSERS[_HINTS[_f.name]], _f.default is None)


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
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            field, parse, optional = _KEYS[section][key]
            if optional and not raw.strip():
                continue
            values[field] = parse(key, raw)
    if "coefficients" in values:
        values.setdefault("taps", len(values["coefficients"]))
    return ExperimentConfig(**values)


def parse_config(path: str | os.PathLike) -> ExperimentConfig:
    """Read and resolve a config file; missing keys take the defaults."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_config_text(text, origin=str(path))


def _fmt_value(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ", ".join(_fmt_value(v) for v in value)
    return str(value)


def format_config(cfg: ExperimentConfig) -> str:
    """Emit the fully resolved config in canonical section and key order.

    Keys holding None are omitted; re-parsing the result reproduces ``cfg``
    exactly, floats included.
    """
    lines: list[str] = []
    for section, keys in _KEYS.items():
        lines.append(f"[{section}]")
        for key, (field, _, _) in keys.items():
            value = getattr(cfg, field)
            if value is None:
                continue
            lines.append(f"{key} = {_fmt_value(value)}")
        lines.append("")
    return "\n".join(lines)
