"""Plain key=value run configuration.

One ``key=value`` pair per line, ``#`` starts a comment, every option is a
scalar (lists are comma-separated). Unknown keys are rejected against the
subcommand's schema, and every file-producing run writes an effective-config
snapshot next to its outputs so reruns are reproducible.
"""

from __future__ import annotations

from typing import Mapping

from .corpus import _utf8_error
from .errors import InvalidInput, ParseError, QEStackError


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise InvalidInput(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None


def _parse_floats(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise InvalidInput("empty float list")
    return tuple(map(_parse_float, parts))


def _parse_optional_float(text: str) -> float | None:
    if text.strip().lower() in ("none", ""):
        return None
    return _parse_float(text)


# every parser raises a ValueError (InvalidInput for the ones defined here)
_PARSERS = {
    "int": int,
    "float": _parse_float,
    "str": str,
    "bool": _parse_bool,
    "floats": _parse_floats,
    "optfloat": _parse_optional_float,
}


def load_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raws = handle.readlines()
    except UnicodeDecodeError:
        raise _utf8_error(path) from None
    for i, raw in enumerate(raws, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"expected key=value, got {raw.strip()!r}", file=path, line=i)
        key = key.strip()
        if key in values:
            raise ParseError(f"duplicate key {key!r}", file=path, line=i)
        values[key] = value.strip()
    return values


def resolve_config(
    schema: Mapping[str, tuple[str, object]],
    file_values: Mapping[str, str],
    overrides: Mapping[str, object],
) -> dict[str, object]:
    """Merge defaults, config-file values and flag overrides (in that order).

    ``schema`` maps key -> (kind, default); ``file_values`` are raw strings;
    ``overrides`` are already-typed flag values, skipped when None.
    """
    unknown = set(file_values) - set(schema)
    if unknown:
        raise QEStackError(f"unknown config keys: {', '.join(sorted(unknown))}")

    resolved: dict[str, object] = {}
    for key, (kind, default) in schema.items():
        value = default
        if key in file_values:
            try:
                value = _PARSERS[kind](file_values[key])
            except ValueError as exc:
                raise QEStackError(f"config key {key!r}: {exc}") from None
        if overrides.get(key) is not None:
            value = overrides[key]
        resolved[key] = value
    return resolved


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(repr(float(v)) for v in value)
    if value is None:
        return "none"
    return str(value)


def write_snapshot(path, command: str, values: Mapping[str, object], version: str):
    """Effective-config snapshot written next to a run's outputs. Contains no
    timestamps so identical runs stay byte-identical."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# qe-stack effective configuration\n")
        handle.write(f"command={command}\n")
        handle.write(f"version={version}\n")
        for key in sorted(values):
            handle.write(f"{key}={format_value(values[key])}\n")
