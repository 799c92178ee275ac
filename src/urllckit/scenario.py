"""Plain-text scenario files: `key = value` lines with # comments.

One flat namespace per file.  Unknown keys are rejected and every value is
range checked on the way in, so a typo fails loudly instead of silently
running the default.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

__all__ = [
    "ScenarioError",
    "Field",
    "parse_kv_text",
    "parse_kv_file",
    "apply_schema",
]


class ScenarioError(ValueError, argparse.ArgumentTypeError):
    """Malformed scenario file or parameter set, or a value out of range.

    Also an argparse.ArgumentTypeError, so a CLI flag rejected by one of the
    converters below is reported with this message as it is.
    """


@dataclass(frozen=True)
class Field:
    """One schema entry: converter (raises ValueError on bad input) + default."""

    convert: Callable[[str], object]
    default: object


def parse_kv_text(text: str, source: str = "<scenario>") -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ScenarioError(
                f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in out:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_kv_file(path) -> dict:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {p}: {exc}") from exc
    return parse_kv_text(text, source=str(p))


def apply_schema(raw: dict, schema: dict, source: str = "<scenario>") -> dict:
    """Convert raw strings through the schema; unknown keys are an error."""
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ScenarioError(f"{source}: unknown keys: {', '.join(unknown)}")
    cfg = {}
    for key, fld in schema.items():
        if key in raw:
            try:
                cfg[key] = fld.convert(raw[key])
            except ValueError as exc:
                raise ScenarioError(f"{source}: invalid {key}: {exc}") from exc
        else:
            cfg[key] = fld.default
    return cfg


# ---- converter factories ----------------------------------------------------
# The CLI passes these to argparse as type=.  Range failures raise
# ScenarioError, whose message argparse prints; a value that does not parse
# at all (int("x")) is reported by the converter's __name__, hence the
# descriptive inner function names.

def int_field(lo: int):
    def int_in_range(s: str) -> int:
        v = int(s)
        if v < lo:
            raise ScenarioError(f"must be >= {lo}, got {v}")
        return v
    return int_in_range


def float_field(lo: Optional[float] = None, hi: Optional[float] = None,
                strict: bool = False):
    """Float in [lo, hi], or in (lo, hi) when strict; never NaN."""
    def float_in_range(s: str) -> float:
        v = float(s)
        if lo is not None and not (v > lo if strict else v >= lo):
            raise ScenarioError(f"must be {'>' if strict else '>='} {lo}, got {v}")
        if hi is not None and not (v < hi if strict else v <= hi):
            raise ScenarioError(f"must be {'<' if strict else '<='} {hi}, got {v}")
        if math.isnan(v):
            raise ScenarioError("must be a number, got nan")
        return v
    return float_in_range


def choice_field(options):
    opts = tuple(options)

    def one_of(s: str) -> str:
        if s not in opts:
            raise ScenarioError(f"must be one of {opts}, got {s!r}")
        return s
    return one_of


def list_field(item_convert: Callable[[str], object], length: Optional[int] = None):
    def comma_list(s: str):
        parts = [p.strip() for p in s.split(",") if p.strip()]
        if not parts:
            raise ScenarioError("empty list")
        if length is not None and len(parts) != length:
            raise ScenarioError(f"expected {length} items, got {len(parts)}")
        return tuple(item_convert(p) for p in parts)
    return comma_list


def bool_field():
    def convert(s: str) -> bool:
        low = s.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ScenarioError(f"must be a boolean, got {s!r}")
    return convert
