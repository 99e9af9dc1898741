"""Run configuration: one JSON document, dotted-path overrides, validation."""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any

from .cotrain import CoTrainConfig
from .corpus import SynthConfig
from .editor import EditConfig
from .encoder import TrainConfig
from .timeline import InitStrategy


class ConfigError(ValueError):
    """Invalid configuration file, override, or field value."""


def _defaults(cls) -> dict[str, Any]:
    """Each field of the dataclass `cls` that has a plain default, mapped to it as
    JSON reads it (a tuple as a list), so the dataclass is the one place it is declared."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in fields(cls) if f.default is not MISSING}


DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "features_dir": None,
    "annotations_file": None,
    "out_dir": "run_out",
    "synth": None,
    "init_strategy": "midpoint_neighbors",
    "jitter_fraction": 0.0,
    "max_jitter_s": 2.0,
    "train": _defaults(TrainConfig),
    "edit": _defaults(EditConfig),
    "cotrain": _defaults(CoTrainConfig),
}

SYNTH_DEFAULTS: dict[str, Any] = _defaults(SynthConfig)

# the type of each key whose default is null: a string, or a synth block
_NULLABLE: dict[str, Any] = {"features_dir": "", "annotations_file": "", "synth": SYNTH_DEFAULTS}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    """`base` with `override` merged in, the one override rule: an object merges into its section
    (over `_NULLABLE`'s defaults when the section is null), any other value replaces the old one."""
    out = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {here!r}")
        into = _NULLABLE.get(here) if base[key] is None else base[key]
        both = isinstance(into, dict) and isinstance(value, dict)
        out[key] = _merge(into, value, here) if both else value
    return out


def _shown(value: Any, limit: int = 80) -> str:
    """`repr(value)`, cut to `limit` characters, for echoing a user value in a message."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _typed(key: str, value: Any, default: Any) -> Any:
    """`value` checked against the type of its `default`; an int passes for a float, NaN and ±inf fail.

    A dict is merged over its defaults first, so every key it ends with is
    known and typed.
    """
    if default is None:
        return None if value is None else _typed(key, value, _NULLABLE[key])
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be object, got {_shown(value)}")
        return {
            k: _typed(f"{key}.{k}" if key else k, v, default[k])
            for k, v in _merge(default, value, key).items()
        }
    if isinstance(default, list):
        if not (isinstance(value, (list, tuple)) and len(value) == len(default)):
            raise ConfigError(f"{key} must be a list of {len(default)}, got {_shown(value)}")
        return tuple(_typed(key, v, d) for v, d in zip(value, default))  # as the dataclasses hold it
    if isinstance(default, float):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if abs(value) <= sys.float_info.max:  # False for NaN and +-Infinity
                return float(value)
            raise ConfigError(f"{key} must be a finite float, got {_shown(value)}")
    elif isinstance(value, type(default)) and isinstance(value, bool) == isinstance(default, bool):
        return value
    raise ConfigError(f"{key} must be {type(default).__name__}, got {_shown(value)}")


def _json_or_str(raw: str, where: str) -> Any:
    """`raw` as JSON when it parses, else `raw`; JSON nested too deep is a ConfigError naming `where`."""
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw
    except RecursionError as exc:
        raise ConfigError(f"{where}: JSON nested too deep") from exc


def parse_set(arg: str) -> tuple[list[str], Any]:
    """Parse one --set K=V override; V is JSON when it parses, else a string."""
    if "=" not in arg:
        raise ConfigError(f"--set expects dotted.path=value, got {_shown(arg)}")
    key, _, raw = arg.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError(f"--set has empty key: {_shown(arg)}")
    return key.split("."), _json_or_str(raw, f"--set {key}")


def _merge_at(cfg: dict, path: list[str], value: Any) -> dict:
    """`cfg` with `value` merged in at the dotted `path`, as the one-key object `{"a": {"b": value}}`."""
    for part in reversed(path):
        value = {part: value}
    return _merge(cfg, value)


def load_config_dict(path: str | Path | None, sets: list[str] | None = None) -> dict:
    """Defaults, with the JSON file and then each --set override merged in by `_merge`."""
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"config file {path}: cannot read: {exc.strerror or exc}") from exc
        except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        cfg = _merge(cfg, loaded)
    for arg in sets or []:
        cfg = _merge_at(cfg, *parse_set(arg))
    return cfg


@dataclass(frozen=True)
class RunConfig:
    seed: int
    features_dir: str | None
    annotations_file: str | None
    out_dir: str
    synth: SynthConfig | None
    init_strategy: InitStrategy
    jitter_fraction: float
    max_jitter_s: float
    cotrain: CoTrainConfig


def _section(name: str, make, **kwargs):
    """`make(**kwargs)`; its ValueError becomes a ConfigError that starts with `name: `."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def build_run_config(cfg: dict) -> RunConfig:
    """Type-check the merged dict and construct typed sub-configs."""
    cfg = _typed("", cfg, DEFAULTS)
    synth = cfg["synth"]
    if synth is not None:
        cfg["synth"] = _section("synth", SynthConfig, **synth)
    has_real = cfg["features_dir"] is not None
    if has_real == (synth is not None):
        raise ConfigError("exactly one of features_dir or synth must be set")
    if has_real and cfg["annotations_file"] is None:
        raise ConfigError("features_dir requires annotations_file")
    init_strategy = _section("init_strategy", InitStrategy.parse, text=cfg["init_strategy"])
    train = _section("train", TrainConfig, **cfg.pop("train"))
    edit = _section("edit", EditConfig, **cfg.pop("edit"))
    cotrain = _section("cotrain", CoTrainConfig, train=train, edit=edit, **cfg.pop("cotrain"))
    run = RunConfig(**dict(cfg, init_strategy=init_strategy, cotrain=cotrain))
    if not 0.0 <= run.jitter_fraction <= 1.0:
        raise ConfigError(f"jitter_fraction must be in [0,1], got {run.jitter_fraction}")
    if run.max_jitter_s < 0:
        raise ConfigError(f"max_jitter_s must be >= 0, got {run.max_jitter_s}")
    if run.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {run.seed}")
    return run
