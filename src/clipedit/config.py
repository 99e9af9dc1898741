"""Run configuration: one JSON document, dotted-path overrides, validation."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .cotrain import CoTrainConfig
from .corpus import SynthConfig
from .editor import EditConfig
from .encoder import TrainConfig
from .timeline import InitStrategy


class ConfigError(ValueError):
    """Invalid configuration file, override, or field value."""


DEFAULTS: dict[str, Any] = {
    "seed": 0,
    "features_dir": None,
    "annotations_file": None,
    "out_dir": "run_out",
    "synth": None,
    "init_strategy": "midpoint_neighbors",
    "jitter_fraction": 0.0,
    "max_jitter_s": 2.0,
    "train": {
        "batch_size": 32,
        "learning_rate": 1e-3,
        "epochs": 10,
        "optimizer": "adam",
        "beta1": 0.9,
        "beta2": 0.999,
        "eps": 1e-8,
        "seed": 0,
    },
    "edit": {
        "k": 10,
        "seg_len_s": 1.0,
        "iou_gate": 0.0,
    },
    "cotrain": {
        "gamma": 0.0,
        "patience": 5,
        "max_epochs": 50,
        "teacher_mode": "update",
    },
}

SYNTH_DEFAULTS: dict[str, Any] = {
    "n_train_videos": 20,
    "n_test_videos": 5,
    "captions_per_video": 4,
    "video_len_s": 60.0,
    "gt_len_range": [4.0, 8.0],
    "dim": 32,
    "noise_sigma": 0.0,
    "caption_noise_sigma": 0.0,
    "align_gt_to_seconds": False,
    "seed": 0,
}


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {here!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = value
    return out


def parse_set(arg: str) -> tuple[list[str], Any]:
    """Parse one --set K=V override; V is JSON when it parses, else a string."""
    if "=" not in arg:
        raise ConfigError(f"--set expects dotted.path=value, got {arg!r}")
    key, _, raw = arg.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError(f"--set has empty key: {arg!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def apply_set(cfg: dict, path: list[str], value: Any) -> None:
    node = cfg
    for part in path[:-1]:
        if not isinstance(node.get(part), dict):
            if part == "synth" and node.get(part) is None:
                node[part] = dict(SYNTH_DEFAULTS)
            else:
                raise ConfigError(f"unknown config key {'.'.join(path)!r}")
        node = node[part]
    leaf = path[-1]
    if leaf not in node:
        raise ConfigError(f"unknown config key {'.'.join(path)!r}")
    node[leaf] = value


def load_config_dict(path: str | Path | None, sets: list[str] | None = None) -> dict:
    """Defaults, overlaid by the JSON file, overlaid by --set overrides."""
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        if isinstance(loaded.get("synth"), dict):
            loaded["synth"] = _merge(SYNTH_DEFAULTS, loaded["synth"], "synth")
        cfg = _merge(cfg, loaded)
    for arg in sets or []:
        apply_set(cfg, *parse_set(arg))
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


def build_run_config(cfg: dict) -> RunConfig:
    """Validate the merged dict and construct typed sub-configs."""
    synth = None
    if cfg["synth"] is not None:
        s = dict(cfg["synth"])
        rng_range = s.pop("gt_len_range")
        if not (isinstance(rng_range, (list, tuple)) and len(rng_range) == 2):
            raise ConfigError("synth.gt_len_range must be [min_s, max_s]")
        try:
            synth = SynthConfig(gt_len_range=(float(rng_range[0]), float(rng_range[1])), **s)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"synth: {exc}") from exc
    has_real = cfg["features_dir"] is not None
    if has_real == (synth is not None):
        raise ConfigError("exactly one of features_dir or synth must be set")
    if has_real and cfg["annotations_file"] is None:
        raise ConfigError("features_dir requires annotations_file")
    try:
        strategy = InitStrategy.parse(str(cfg["init_strategy"]))
        co = cfg["cotrain"]
        cotrain = CoTrainConfig(
            train=TrainConfig(**cfg["train"]),
            edit=EditConfig(**cfg["edit"]),
            gamma=float(co["gamma"]),
            patience=int(co["patience"]),
            max_epochs=int(co["max_epochs"]),
            teacher_mode=str(co["teacher_mode"]),
        )
        run = RunConfig(
            seed=int(cfg["seed"]),
            features_dir=cfg["features_dir"],
            annotations_file=cfg["annotations_file"],
            out_dir=str(cfg["out_dir"]),
            synth=synth,
            init_strategy=strategy,
            jitter_fraction=float(cfg["jitter_fraction"]),
            max_jitter_s=float(cfg["max_jitter_s"]),
            cotrain=cotrain,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if not 0.0 <= run.jitter_fraction <= 1.0:
        raise ConfigError(f"jitter_fraction must be in [0,1], got {run.jitter_fraction}")
    if run.max_jitter_s < 0:
        raise ConfigError(f"max_jitter_s must be >= 0, got {run.max_jitter_s}")
    return run


def load_run_config(path: str | Path | None, sets: list[str] | None = None) -> RunConfig:
    return build_run_config(load_config_dict(path, sets))
