"""Flat key=value configuration files with typed access and CLI overrides.

Format: one `key = value` per line, each key at most once; blank lines and
lines starting with '#' are ignored. Keys are dotted lowercase (e.g.
cnn.batch_size). Values stay strings until a typed getter converts them, so
error messages can cite both the key and the offending text.
"""
from __future__ import annotations

import math
from pathlib import Path

from .io import read_text

DEFAULTS: dict[str, str] = {
    "seed": "0",
    "datagen.landmark_per_class": "100",
    "datagen.silhouette_per_class": "100",
    "datagen.spread": "0.05",
    "datagen.atlas_size": "128",
    "rfc.n_estimators": "200",
    "rfc.max_depth": "20",
    "rfc.min_samples_split": "5",
    "rfc.min_samples_leaf": "2",
    "rfc.bootstrap": "true",
    "rfc.cv_folds": "5",
    "cnn.learning_rate": "0.001",
    "cnn.batch_size": "32",
    "cnn.max_epochs": "15",
    "cnn.patience": "5",
    "ensemble.w_rfc": "0.6",
    "decode.k": "3",
    "corrector": "offline",
    "remote.endpoint": "",
    "remote.token_env": "",
    "remote.timeout_ms": "1000",
    "remote.max_retries": "2",
    "remote.backoff_ms": "100",
}


def load_config(path: str | Path | None) -> dict[str, str]:
    """Defaults overlaid with the file's keys; unknown or repeated keys are an error."""
    cfg = dict(DEFAULTS)
    if path is None:
        return cfg
    set_on: dict[str, int] = {}  # line of each key the file sets
    for lineno, line in enumerate(read_text(path, "utf-8").splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            where = f"{path}:{lineno}"
            key = _assign(cfg, stripped, where, f"{where}: expected 'key = value'")
            if key in set_on:
                raise ValueError(f"{where}: key {key!r} is already set on line {set_on[key]}")
            set_on[key] = lineno
    if not set_on:
        raise ValueError(f"{path}: no 'key = value' lines")
    return cfg


def apply_overrides(cfg: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply --set key=value pairs on top of a loaded config; a repeated key's last value wins."""
    out = dict(cfg)
    for item in overrides:
        _assign(out, item, "--set", "--set expects key=value")
    return out


def _assign(cfg: dict[str, str], item: str, where: str, malformed: str) -> str:
    """Set one 'key = value' item in cfg and return its key.

    Errors cite where, or malformed if the item has no '='.
    """
    if "=" not in item:
        raise ValueError(f"{malformed}, got {item!r}")
    key, _, value = item.partition("=")
    key = key.strip()
    if key not in DEFAULTS:
        raise ValueError(f"{where}: unknown config key {key!r}")
    cfg[key] = value.strip()
    return key


def get_int(cfg: dict[str, str], key: str, minimum: int | None = None) -> int:
    try:
        value = int(cfg[key])
    except ValueError:
        raise ValueError(f"config {key}: expected an integer, got {cfg[key]!r}") from None
    if minimum is not None and value < minimum:
        raise _out_of_range(cfg, key, f"an integer >= {minimum}")
    return value


def get_float(
    cfg: dict[str, str],
    key: str,
    above: float | None = None,
    within: tuple[float, float] | None = None,
) -> float:
    """A finite number, optionally checked to be > above or in [lo, hi] = within."""
    try:
        value = float(cfg[key])
    except ValueError:
        raise ValueError(f"config {key}: expected a number, got {cfg[key]!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"config {key}: expected a finite number, got {cfg[key]!r}")
    if above is not None and not value > above:
        raise _out_of_range(cfg, key, f"a number > {above:g}")
    if within is not None and not within[0] <= value <= within[1]:
        raise _out_of_range(cfg, key, f"a number in [{within[0]:g}, {within[1]:g}]")
    return value


def _out_of_range(cfg: dict[str, str], key: str, expected: str) -> ValueError:
    return ValueError(f"config {key}: expected {expected}, got {cfg[key]}")


def get_bool(cfg: dict[str, str], key: str) -> bool:
    value = cfg[key].lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ValueError(f"config {key}: expected true/false, got {cfg[key]!r}")


def get_optional_int(cfg: dict[str, str], key: str, minimum: int | None = None) -> int | None:
    """An integer or the literal 'none' (used for unbounded tree depth)."""
    if cfg[key].lower() in ("none", ""):
        return None
    return get_int(cfg, key, minimum)
