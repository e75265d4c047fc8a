"""Flat key=value configuration files with typed access and CLI overrides.

Format: one `key = value` per line; blank lines and lines starting with '#'
are ignored. Keys are dotted lowercase (e.g. cnn.batch_size). Values stay
strings until a typed getter converts them, so error messages can cite both
the key and the offending text.
"""
from __future__ import annotations

from pathlib import Path

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
    """Defaults overlaid with the file's keys; unknown keys are an error."""
    cfg = dict(DEFAULTS)
    if path is None:
        return cfg
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            where = f"{path}:{lineno}"
            _assign(cfg, stripped, where, f"{where}: expected 'key = value'")
    return cfg


def apply_overrides(cfg: dict[str, str], overrides: list[str]) -> dict[str, str]:
    """Apply --set key=value pairs on top of a loaded config."""
    out = dict(cfg)
    for item in overrides:
        _assign(out, item, "--set", "--set expects key=value")
    return out


def _assign(cfg: dict[str, str], item: str, where: str, malformed: str) -> None:
    """Set one 'key = value' item in cfg; errors cite where, or malformed if no '='."""
    if "=" not in item:
        raise ValueError(f"{malformed}, got {item!r}")
    key, _, value = item.partition("=")
    key = key.strip()
    if key not in DEFAULTS:
        raise ValueError(f"{where}: unknown config key {key!r}")
    cfg[key] = value.strip()


def get_int(cfg: dict[str, str], key: str) -> int:
    try:
        return int(cfg[key])
    except ValueError:
        raise ValueError(f"config {key}: expected an integer, got {cfg[key]!r}") from None


def get_float(cfg: dict[str, str], key: str) -> float:
    try:
        return float(cfg[key])
    except ValueError:
        raise ValueError(f"config {key}: expected a number, got {cfg[key]!r}") from None


def get_bool(cfg: dict[str, str], key: str) -> bool:
    value = cfg[key].lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ValueError(f"config {key}: expected true/false, got {cfg[key]!r}")


def get_optional_int(cfg: dict[str, str], key: str) -> int | None:
    """An integer or the literal 'none' (used for unbounded tree depth)."""
    if cfg[key].lower() in ("none", ""):
        return None
    return get_int(cfg, key)
