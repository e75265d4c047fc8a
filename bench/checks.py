"""Correctness checks for the benchmark's outputs.

Each check compares an output with ground truth the benchmark generated
itself, or with a property the method must have, and raises CheckError
naming the first violation. None of them compares with a saved copy of an
earlier run's output.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


class CheckError(Exception):
    """An output of the program is wrong."""


def check_text(what: str, got: str, expected: str) -> None:
    if got != expected:
        raise CheckError(f"{what}: expected {expected!r}, got {got!r}")


def check_translate_report(report: dict, phrase: str) -> None:
    """The raw decode, the first candidate and the chosen text are the phrase."""
    check_text("raw decode", report["raw_text"], phrase)
    check_text("first candidate", report["candidates"][0], phrase)
    check_text("chosen text", report["chosen"], phrase)


def check_clip(clip_dir: Path, phrase: str, atlas_dir: Path) -> None:
    """A 60 FPS clip of `phrase` as `translate` and `synthesize` write it.

    - 60 frames per character, each listed once in the manifest;
    - every manifest sha256 matches the frame file's bytes;
    - every 5th frame (aligned with a 24 FPS source frame) is byte-equal to
      the atlas PGM of its character;
    - every other frame whose two bracketing 24 FPS frames are the same
      atlas frame equals that frame.
    """
    manifest = json.loads((clip_dir / "manifest.json").read_text(encoding="utf-8"))
    n = 60 * len(phrase)
    if manifest["frame_count"] != n or len(manifest["frames"]) != n:
        raise CheckError(
            f"{clip_dir}: expected {n} frames for {len(phrase)} characters, manifest "
            f"says {manifest['frame_count']} and lists {len(manifest['frames'])}"
        )
    atlas = {
        c: (atlas_dir / ("SPACE" if c == " " else c)).with_suffix(".pgm").read_bytes()
        for c in set(phrase)
    }
    n24 = 24 * len(phrase)
    for j, entry in enumerate(manifest["frames"]):
        data = (clip_dir / entry["file"]).read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            raise CheckError(f"{clip_dir / entry['file']}: sha256 differs from the manifest")
        num = 24 * j  # the frame sits at 24 FPS position num / 60
        lo = num // 60
        hi = lo if num % 60 == 0 else min(lo + 1, n24 - 1)
        c_lo, c_hi = phrase[lo // 24], phrase[hi // 24]
        if c_lo == c_hi and data != atlas[c_lo]:
            kind = "aligned" if lo == hi else "between two identical frames"
            raise CheckError(
                f"{clip_dir / entry['file']}: frame {j} ({kind}) differs from atlas {c_lo!r}"
            )


def check_caption(raw: str, candidates: tuple[str, ...], phrase: str) -> None:
    """A live caption: the raw decode and the first candidate are the phrase."""
    check_text("raw decode", raw, phrase)
    check_text("first candidate", candidates[0], phrase)


def check_same_bytes(path: Path, expected: bytes) -> None:
    """A retrained model file is byte-identical to the first one of the run."""
    if path.read_bytes() != expected:
        raise CheckError(f"{path}: model bytes differ from the first training in this run")


def check_accuracy(what: str, predicted: np.ndarray, truth: np.ndarray, floor: float) -> float:
    acc = float(np.mean(np.asarray(predicted) == np.asarray(truth)))
    if acc < floor:
        raise CheckError(f"{what}: accuracy {acc:.4f} on fresh samples is below {floor}")
    return acc
