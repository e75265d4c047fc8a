"""File formats: PGM frames, landmark CSV, model blocks, JSON reports.

Every writer here is byte-deterministic: identical inputs produce identical
files. That is why models use a custom block container instead of np.savez
(zip archives embed timestamps) and why JSON is written with sorted keys.
Every numbered file (clip frames, stream frames, silhouettes) goes through
write_numbered, so a rerun leaves no stale file of a longer earlier run.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import re
from pathlib import Path

import numpy as np

from .landmarks import N_FEATURES, N_POINTS, LandmarkFrame

BLOCK_MAGIC = b"SBLK\x01"
# One PGM header field: whitespace and '#' comments (to end of line) skipped,
# then the field's bytes up to the next whitespace; no field at end of data.
_PGM_FIELD = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]\S*)?")


def pgm_bytes(img: np.ndarray) -> bytes:
    """An 8-bit grayscale image as binary PGM (P5, maxval 255)."""
    arr = np.asarray(img)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise ValueError("PGM writer expects a 2-D uint8 array")
    h, w = arr.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + arr.tobytes()


def write_pgm(path: str | Path, img: np.ndarray) -> bytes:
    """Write pgm_bytes(img) to path; returns them, for a checksum without a read."""
    data = pgm_bytes(img)
    Path(path).write_bytes(data)
    return data


def write_numbered(directory: Path, name: str, files: list[bytes]) -> None:
    """Make directory hold exactly files, as name.format(0), name.format(1), ...

    Numbered files past the last, left by a longer earlier run, are unlinked up
    to the first that is missing; other files stay. With no files, an emptied
    directory is removed and a path that is not a directory is left alone.
    """
    if files:
        directory.mkdir(parents=True, exist_ok=True)
    elif not directory.is_dir():
        return
    for i, data in enumerate(files):
        (directory / name.format(i)).write_bytes(data)
    for i in itertools.count(len(files)):
        try:
            (directory / name.format(i)).unlink()
        except FileNotFoundError:
            break
    if not files and not any(directory.iterdir()):
        directory.rmdir()


def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary PGM (P5) file written by write_pgm or compatible tools."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM (missing P5 magic)")
    pos = 2
    fields: list[int] = []
    for _ in range(3):
        match = _PGM_FIELD.match(data, pos)
        token, pos = match.group(1), match.end()
        if token is None:
            raise ValueError(f"{path}: truncated PGM header")
        try:
            fields.append(int(token))
        except ValueError:
            raise ValueError(f"{path}: bad PGM header field {token[:16]!r}") from None
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise ValueError(f"{path}: PGM size {w}x{h} has no pixels")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval} (expected 255)")
    pixels = data[pos : pos + w * h]
    if len(pixels) != w * h:
        raise ValueError(f"{path}: expected {w * h} pixel bytes, got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w).copy()


LANDMARK_CSV_HEADER = "label," + ",".join(
    f"{axis}{i}" for i in range(1, N_POINTS + 1) for axis in ("x", "y", "z")
)


def write_landmark_csv(path: str | Path, frames: list[LandmarkFrame]) -> None:
    """Write frames as CSV: a fixed header, then label + 126 coordinates per row.

    Floats are rendered with repr so a read round-trips bit-exactly.
    """
    lines = [LANDMARK_CSV_HEADER]
    for frame in frames:
        lines.append(",".join([frame.label] + [repr(float(v)) for v in frame.values]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_text(path: str | Path, encoding: str = "ascii") -> str:
    """A text file's contents; a byte that does not decode is a ValueError
    naming the file and the byte's line."""
    data = Path(path).read_bytes()
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        # A stand-in for the bad byte ends the prefix, so its last line is the byte's.
        lineno = len((data[: exc.start] + b"?").decode(encoding).splitlines())
        raise ValueError(f"{path}:{lineno}: non-{encoding.upper()} byte 0x{data[exc.start]:02x}") from None


def read_landmark_csv(path: str | Path) -> list[LandmarkFrame]:
    """Parse a landmark CSV, failing with the offending line number.

    Line 1 must be the exact header; every data row carries 127 columns.
    """
    frames: list[LandmarkFrame] = []
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != LANDMARK_CSV_HEADER:
        raise ValueError(f"{path}:1: bad header (expected {LANDMARK_CSV_HEADER[:24]}...)")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 1 + N_FEATURES:
            raise ValueError(
                f"{path}:{lineno}: expected {1 + N_FEATURES} columns "
                f"(label + {N_FEATURES} coordinates), got {len(parts)}"
            )
        label = parts[0].strip()
        if not label:
            raise ValueError(f"{path}:{lineno}: empty label")
        try:
            values = np.array([float(p) for p in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric coordinate ({exc})") from None
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{path}:{lineno}: non-finite coordinate")
        frames.append(LandmarkFrame(values, label))
    return frames


def write_blocks(path: str | Path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Serialize metadata plus named arrays into a deterministic container.

    Layout: magic, length-prefixed sorted-keys JSON metadata, then for each
    array (in sorted name order) a length-prefixed name, dtype string, shape,
    and raw little-endian bytes.
    """
    with open(path, "wb") as f:
        f.write(BLOCK_MAGIC)
        meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
        f.write(len(meta_bytes).to_bytes(8, "little"))
        f.write(meta_bytes)
        f.write(len(arrays).to_bytes(8, "little"))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name])
            dtype_le = arr.dtype.newbyteorder("<")
            header = {
                "name": name,
                "dtype": dtype_le.str,
                "shape": list(arr.shape),
            }
            header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
            raw = arr.astype(dtype_le, copy=False).tobytes()
            f.write(len(header_bytes).to_bytes(8, "little"))
            f.write(header_bytes)
            f.write(len(raw).to_bytes(8, "little"))
            f.write(raw)


def read_blocks(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container written by write_blocks; a defect is a ValueError naming the file."""
    data = Path(path).read_bytes()
    if not data.startswith(BLOCK_MAGIC):
        raise ValueError(f"{path}: not a block container (bad magic)")
    pos = len(BLOCK_MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise ValueError(f"{path}: truncated block container")
        out = data[pos : pos + n]
        pos += n
        return out

    def take_object(what: str, keys: dict[str, type]) -> dict:
        text = take(int.from_bytes(take(8), "little"))
        try:
            obj = json.loads(text.decode("utf-8"))
        except (ValueError, RecursionError):
            raise ValueError(f"{path}: {what} is not UTF-8 JSON") from None
        if not isinstance(obj, dict) or any(not isinstance(obj.get(k), t) for k, t in keys.items()):
            raise ValueError(f"{path}: {what} must be a JSON object with {sorted(keys)}")
        return obj

    meta = take_object("meta block", {})
    count = int.from_bytes(take(8), "little")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        header = take_object("array header", {"name": str, "dtype": str, "shape": list})
        raw = take(int.from_bytes(take(8), "little"))
        name = header["name"]
        try:
            arr = np.frombuffer(raw, dtype=np.dtype(header["dtype"]))
            arrays[name] = arr.reshape(header["shape"]).copy()
        except (TypeError, ValueError, SyntaxError) as exc:  # numpy evals "<04"'s repeat count
            raise ValueError(f"{path}: array {name!r} cannot be decoded ({exc})") from None
    return meta, arrays


def write_json_report(path: str | Path, payload: dict) -> None:
    """Write a JSON report with sorted keys and a trailing newline. A NaN or
    infinity is a ValueError: JSON has no token for them."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
