"""Text to gesture video: keyframes, duplication, flow-based interpolation.

Text renders as 1 FPS keyframes from a letter atlas, duplicates to 24 FPS
(pure copies), then resamples to 60 FPS. Each 60 FPS output is a bit-exact
copy of the source frame at or before its time, except those strictly
between two differing neighbouring source frames: those are synthesized
between that pair by block-matching flow with a context-based occlusion
heuristic. A clip holds its images (one per character and one per
synthesized frame) and a per-frame index into them, so a copy is an index.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .imageops import round_half_up_u8
from .io import pgm_bytes, sha256_bytes, write_json_report, write_numbered
from .labels import LETTERS, SIGNABLE, SPACE

BLOCK_SIZE = 8
SEARCH_RADIUS = 8
OCCLUSION_THRESHOLD = 24.0
OCCLUSION_DAMPING = 0.25
# Block search: candidate k is (dy, dx) = divmod(k, _SPAN) - SEARCH_RADIUS.
_SPAN = 2 * SEARCH_RADIUS + 1
_ZERO_SHIFT = SEARCH_RADIUS * _SPAN + SEARCH_RADIUS
# Blocks scored per pass: 16 x 289 candidates x 64 pixels, 0.3 MB per uint8
# temporary. On the 128 px atlas 16 blocks time as fast as 128 or faster.
_SEARCH_CHUNK = 16
FRAME_FILE = "frame_{:06d}.pgm"


@dataclass(frozen=True)
class GestureAtlas:
    """Letter -> frame map; SPACE is the all-black rest frame."""

    frames: dict[str, np.ndarray]
    size: int

    def __post_init__(self):
        missing = [c for c in LETTERS + (SPACE,) if c not in self.frames]
        if missing:
            raise ValueError(f"atlas is missing entries: {missing}")
        for name, img in self.frames.items():
            if img.shape != (self.size, self.size) or img.dtype != np.uint8:
                raise ValueError(
                    f"atlas[{name}] must be {self.size}x{self.size} uint8, "
                    f"got {img.shape} {img.dtype}"
                )


@dataclass(frozen=True)
class FrameSequence:
    """A clip at 1, 24, or 60 FPS: frame i is images[index[i]], a repeat only an index.

    n_sources, the keyframe count, is the clip's length in seconds. frames
    gathers every frame's pixels, for readers outside the pipeline.
    """

    images: np.ndarray  # (K, H, W) uint8
    index: np.ndarray  # (T,) into images
    fps: int

    def __post_init__(self):
        if self.fps not in (1, 24, 60):
            raise ValueError(f"fps must be 1, 24, or 60, got {self.fps}")
        if self.images.ndim != 3 or self.images.dtype != np.uint8:
            raise ValueError("images must be a (K, H, W) uint8 array")
        if not len(self.index) or len(self.index) % self.fps:
            raise ValueError(f"{len(self.index)} frames are not a positive multiple of {self.fps}")

    @property
    def n_sources(self) -> int:
        return len(self.index) // self.fps

    @functools.cached_property
    def frames(self) -> np.ndarray:
        return self.images[self.index]


def text_to_keyframes(text: str, atlas: GestureAtlas) -> FrameSequence:
    """One keyframe per character; SPACE maps to the blank frame."""
    bad = sorted(set(text) - SIGNABLE)
    if bad:
        raise ValueError(f"cannot render characters {bad}: only A-Z and space are signable")
    if not text:
        raise ValueError("cannot render empty text")
    images = np.stack([atlas.frames[SPACE if c == " " else c] for c in text])
    return FrameSequence(images=images, index=np.arange(len(text)), fps=1)


def duplicate_frames(seq: FrameSequence) -> FrameSequence:
    """1 -> 24 FPS by repetition: frame i copies source floor(i/24)."""
    if seq.fps != 1:
        raise ValueError(f"expected a 1 FPS sequence, got {seq.fps}")
    return FrameSequence(images=seq.images, index=np.repeat(seq.index, 24), fps=24)


def _block_flow(i0: np.ndarray, i1: np.ndarray) -> np.ndarray:
    """Per-pixel forward displacement i0 -> i1 from 8x8 block SAD search.

    Zero displacement is evaluated first, then the rest in raster order (dy
    outer), and later candidates must strictly improve, so ties (including
    flat regions) resolve to zero. Candidates whose window leaves the image
    score infinity; a partial block at the bottom or right edge counts only
    its pixels inside the image.

    A block whose zero-shift SAD is 0 is decided without a search. The other
    blocks score every candidate in one vectorized pass, _SEARCH_CHUNK blocks
    at a time so the temporaries stay bounded at any frame size. SAD over
    uint8 is an exact integer, so costs and tie-breaks are those of trying
    the candidates one by one.
    """
    if i0.shape != i1.shape:
        raise ValueError(f"frame shapes differ: {i0.shape} vs {i1.shape}")
    h, w = i0.shape
    b, r = BLOCK_SIZE, SEARCH_RADIUS
    nby, nbx = -(-h // b), -(-w // b)
    # Zero padding to whole blocks, plus the search margin around i1.
    a = np.zeros((nby * b, nbx * b), dtype=np.uint8)
    a[:h, :w] = i0
    inside = np.zeros_like(a)
    inside[:h, :w] = 1
    padded = np.zeros((nby * b + 2 * r, nbx * b + 2 * r), dtype=np.uint8)
    padded[r : r + h, r : r + w] = i1

    def blocks(img: np.ndarray) -> np.ndarray:
        return img.reshape(nby, b, nbx, b).swapaxes(1, 2).reshape(nby * nbx, b * b)

    a_blocks = blocks(a)
    zero_cost = _abs_diff(a_blocks, blocks(padded[r:-r, r:-r])).sum(axis=1, dtype=np.int32)
    best = np.full(nby * nbx, _ZERO_SHIFT)
    todo = np.flatnonzero(zero_cost)
    by, bx = np.divmod(todo, nbx)
    r0, c0 = by * b, bx * b
    shifts = np.arange(-r, r + 1)

    def fits(start: np.ndarray, size: int) -> np.ndarray:
        """Shifts that keep a block's pixels start..min(start + b, size) - 1 inside."""
        end = np.minimum(start + b, size)
        return (shifts >= -start[:, None]) & (shifts <= (size - end)[:, None])

    valid = (fits(r0, h)[:, :, None] & fits(c0, w)[:, None, :]).reshape(len(todo), _SPAN * _SPAN)
    counted = blocks(inside)[todo, None]  # 0 on the padding of partial blocks
    windows = sliding_window_view(padded, (b, b))
    dy_off, dx_off = np.divmod(np.arange(_SPAN * _SPAN), _SPAN)
    for lo in range(0, len(todo), _SEARCH_CHUNK):
        part = slice(lo, lo + _SEARCH_CHUNK)
        cand = windows[r0[part, None] + dy_off, c0[part, None] + dx_off]
        cand = cand.reshape(-1, _SPAN * _SPAN, b * b)
        diff = _abs_diff(cand, a_blocks[todo[part], None])
        diff *= counted[part]
        cost = diff.sum(axis=2, dtype=np.int32)
        cost[~valid[part]] = np.iinfo(np.int32).max
        choice = np.argmin(cost, axis=1)
        choice[cost[:, _ZERO_SHIFT] == cost.min(axis=1)] = _ZERO_SHIFT
        best[todo[part]] = choice

    dy, dx = np.divmod(best.reshape(nby, nbx), _SPAN)
    per_block = np.stack([dx, dy], axis=-1) - r
    return per_block.repeat(b, axis=0).repeat(b, axis=1)[:h, :w].astype(np.float64)


def _abs_diff(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|x - y| for uint8 arrays, without widening."""
    return np.maximum(x, y) - np.minimum(x, y)


def _scale_flow(f01: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    return -t * f01, (1.0 - t) * f01


def estimate_flow(i0: np.ndarray, i1: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Block-matching flow between endpoints, scaled to intermediate time t.

    Returns the pair (f_t0, f_t1): the (H, W, 2) backward-warp displacements,
    as (dx, dy), from time t toward endpoint 0 and toward endpoint 1.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must be in (0, 1), got {t}")
    return _scale_flow(_block_flow(i0, i1), t)


def context_features(i0: np.ndarray, i1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair (c0, c1) of 3x3 box means of endpoints 0 and 1, edges replicated."""
    return _box_mean(i0), _box_mean(i1)


def _box_mean(img: np.ndarray) -> np.ndarray:
    padded = np.pad(img.astype(np.float64), 1, mode="edge")
    out = np.zeros(img.shape, dtype=np.float64)
    for dy in range(3):
        for dx in range(3):
            out += padded[dy : dy + img.shape[0], dx : dx + img.shape[1]]
    return out / 9.0


def _bilinear_grid(flow: np.ndarray):
    """Where backward warping by flow samples (x + dx, y + dy), clamped to the
    frame: the flat indices of its four neighbours and its offsets fx, fy."""
    h, w = flow.shape[:2]
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    sx = np.clip(xs + flow[..., 0], 0.0, w - 1.0)
    sy = np.clip(ys + flow[..., 1], 0.0, h - 1.0)
    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    return (y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1), sx - x0, sy - y0


def _sample(img: np.ndarray, grid) -> np.ndarray:
    """Bilinear filtering of img at the points of a _bilinear_grid."""
    (i00, i01, i10, i11), fx, fy = grid
    src = img.astype(np.float64).ravel()
    top = src.take(i00) * (1 - fx) + src.take(i01) * fx
    bottom = src.take(i10) * (1 - fx) + src.take(i11) * fx
    return top * (1 - fy) + bottom * fy


def synthesize_frame(i0: np.ndarray, i1: np.ndarray, flows, contexts, t: float) -> np.ndarray:
    """Warp both endpoints toward time t and fuse as (1-t)*warp0 + t*warp1.

    flows is estimate_flow's (f_t0, f_t1) and contexts is context_features'
    (c0, c1), endpoint 0 first in both. Each endpoint and its context map
    are warped together through one sampling grid per flow. Where the warped
    context maps disagree by more than OCCLUSION_THRESHOLD, the temporally
    farther endpoint's weight is multiplied by OCCLUSION_DAMPING and the
    weights renormalized; at t = 0.5 both endpoints are equally near, so no
    down-weighting applies.
    """
    (f_t0, f_t1), (c0, c1) = flows, contexts
    grid0, grid1 = _bilinear_grid(f_t0), _bilinear_grid(f_t1)
    warp0, wc0 = _sample(i0, grid0), _sample(c0, grid0)
    warp1, wc1 = _sample(i1, grid1), _sample(c1, grid1)
    damping = np.where(np.abs(wc0 - wc1) > OCCLUSION_THRESHOLD, OCCLUSION_DAMPING, 1.0)
    w0 = (1.0 - t) * (damping if t > 0.5 else 1.0)
    w1 = t * (damping if t < 0.5 else 1.0)
    return round_half_up_u8((w0 * warp0 + w1 * warp1) / (w0 + w1))


def interpolate_sequence(seq: FrameSequence) -> FrameSequence:
    """24 -> 60 FPS. Output j covers time j/60, source position 24j/60.

    Every output starts as a copy of the source frame at or before its time:
    exact where that time is a source time (every 5th output, since
    lcm(24,60)=120) and between two identical frames, where the flow is
    zero, the context maps agree and the fusion reproduces the frame for
    every t. Only the outputs strictly between two differing neighbours i
    and i+1 are synthesized, with one flow and one pair of context maps per
    such pair. Copies are gathered as indices; pixels are compared only
    where the index changes, since two indices may hold equal images (a
    doubled letter), and the output's images are the input's followed by
    the synthesized frames.
    """
    if seq.fps != 24:
        raise ValueError(f"expected a 24 FPS sequence, got {seq.fps}")
    images, index = seq.images, seq.index
    out = index[24 * np.arange(60 * seq.n_sources) // 60]
    made = []
    for i in np.flatnonzero(index[:-1] != index[1:]).tolist():
        i0, i1 = images[index[i]], images[index[i + 1]]
        if np.array_equal(i0, i1):
            continue
        flow, contexts = _block_flow(i0, i1), context_features(i0, i1)
        for j in range(5 * i // 2 + 1, -(-5 * (i + 1) // 2)):  # i < 24j/60 < i + 1
            t = 24 * j / 60.0 - i  # not 0.4 * j - i: that differs in the last bit
            out[j] = len(images) + len(made)
            made.append(synthesize_frame(i0, i1, _scale_flow(flow, t), contexts, t))
    return FrameSequence(images=np.stack([*images, *made]), index=out, fps=60)


def write_sequence(seq: FrameSequence, directory: str | Path) -> Path:
    """Write numbered PGM frames plus a manifest with per-frame checksums.

    Every frame is its own file. Each image is encoded and hashed once; its
    repeats (most of a clip: the copies between letter changes) are written
    from those bytes. io.write_numbered unlinks the frames past the last,
    left by a longer clip written there before, so the directory holds
    exactly the frames the manifest lists.
    """
    directory = Path(directory)
    encoded = [pgm_bytes(img) for img in seq.images]
    digests = [sha256_bytes(data) for data in encoded]
    index = seq.index.tolist()
    write_numbered(directory, FRAME_FILE, [encoded[k] for k in index])
    entries = [{"file": FRAME_FILE.format(i), "sha256": digests[k]} for i, k in enumerate(index)]
    manifest = {
        "schema": "frames/1",
        "fps": seq.fps,
        "n_sources": seq.n_sources,
        "frame_count": len(seq.index),
        "height": int(seq.images.shape[1]),
        "width": int(seq.images.shape[2]),
        "frames": entries,
    }
    path = directory / "manifest.json"
    write_json_report(path, manifest)
    return path
