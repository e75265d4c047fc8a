"""Turn corrected text into a 60 FPS gesture clip, frame by frame.

One keyframe per character comes out of the gesture atlas, duplication
stretches it to 24 FPS, and block-matching flow interpolation lifts that to
60 FPS. Aligned output frames stay bit-identical to their sources; only the
in-between frames are synthesized. The clip lands on disk as PGM files plus
a checksummed manifest.
"""
import shutil
import tempfile
from pathlib import Path

import numpy as np

from signpipe import datagen, videosynth

TEXT = "HI YOU"

# ---- 1. text -> keyframes -> 24 FPS -> 60 FPS ------------------------------
atlas = videosynth.GestureAtlas(frames=datagen.synth_atlas(size=64), size=64)
key = videosynth.text_to_keyframes(TEXT, atlas)
seq24 = videosynth.duplicate_frames(key)
seq60 = videosynth.interpolate_sequence(seq24)
print(f"{TEXT!r}: {len(key.frames)} keyframes -> "
      f"{len(seq24.frames)} frames at {seq24.fps} FPS -> "
      f"{len(seq60.frames)} frames at {seq60.fps} FPS")

aligned = sum(
    np.array_equal(seq60.frames[j], seq24.frames[24 * j // 60])
    for j in range(0, len(seq60.frames), 5)
)
print(f"{aligned} aligned frames are bit-exact source copies")

# ---- 2. what the flow stage sees at a gesture boundary ---------------------
i0, i1 = atlas.frames["H"], atlas.frames["I"]
flow = videosynth._block_flow(i0, i1)
moving = float((np.abs(flow).sum(axis=-1) > 0).mean())
print(f"H -> I transition: {moving:.0%} of pixels assigned nonzero motion")

flows = videosynth.estimate_flow(i0, i1, t=0.5)
ctx = videosynth.context_features(i0, i1)
mid = videosynth.synthesize_frame(i0, i1, flows, ctx, t=0.5)
print(f"midpoint frame range [{mid.min()}, {mid.max()}], "
      f"mean {mid.mean():.1f} between {i0.mean():.1f} and {i1.mean():.1f}")

# identical endpoints are a fixed point: zero flow, output == input
same = videosynth.synthesize_frame(
    i0, i0, videosynth.estimate_flow(i0, i0, 0.5),
    videosynth.context_features(i0, i0), 0.5,
)
print(f"identity check on a held gesture: {np.array_equal(same, i0)}")

# ---- 3. write the clip with its manifest ------------------------------------
out = Path(tempfile.mkdtemp(prefix="signpipe-demo-")) / "clip"
manifest = videosynth.write_sequence(seq60, out)
n_files = len(list(out.glob("*.pgm")))
print(f"wrote {n_files} frames + manifest to {out}")

# round trip: checksums verify on read, tampering is caught
back = videosynth.read_sequence(out)
print(f"read back {len(back.frames)} frames at {back.fps} FPS, "
      f"bit-equal: {all(np.array_equal(a, b) for a, b in zip(back.frames, seq60.frames))}")
shutil.rmtree(out.parent)
