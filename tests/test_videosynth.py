import functools
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signpipe import cli, videosynth
from signpipe.datagen import synth_atlas
from signpipe.io import read_pgm, sha256_bytes, write_pgm
from signpipe.labels import LETTERS
from signpipe.rng import substream

from conftest import random_images


@pytest.fixture(scope="module")
def atlas():
    return videosynth.GestureAtlas(frames=synth_atlas(size=32), size=32)


def test_atlas_validation():
    frames = synth_atlas(size=32)
    del frames["Q"]
    with pytest.raises(ValueError, match="Q"):
        videosynth.GestureAtlas(frames=frames, size=32)
    frames = synth_atlas(size=32)
    frames["A"] = np.zeros((16, 16), dtype=np.uint8)
    with pytest.raises(ValueError):
        videosynth.GestureAtlas(frames=frames, size=32)


def test_text_to_keyframes(atlas):
    seq = videosynth.text_to_keyframes("AB C", atlas)
    assert seq.fps == 1 and seq.n_sources == 4
    assert seq.frames.shape == (4, 32, 32)
    assert np.array_equal(seq.frames[0], atlas.frames["A"])
    assert not seq.frames[2].any()  # space renders black


def test_text_to_keyframes_rejects_bad_chars(atlas):
    with pytest.raises(ValueError, match="'1'"):
        videosynth.text_to_keyframes("A1", atlas)
    with pytest.raises(ValueError):
        videosynth.text_to_keyframes("", atlas)


def test_duplicate_frames_contract(atlas):
    key = videosynth.text_to_keyframes("HI", atlas)
    seq = videosynth.duplicate_frames(key)
    assert seq.fps == 24 and len(seq.frames) == 48
    for i in range(48):
        assert np.array_equal(seq.frames[i], key.frames[i // 24])
    # the spec's pinned case: frame 30 of a 2-keyframe clip shows source 1
    assert np.array_equal(seq.frames[30], key.frames[1])


def test_duplicate_requires_1fps(atlas):
    seq = videosynth.duplicate_frames(videosynth.text_to_keyframes("X", atlas))
    with pytest.raises(ValueError):
        videosynth.duplicate_frames(seq)


def test_frame_sequence_validation():
    with pytest.raises(ValueError):
        videosynth.FrameSequence(np.zeros((1, 4, 4), dtype=np.uint8), np.zeros(5, int), fps=24)
    with pytest.raises(ValueError):
        videosynth.FrameSequence(np.zeros((1, 4, 4), dtype=np.uint8), np.zeros(30, int), fps=30)


def test_interpolate_counts_and_alignment(atlas):
    seq24 = videosynth.duplicate_frames(videosynth.text_to_keyframes("AB", atlas))
    seq60 = videosynth.interpolate_sequence(seq24)
    assert seq60.fps == 60
    assert len(seq60.frames) == 120
    # every 5th output sits on a source instant: bit-exact copy
    for j in range(0, 120, 5):
        src = 24 * j // 60
        assert np.array_equal(seq60.frames[j], seq24.frames[src]), j


def test_interpolate_requires_24fps(atlas):
    key = videosynth.text_to_keyframes("AB", atlas)
    with pytest.raises(ValueError):
        videosynth.interpolate_sequence(key)


def test_identical_frames_zero_flow_and_identity():
    img = random_images(1, 32, seed=21)[0]
    flow = videosynth._block_flow(img, img)
    assert not flow.any()
    flows = videosynth.estimate_flow(img, img, t=0.5)
    ctx = videosynth.context_features(img, img)
    out = videosynth.synthesize_frame(img, img, flows, ctx, t=0.5)
    assert np.array_equal(out, img)


def test_flow_recovers_global_shift():
    rng = substream(33, "shift")
    base = (rng.random((40, 40)) > 0.5).astype(np.uint8) * 255
    shifted = np.zeros_like(base)
    shifted[:, 2:] = base[:, :-2]  # content moves 2 px right
    flow = videosynth._block_flow(base, shifted)
    b = videosynth.BLOCK_SIZE
    interior = flow[b:-b, b:-b]
    ok = (interior[..., 0] == 2) & (interior[..., 1] == 0)
    assert ok.mean() >= 0.9


def reference_block_flow(i0, i1):
    """The one-candidate-at-a-time search _block_flow replaced, kept as its
    oracle: 289 full-image SAD passes in float64, strict improvement only."""
    if i0.shape != i1.shape:
        raise ValueError(f"frame shapes differ: {i0.shape} vs {i1.shape}")
    h, w = i0.shape
    if np.array_equal(i0, i1):
        return np.zeros((h, w, 2))
    b, r = videosynth.BLOCK_SIZE, videosynth.SEARCH_RADIUS
    rows = np.arange(0, h, b)
    cols = np.arange(0, w, b)
    a = i0.astype(np.float64)
    padded = np.full((h + 2 * r, w + 2 * r), np.inf)
    padded[r : r + h, r : r + w] = i1

    displacements = [(0, 0)] + [
        (dx, dy)
        for dy in range(-r, r + 1)
        for dx in range(-r, r + 1)
        if (dx, dy) != (0, 0)
    ]
    best_cost = None
    best_dx = np.zeros((len(rows), len(cols)))
    best_dy = np.zeros((len(rows), len(cols)))
    for dx, dy in displacements:
        window = padded[r + dy : r + dy + h, r + dx : r + dx + w]
        diff = np.abs(a - window)
        cost = np.add.reduceat(np.add.reduceat(diff, rows, axis=0), cols, axis=1)
        if best_cost is None:
            best_cost = cost
            continue
        better = cost < best_cost
        best_cost = np.where(better, cost, best_cost)
        best_dx = np.where(better, dx, best_dx)
        best_dy = np.where(better, dy, best_dy)

    row_sizes = np.diff(np.append(rows, h))
    col_sizes = np.diff(np.append(cols, w))
    dx_full = np.repeat(np.repeat(best_dx, row_sizes, axis=0), col_sizes, axis=1)
    dy_full = np.repeat(np.repeat(best_dy, row_sizes, axis=0), col_sizes, axis=1)
    return np.stack([dx_full, dy_full], axis=-1)


@functools.cache
def _atlas_frames(size):
    return synth_atlas(size=size)


def _shift(img, dy, dx):
    """img moved by (dy, dx) px, with black filling what enters the frame."""
    h, w = img.shape
    out = np.zeros_like(img)
    out[max(dy, 0) : h + min(dy, 0), max(dx, 0) : w + min(dx, 0)] = img[
        max(-dy, 0) : h + min(-dy, 0), max(-dx, 0) : w + min(-dx, 0)
    ]
    return out


@st.composite
def flow_pairs(draw):
    """(i0, i1) pairs: random, sparse (black with a few blobs, so most blocks
    cost 0 at zero shift), atlas letters, identical, and shifted copies.
    Random sizes are never a multiple of the block size."""
    kind = draw(st.sampled_from(["random", "sparse", "atlas", "identical", "shifted"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "atlas":
        frames = _atlas_frames(draw(st.sampled_from([32, 40])))
        i0 = frames[draw(st.sampled_from(sorted(frames)))]
        i1 = frames[draw(st.sampled_from(sorted(frames)))]
        return i0, i1
    side = st.integers(9, 40).filter(lambda n: n % videosynth.BLOCK_SIZE)
    h, w = draw(side), draw(side)
    i0 = rng.integers(0, 256, (h, w), dtype=np.uint8)
    if kind == "sparse":
        i0 = np.zeros((h, w), dtype=np.uint8)
        i1 = np.zeros((h, w), dtype=np.uint8)
        for img in (i0, i1):
            for _ in range(int(rng.integers(1, 4))):
                y, x = rng.integers(0, h), rng.integers(0, w)
                img[y : y + int(rng.integers(1, 6)), x : x + int(rng.integers(1, 6))] = rng.integers(1, 256)
        return i0, i1
    if kind == "random":
        return i0, rng.integers(0, 256, (h, w), dtype=np.uint8)
    if kind == "identical":
        return i0, i0.copy()
    ry, rx = (min(videosynth.SEARCH_RADIUS + 2, n - 1) for n in (h, w))
    return i0, _shift(i0, draw(st.integers(-ry, ry)), draw(st.integers(-rx, rx)))


@settings(max_examples=250, deadline=None)
@given(flow_pairs())
@example((np.zeros((16, 24), np.uint8), np.full((16, 24), 9, np.uint8)))  # whole blocks, every tie
@example((np.arange(63, dtype=np.uint8).reshape(7, 9), np.zeros((7, 9), np.uint8)))  # one partial block
def test_block_flow_equals_reference(pair):
    i0, i1 = pair
    flow = videosynth._block_flow(i0, i1)
    expected = reference_block_flow(i0, i1)
    assert flow.dtype == expected.dtype and flow.shape == expected.shape
    assert flow.tobytes() == expected.tobytes()


def test_block_flow_on_atlas_pairs_equals_reference():
    frames = _atlas_frames(128)
    for a, b in ["AB", "HE", "LO", "O ", " S", "MN", "ZA"]:
        i0, i1 = frames["SPACE" if a == " " else a], frames["SPACE" if b == " " else b]
        assert videosynth._block_flow(i0, i1).tobytes() == reference_block_flow(i0, i1).tobytes()


def test_block_flow_memory_is_bounded():
    # every block of two random 512 px frames is searched: 4,096 blocks,
    # 76 MB per uint8 temporary if they were scored in a single pass
    # (11.3 MB measured: the 4 MB flow returned, per-block arrays, one chunk)
    rng = np.random.default_rng(3)
    i0, i1 = (rng.integers(0, 256, (512, 512), dtype=np.uint8) for _ in range(2))
    tracemalloc.start()
    try:
        flow = videosynth._block_flow(i0, i1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert flow.shape == (512, 512, 2)
    assert peak <= 13 * 2**20


def test_flow_t_validation():
    img = np.zeros((16, 16), dtype=np.uint8)
    for t in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError):
            videosynth.estimate_flow(img, img, t)


def test_synthesize_midpoint_of_black_and_white():
    # zero flow, t=0.5: neither side is down-weighted, so fuse to 127.5 -> 128
    black = np.zeros((16, 16), dtype=np.uint8)
    white = np.full((16, 16), 255, dtype=np.uint8)
    zero = np.zeros((16, 16, 2))
    flows = (zero, zero)
    ctx = videosynth.context_features(black, white)
    out = videosynth.synthesize_frame(black, white, flows, ctx, t=0.5)
    assert np.all(out == 128)


def test_synthesize_occlusion_prefers_nearer_source():
    # contexts disagree everywhere; near t=0 the far (white) endpoint fades
    black = np.zeros((16, 16), dtype=np.uint8)
    white = np.full((16, 16), 255, dtype=np.uint8)
    zero = np.zeros((16, 16, 2))
    flows = (zero, zero)
    ctx = videosynth.context_features(black, white)
    near0 = videosynth.synthesize_frame(black, white, flows, ctx, t=0.25)
    plain = videosynth.round_half_up_u8(0.75 * black + 0.25 * white)
    assert np.all(near0.astype(int) < plain.astype(int))


def reference_backward_warp(img, flow):
    """Bilinear sampling of one map, its grid built for that map alone."""
    h, w = img.shape
    src = img.astype(np.float64)
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    sx = np.clip(xs + flow[..., 0], 0.0, w - 1.0)
    sy = np.clip(ys + flow[..., 1], 0.0, h - 1.0)
    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sx - x0
    fy = sy - y0
    top = src[y0, x0] * (1 - fx) + src[y0, x1] * fx
    bottom = src[y1, x0] * (1 - fx) + src[y1, x1] * fx
    return top * (1 - fy) + bottom * fy


def reference_synthesize_frame(i0, i1, flows, contexts, t):
    """synthesize_frame as four separate warps and full weight maps, kept as its oracle."""
    (f_t0, f_t1), (c0, c1) = flows, contexts
    warp0 = reference_backward_warp(i0, f_t0)
    warp1 = reference_backward_warp(i1, f_t1)
    wc0 = reference_backward_warp(c0, f_t0)
    wc1 = reference_backward_warp(c1, f_t1)
    w0 = np.full(warp0.shape, 1.0 - t)
    w1 = np.full(warp1.shape, t)
    disagree = np.abs(wc0 - wc1) > videosynth.OCCLUSION_THRESHOLD
    if t < 0.5:
        w1 = np.where(disagree, w1 * videosynth.OCCLUSION_DAMPING, w1)
    elif t > 0.5:
        w0 = np.where(disagree, w0 * videosynth.OCCLUSION_DAMPING, w0)
    return videosynth.round_half_up_u8((w0 * warp0 + w1 * warp1) / (w0 + w1))


def _assert_synthesis_equals_reference(i0, i1, flows, t):
    contexts = videosynth.context_features(i0, i1)
    out = videosynth.synthesize_frame(i0, i1, flows, contexts, t)
    expected = reference_synthesize_frame(i0, i1, flows, contexts, t)
    assert out.dtype == np.uint8 and out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("size", [32, 128])
def test_synthesize_frame_on_atlas_pairs_equals_reference(size):
    frames = _atlas_frames(size)
    for a, b in ["AB", "HE", "LO", "O ", " S", "MN", "ZA"]:
        i0, i1 = frames["SPACE" if a == " " else a], frames["SPACE" if b == " " else b]
        f01 = videosynth._block_flow(i0, i1)
        for t in (0.2, 0.4, 0.6, 0.8):
            _assert_synthesis_equals_reference(i0, i1, videosynth._scale_flow(f01, t), t)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1),
    st.floats(0.0, 3.0), st.sampled_from([0.1, 0.2, 0.4, 0.5, 0.6, 0.8, 0.9]),
)
def test_synthesize_frame_equals_reference_past_the_edge(h, w, seed, reach, t):
    # flows of up to 3 frame sizes, so many samples clamp to the border
    rng = np.random.default_rng(seed)
    i0, i1 = (rng.integers(0, 256, (h, w), dtype=np.uint8) for _ in range(2))
    scale = reach * np.array([w, h], dtype=np.float64)
    flows = tuple(rng.uniform(-1, 1, (h, w, 2)) * scale for _ in range(2))
    _assert_synthesis_equals_reference(i0, i1, flows, t)


def _reference_interpolate(seq):
    """The per-frame loop interpolate_sequence replaced, kept as its oracle:
    every non-aligned output is synthesized, identical brackets included."""
    frames = seq.frames
    t_in = len(frames)
    out = np.empty((60 * seq.n_sources,) + frames.shape[1:], dtype=np.uint8)
    flow_cache, ctx_cache = {}, {}
    for j in range(len(out)):
        num = 24 * j
        if num % 60 == 0:
            out[j] = frames[num // 60]
            continue
        pos = num / 60.0
        idx0 = int(np.floor(pos))
        idx1 = min(idx0 + 1, t_in - 1)
        t = pos - idx0
        i0, i1 = frames[idx0], frames[idx1]
        if idx0 not in flow_cache:
            flow_cache[idx0] = videosynth._block_flow(i0, i1)
            ctx_cache[idx0] = videosynth.context_features(i0, i1)
        out[j] = videosynth.synthesize_frame(
            i0, i1, videosynth._scale_flow(flow_cache[idx0], t), ctx_cache[idx0], t
        )
    return out


def _random_24fps(n_sources, size, seed):
    """A 24 FPS sequence whose neighbouring frames all differ."""
    frames = random_images(24 * n_sources, size, seed)
    assert all(not np.array_equal(a, b) for a, b in zip(frames[:-1], frames[1:]))
    return videosynth.FrameSequence(images=frames, index=np.arange(len(frames)), fps=24)


@pytest.mark.parametrize("text", ["BOOK", "HELLO", " HI  YOU ", "A", None])
def test_interpolate_matches_per_frame_reference(atlas, text):
    if text is None:
        seq24 = _random_24fps(2, 24, seed=5)
    else:
        seq24 = videosynth.duplicate_frames(videosynth.text_to_keyframes(text, atlas))
    out = videosynth.interpolate_sequence(seq24).frames
    assert out.tobytes() == _reference_interpolate(seq24).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_interpolate_with_irregular_repeats_matches_reference(data):
    # neighbours drawn from a pool of 2-3 frames plus a copy of one of them,
    # so equal and differing pairs alternate irregularly, including at the
    # sequence's end, and two different indices can hold the same pixels
    n_sources = data.draw(st.integers(1, 3))
    size = data.draw(st.integers(9, 20))
    pool = random_images(data.draw(st.integers(2, 3)), size, data.draw(st.integers(0, 2**16)))
    pool = np.concatenate([pool, pool[[data.draw(st.integers(0, len(pool) - 1))]]])
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                               min_size=24 * n_sources, max_size=24 * n_sources))
    seq24 = videosynth.FrameSequence(images=pool, index=np.array(picks), fps=24)
    out = videosynth.interpolate_sequence(seq24).frames
    assert out.tobytes() == _reference_interpolate(seq24).tobytes()


def test_interpolate_work_counts(atlas, monkeypatch):
    calls = {"_block_flow": 0, "synthesize_frame": 0}
    for name in calls:
        original = getattr(videosynth, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(videosynth, name, counted)
    # in the twins' atlas A has E's image: the E-A of DEAR is two keyframes with equal pixels
    twins = videosynth.GestureAtlas(frames={**atlas.frames, "A": atlas.frames["E"]}, size=32)
    for letters, changes in [(atlas, 15), (twins, 14)]:
        calls.update(dict.fromkeys(calls, 0))
        seq24 = videosynth.duplicate_frames(
            videosynth.text_to_keyframes("HELLO DEAR FRIEND", letters)
        )
        videosynth.interpolate_sequence(seq24)
        frames = seq24.frames
        distinct_pairs = sum(
            not np.array_equal(a, b) for a, b in zip(frames[:-1], frames[1:])
        )
        differing_brackets = sum(
            not np.array_equal(frames[24 * j // 60], frames[min(24 * j // 60 + 1, len(frames) - 1)])
            for j in range(60 * seq24.n_sources)
            if (24 * j) % 60
        )
        # 16 letter changes, one of them the doubled L (and for the twins, the
        # E-A); two outputs fall inside each change
        assert distinct_pairs == changes and differing_brackets == 2 * changes
        assert calls == {"_block_flow": distinct_pairs, "synthesize_frame": differing_brackets}


def test_interpolate_memory_is_output_plus_constant():
    atlas128 = videosynth.GestureAtlas(frames=synth_atlas(size=128), size=128)
    seq24 = videosynth.duplicate_frames(
        videosynth.text_to_keyframes("CONGRATULATIONS DEAR SISTER", atlas128)
    )
    tracemalloc.start()
    try:
        out = videosynth.interpolate_sequence(seq24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 27 keyframes plus the two outputs synthesized inside each of the 26 letter changes
    assert len(out.images) == 27 + 2 * 26
    assert len(out.index) == 27 * 60
    assert peak - out.images.nbytes <= 8 * 2**20


def read_clip(directory):
    """(manifest, frames) of a written clip: each frame the manifest lists,
    read from its file after checking the file's bytes against its checksum."""
    manifest = json.loads((directory / "manifest.json").read_text())
    for entry in manifest["frames"]:
        assert sha256_bytes((directory / entry["file"]).read_bytes()) == entry["sha256"]
    return manifest, np.stack([read_pgm(directory / e["file"]) for e in manifest["frames"]])


def test_write_read_roundtrip(tmp_path, atlas):
    seq = videosynth.duplicate_frames(videosynth.text_to_keyframes("AB", atlas))
    manifest_path = videosynth.write_sequence(seq, tmp_path / "seq")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["schema"] == "frames/1"
    assert manifest["fps"] == 24
    assert manifest["frame_count"] == 48
    assert len(manifest["frames"]) == 48
    manifest, frames = read_clip(tmp_path / "seq")
    assert manifest["n_sources"] == seq.n_sources
    assert np.array_equal(frames, seq.frames)


def test_write_sequence_deterministic(tmp_path, atlas):
    seq = videosynth.text_to_keyframes("XY", atlas)
    videosynth.write_sequence(seq, tmp_path / "a")
    videosynth.write_sequence(seq, tmp_path / "b")
    for name in ("manifest.json", "frame_000000.pgm", "frame_000001.pgm"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def reference_write_sequence(seq, directory):
    """The per-frame writer write_sequence replaced, kept as its oracle:
    every frame is its own file, written and hashed."""
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, frame in enumerate(seq.frames):
        name = f"frame_{i:06d}.pgm"
        data = write_pgm(directory / name, frame)
        entries.append({"file": name, "sha256": sha256_bytes(data)})
    manifest = {
        "schema": "frames/1",
        "fps": seq.fps,
        "n_sources": seq.n_sources,
        "frame_count": len(seq.frames),
        "height": int(seq.frames.shape[1]),
        "width": int(seq.frames.shape[2]),
        "frames": entries,
    }
    path = directory / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.fixture(scope="module")
def clip128():
    atlas128 = videosynth.GestureAtlas(frames=_atlas_frames(128), size=128)
    seq24 = videosynth.duplicate_frames(videosynth.text_to_keyframes("HELLO DEAR FRIEND", atlas128))
    return videosynth.interpolate_sequence(seq24)


def test_write_sequence_equals_per_frame_reference(tmp_path, clip128):
    videosynth.write_sequence(clip128, tmp_path / "new")
    reference_write_sequence(clip128, tmp_path / "ref")
    new, ref = _files(tmp_path / "new"), _files(tmp_path / "ref")
    assert len(ref) == 17 * 60 + 1
    assert new == ref


def test_write_sequence_frames_are_independent_files(tmp_path, clip128):
    # twins are separate files: editing one in place leaves the others intact
    videosynth.write_sequence(clip128, tmp_path / "seq")
    paths = [tmp_path / "seq" / f"frame_{i:06d}.pgm" for i in range(len(clip128.frames))]
    assert len({os.stat(p).st_ino for p in paths}) == len(paths)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    paths[1].write_bytes(b"edited")
    assert read_pgm(paths[0]).tobytes() == clip128.frames[0].tobytes()


@pytest.mark.parametrize("first, second", [("AAB", "ABB"), ("HELLO", "WORLD"), ("ABB", "A")])
def test_write_sequence_over_an_earlier_clip(tmp_path, atlas, first, second):
    def clip(text):
        return videosynth.interpolate_sequence(
            videosynth.duplicate_frames(videosynth.text_to_keyframes(text, atlas))
        )

    videosynth.write_sequence(clip(first), tmp_path / "seq")
    seq = clip(second)
    videosynth.write_sequence(seq, tmp_path / "seq")
    manifest, frames = read_clip(tmp_path / "seq")
    assert manifest["n_sources"] == len(second)
    assert frames.tobytes() == seq.frames.tobytes()
    # no frame of a longer first clip is left beside the second
    names = sorted(p.name for p in (tmp_path / "seq").glob("*.pgm"))
    assert names == [entry["file"] for entry in manifest["frames"]]


def test_stage_directories_read_back(tmp_path, atlas):
    out = tmp_path / "video"
    assert cli.main(["synthesize", "--text", "BOOK  A", "--out", str(out),
                     "--stages", "--set", "datagen.atlas_size=32"]) == 0
    key = videosynth.text_to_keyframes("BOOK  A", atlas)
    seq24 = videosynth.duplicate_frames(key)
    for name, expected in [("frames1", key), ("frames24", seq24),
                           ("frames60", videosynth.interpolate_sequence(seq24))]:
        manifest, frames = read_clip(out / name)
        assert manifest["fps"] == expected.fps
        assert frames.tobytes() == expected.frames.tobytes()


def test_synthesize_never_gathers_a_clip_into_frames(tmp_path, monkeypatch):
    # every stage passes repeats on as indices; translate shares this path
    def gathered(seq):
        raise AssertionError(f"a {seq.fps} FPS clip was gathered into frames")

    monkeypatch.setattr(videosynth.FrameSequence, "frames", property(gathered))
    assert cli.main(["synthesize", "--text", " AA  BOOK ", "--out", str(tmp_path / "v"),
                     "--stages", "--set", "datagen.atlas_size=36"]) == 0
    assert len(list((tmp_path / "v" / "frames60").glob("*.pgm"))) == 600


def test_letters_constant():
    assert len(LETTERS) == 26  # atlas covers the full alphabet plus SPACE
