import json
import tracemalloc

import numpy as np
import pytest

from signpipe import videosynth
from signpipe.datagen import synth_atlas
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
        videosynth.FrameSequence(np.zeros((5, 4, 4), dtype=np.uint8), fps=24, n_sources=1)
    with pytest.raises(ValueError):
        videosynth.FrameSequence(np.zeros((24, 4, 4), dtype=np.uint8), fps=30, n_sources=1)


@pytest.mark.parametrize("method", ["flow", "crossfade"])
def test_interpolate_counts_and_alignment(atlas, method):
    seq24 = videosynth.duplicate_frames(videosynth.text_to_keyframes("AB", atlas))
    seq60 = videosynth.interpolate_sequence(seq24, method=method)
    assert seq60.fps == 60
    assert len(seq60.frames) == 120
    # every 5th output sits on a source instant: bit-exact copy
    for j in range(0, 120, 5):
        src = 24 * j // 60
        assert np.array_equal(seq60.frames[j], seq24.frames[src]), (method, j)


def test_interpolate_requires_24fps(atlas):
    key = videosynth.text_to_keyframes("AB", atlas)
    with pytest.raises(ValueError):
        videosynth.interpolate_sequence(key)
    seq24 = videosynth.duplicate_frames(key)
    with pytest.raises(ValueError):
        videosynth.interpolate_sequence(seq24, method="nearest")


def test_crossfade_bounded_by_bracketing_frames(atlas):
    seq24 = videosynth.duplicate_frames(videosynth.text_to_keyframes("AB", atlas))
    seq60 = videosynth.interpolate_sequence(seq24, method="crossfade")
    for j in range(120):
        if (24 * j) % 60 == 0:
            continue
        pos = 24 * j / 60.0
        i0 = seq24.frames[int(np.floor(pos))]
        i1 = seq24.frames[min(int(np.floor(pos)) + 1, 47)]
        lo = np.minimum(i0, i1).astype(np.int64)
        hi = np.maximum(i0, i1).astype(np.int64)
        f = seq60.frames[j].astype(np.int64)
        assert np.all(f >= lo) and np.all(f <= hi)


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
    flows = videosynth.FlowField(f_t0=zero, f_t1=zero)
    ctx = videosynth.context_features(black, white)
    out = videosynth.synthesize_frame(black, white, flows, ctx, t=0.5)
    assert np.all(out == 128)


def test_synthesize_occlusion_prefers_nearer_source():
    # contexts disagree everywhere; near t=0 the far (white) endpoint fades
    black = np.zeros((16, 16), dtype=np.uint8)
    white = np.full((16, 16), 255, dtype=np.uint8)
    zero = np.zeros((16, 16, 2))
    flows = videosynth.FlowField(f_t0=zero, f_t1=zero)
    ctx = videosynth.context_features(black, white)
    near0 = videosynth.synthesize_frame(black, white, flows, ctx, t=0.25)
    plain = videosynth.round_half_up_u8(0.75 * black + 0.25 * white)
    assert np.all(near0.astype(int) < plain.astype(int))


def _reference_interpolate(seq, method):
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
        if method == "crossfade":
            out[j] = videosynth.round_half_up_u8((1.0 - t) * i0 + t * i1)
            continue
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
    return videosynth.FrameSequence(frames=frames, fps=24, n_sources=n_sources)


@pytest.mark.parametrize("method", ["flow", "crossfade"])
@pytest.mark.parametrize("text", ["BOOK", "HELLO", " HI  YOU ", "A", None])
def test_interpolate_matches_per_frame_reference(atlas, method, text):
    if text is None:
        seq24 = _random_24fps(2, 24, seed=5)
    else:
        seq24 = videosynth.duplicate_frames(videosynth.text_to_keyframes(text, atlas))
    out = videosynth.interpolate_sequence(seq24, method=method).frames
    assert out.tobytes() == _reference_interpolate(seq24, method).tobytes()


def test_interpolate_work_counts(atlas, monkeypatch):
    calls = {"_block_flow": 0, "synthesize_frame": 0}
    for name in calls:
        original = getattr(videosynth, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(videosynth, name, counted)
    seq24 = videosynth.duplicate_frames(
        videosynth.text_to_keyframes("HELLO DEAR FRIEND", atlas)
    )
    videosynth.interpolate_sequence(seq24, method="flow")
    frames = seq24.frames
    distinct_pairs = sum(
        not np.array_equal(a, b) for a, b in zip(frames[:-1], frames[1:])
    )
    differing_brackets = sum(
        not np.array_equal(frames[24 * j // 60], frames[min(24 * j // 60 + 1, len(frames) - 1)])
        for j in range(60 * seq24.n_sources)
        if (24 * j) % 60
    )
    # 16 letter changes, one of them the doubled L; two outputs fall inside each change
    assert distinct_pairs == 15 and differing_brackets == 30
    assert calls == {"_block_flow": distinct_pairs, "synthesize_frame": differing_brackets}


def test_interpolate_memory_is_output_plus_constant():
    atlas128 = videosynth.GestureAtlas(frames=synth_atlas(size=128), size=128)
    seq24 = videosynth.duplicate_frames(
        videosynth.text_to_keyframes("CONGRATULATIONS DEAR SISTER", atlas128)
    )
    tracemalloc.start()
    try:
        out = videosynth.interpolate_sequence(seq24, method="flow")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.frames.nbytes == 27 * 60 * 128 * 128  # 26.5 MB
    assert peak - out.frames.nbytes <= 16 * 2**20


def test_write_read_roundtrip(tmp_path, atlas):
    seq = videosynth.duplicate_frames(videosynth.text_to_keyframes("AB", atlas))
    manifest_path = videosynth.write_sequence(seq, tmp_path / "seq")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["schema"] == "frames/1"
    assert manifest["fps"] == 24
    assert manifest["frame_count"] == 48
    assert len(manifest["frames"]) == 48
    back = videosynth.read_sequence(tmp_path / "seq")
    assert back.fps == seq.fps and back.n_sources == seq.n_sources
    assert np.array_equal(back.frames, seq.frames)


def test_read_sequence_detects_tampering(tmp_path, atlas):
    seq = videosynth.text_to_keyframes("AB", atlas)
    videosynth.write_sequence(seq, tmp_path / "seq")
    frame = tmp_path / "seq" / "frame_000001.pgm"
    data = bytearray(frame.read_bytes())
    data[-1] ^= 0xFF
    frame.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="checksum"):
        videosynth.read_sequence(tmp_path / "seq")


def test_write_sequence_deterministic(tmp_path, atlas):
    seq = videosynth.text_to_keyframes("XY", atlas)
    videosynth.write_sequence(seq, tmp_path / "a")
    videosynth.write_sequence(seq, tmp_path / "b")
    for name in ("manifest.json", "frame_000000.pgm", "frame_000001.pgm"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_letters_constant():
    assert len(LETTERS) == 26  # atlas covers the full alphabet plus SPACE
