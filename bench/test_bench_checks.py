"""The benchmark's checks accept correct outputs and reject tampered ones."""
import hashlib
import json

import numpy as np
import pytest

from signpipe import datagen, forest, videosynth
from signpipe.io import write_pgm

import checks
from tracing import PER_LAYER_UNITS, Tracer

TEXT = "HELLO AB"


@pytest.fixture()
def clip(tmp_path):
    """A clip of TEXT written the way `synthesize` writes it, plus its atlas."""
    frames = datagen.synth_atlas(size=32)
    atlas_dir = tmp_path / "atlas"
    atlas_dir.mkdir()
    for name, img in frames.items():
        write_pgm(atlas_dir / f"{name}.pgm", img)
    atlas = videosynth.GestureAtlas(frames=frames, size=32)
    seq = videosynth.duplicate_frames(videosynth.text_to_keyframes(TEXT, atlas))
    clip_dir = tmp_path / "frames60"
    videosynth.write_sequence(videosynth.interpolate_sequence(seq), clip_dir)
    return clip_dir, atlas_dir


def _flip_pixel(clip_dir, index, fix_manifest=True):
    manifest_path = clip_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    entry = manifest["frames"][index]
    path = clip_dir / entry["file"]
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    if fix_manifest:
        entry["sha256"] = hashlib.sha256(bytes(data)).hexdigest()
        manifest_path.write_text(json.dumps(manifest))


def test_clip_check_accepts_the_real_clip(clip):
    checks.check_clip(clip[0], TEXT, clip[1])


@pytest.mark.parametrize("index, message", [
    (0, "aligned"),  # frame 0 copies the first 24 FPS frame
    (10, "aligned"),
    (1, "between two identical frames"),  # inside the run of H frames
])
def test_clip_check_rejects_a_flipped_pixel(clip, index, message):
    _flip_pixel(clip[0], index)
    with pytest.raises(checks.CheckError, match=message):
        checks.check_clip(clip[0], TEXT, clip[1])


def test_clip_check_rejects_a_stale_checksum(clip):
    _flip_pixel(clip[0], 7, fix_manifest=False)
    with pytest.raises(checks.CheckError, match="sha256"):
        checks.check_clip(clip[0], TEXT, clip[1])


def test_clip_check_rejects_a_missing_frame(clip):
    manifest_path = clip[0] / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["frames"].pop()
    manifest["frame_count"] -= 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(checks.CheckError, match="frames"):
        checks.check_clip(clip[0], TEXT, clip[1])


def test_clip_check_rejects_another_text(clip):
    with pytest.raises(checks.CheckError):
        checks.check_clip(clip[0], "HELLO AC", clip[1])


def test_translate_report_check():
    report = {"raw_text": "TOY BOOK", "candidates": ["TOY BOOK", "A", "B"], "chosen": "TOY BOOK"}
    checks.check_translate_report(report, "TOY BOOK")
    for key, bad in (("raw_text", "TOY BOK"), ("chosen", "TOY BOOKS")):
        with pytest.raises(checks.CheckError):
            checks.check_translate_report({**report, key: bad}, "TOY BOOK")
    with pytest.raises(checks.CheckError, match="first candidate"):
        checks.check_translate_report({**report, "candidates": ["TOY", "A", "B"]}, "TOY BOOK")


def test_caption_check():
    checks.check_caption("SEE YOU SOON", ("SEE YOU SOON", "X", "Y"), "SEE YOU SOON")
    with pytest.raises(checks.CheckError, match="raw decode"):
        checks.check_caption("SEE YOU SON", ("SEE YOU SOON", "X", "Y"), "SEE YOU SOON")
    with pytest.raises(checks.CheckError, match="first candidate"):
        checks.check_caption("SEE YOU SOON", ("SEE YOU SON", "X", "Y"), "SEE YOU SOON")


def test_model_bytes_check(tmp_path):
    path = tmp_path / "model.blk"
    path.write_bytes(b"SBLK\x01model")
    checks.check_same_bytes(path, b"SBLK\x01model")
    with pytest.raises(checks.CheckError, match="model bytes"):
        checks.check_same_bytes(path, b"SBLK\x01modem")


def test_accuracy_check():
    truth = np.arange(20)
    assert checks.check_accuracy("m", truth, truth, 0.95) == 1.0
    with pytest.raises(checks.CheckError, match="below"):
        checks.check_accuracy("m", np.where(truth == 3, 0, truth), truth, 0.96)


def test_tracer_restores_the_modules_and_names_every_metric():
    spec = datagen.LandmarkDatasetSpec(per_class=10, classes=("A", "B"))
    X, y = datagen.frames_to_arrays(datagen.synth_landmarks(spec), classes=("A", "B"))
    model = forest.train_forest(X, y, forest.ForestHyperparams(n_estimators=3), seed=0)
    original = forest.predict_proba
    tracer = Tracer().install()
    try:
        with tracer.on():
            forest.predict_proba(model, X[:1])
            forest.predict_proba(model, X)
        forest.predict_proba(model, X)  # outside on(): not recorded
    finally:
        tracer.close()
    assert forest.predict_proba is original
    metrics = tracer.metrics(ops=2, chars=0)
    assert set(metrics) == set(PER_LAYER_UNITS)
    assert tracer.stats["forest.predict_batch"].items == len(X)
    assert metrics["forest.predict_row_ms"] > 0
    assert metrics["video.synthesize_ms"] == 0
