"""Acceptance gate: the eleven release criteria, one printed verdict each.

Run as part of the normal suite; each test prints a single
"criterion NN PASS/FAIL" line directly to the terminal (bypassing capture)
so the gate's state is visible in any pytest invocation. Later criteria
reuse models trained by earlier ones via the ARTIFACTS dict, so this file
assumes pytest's default in-file execution order.
"""
import json
import time

import numpy as np
import pytest

from signpipe import cli, cnn, datagen, ensemble, forest, imageops, textcorrect, videosynth
from signpipe.labels import CNN_CLASSES, RFC_CLASSES
from signpipe.rng import substream

from test_cnn import small_model
from test_imageops import reference_otsu

ARTIFACTS: dict = {}


def _verdict(capsys, num: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_cnn_structure(capsys):
    start = time.perf_counter()
    model = cnn.build_model(27, seed=0)
    shapes = cnn.shape_trace(model)
    counts = cnn.layer_param_counts(model)
    expected_shapes = [(31, 31, 16), (15, 15, 16), (13, 13, 32),
                       (4, 4, 32), (4, 4, 64), (1, 1, 64), (128,)]
    conv_dense = [c for c in counts if c > 0]
    elapsed = time.perf_counter() - start
    ok = (
        shapes[: len(expected_shapes)] == expected_shapes
        and conv_dense[:4] == [80, 4640, 51264, 8320]
        and elapsed < 1.0
    )
    _verdict(capsys, 1, "CNN shapes and parameter counts match the reference architecture",
             ok, f"{elapsed:.2f}s")


def test_criterion_02_gradient_check(capsys):
    start = time.perf_counter()
    model = small_model()
    rng = substream(1, "gradcheck")
    x = rng.uniform(0, 1, (3, 8, 8, 1))
    y = np.array([0, 1, 2])
    err = cnn.gradient_check(model, x, y)
    elapsed = time.perf_counter() - start
    ok = err < 1e-4 and elapsed < 30.0
    _verdict(capsys, 2, "backprop matches finite differences on every layer type",
             ok, f"max rel err {err:.2e}, {elapsed:.1f}s")


def test_criterion_03_otsu_oracle(capsys):
    start = time.perf_counter()
    rng = substream(2, "otsu")
    mismatches = 0
    for _ in range(100):
        side = int(rng.integers(4, 24))
        img = rng.integers(0, 256, size=(side, side)).astype(np.uint8)
        if imageops.otsu_threshold(img) != reference_otsu(img):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    _verdict(capsys, 3, "otsu_threshold equals exhaustive argmax on 100 random images",
             ok, f"{mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_04_rfc_accuracy(capsys):
    X, y = datagen.frames_to_arrays(
        datagen.synth_landmarks(datagen.LandmarkDatasetSpec(per_class=100, seed=0))
    )
    perm = substream(0, "rfc-split").permutation(len(X))
    cut = int(0.8 * len(X))
    tr, te = perm[:cut], perm[cut:]
    start = time.perf_counter()
    model = forest.train_forest(X[tr], y[tr], forest.ForestHyperparams(), seed=0)
    train_time = time.perf_counter() - start
    acc = float(np.mean(forest.predict_class(model, X[te]) == y[te]))
    ARTIFACTS["rfc"] = (model, X, y, te)
    ok = acc >= 0.95 and train_time < 60.0
    _verdict(capsys, 4, "random forest reaches 0.95 on the 28-class landmark benchmark",
             ok, f"accuracy {acc:.4f}, train {train_time:.1f}s")


def test_criterion_05_cnn_accuracy(capsys):
    images, labels = datagen.synth_silhouettes(
        datagen.SilhouetteDatasetSpec(per_class=100, seed=0)
    )
    X = cnn.images_to_input(images)
    y = np.array([CNN_CLASSES.index(l) for l in labels], dtype=np.int64)
    perm = substream(0, "cnn-split").permutation(len(X))
    cut = int(0.8 * len(X))
    tr, te = perm[:cut], perm[cut:]
    start = time.perf_counter()
    model = cnn.build_model(len(CNN_CLASSES), seed=0)
    cnn.train(model, X[tr], y[tr], X[te], y[te], cnn.TrainConfig(max_epochs=15, seed=0))
    train_time = time.perf_counter() - start
    acc = float(np.mean(cnn.predict(model, X[te]) == y[te]))
    ARTIFACTS["cnn"] = (model, images, y, te)
    ok = acc >= 0.80 and train_time < 600.0
    _verdict(capsys, 5, "CNN reaches 0.80 validation accuracy within 15 epochs",
             ok, f"accuracy {acc:.4f}, train {train_time:.0f}s")


def test_criterion_06_ensemble_dominance(capsys):
    if "rfc" not in ARTIFACTS or "cnn" not in ARTIFACTS:
        pytest.fail("criteria 4 and 5 must run first")
    rfc_model, X_lm, y_lm, te_lm = ARTIFACTS["rfc"]
    cnn_model, images, y_sil, te_sil = ARTIFACTS["cnn"]
    p_rfc, p_cnn, y_shared = cli._ensemble_pairs(
        rfc_model, cnn_model, X_lm, y_lm, te_lm, images, y_sil, te_sil, seed=0
    )
    weights, accs = ensemble.optimize_weights(p_rfc, p_cnn, y_shared)
    combined = ensemble.combine(
        ensemble.project_rfc(p_rfc), ensemble.project_cnn(p_cnn), weights
    )
    acc = float(np.mean(np.argmax(combined, axis=1) == y_shared))
    cnn_only, rfc_only = accs[0], accs[-1]
    ok = acc >= max(rfc_only, cnn_only)
    _verdict(capsys, 6, "optimized ensemble never loses to either endpoint",
             ok, f"ensemble {acc:.4f} vs rfc {rfc_only:.4f} / cnn {cnn_only:.4f}")


def test_criterion_07_corruption_mix(capsys):
    start = time.perf_counter()
    mix = datagen.ErrorMix()
    rng = substream(0, "corruption")
    multi = [p for p in datagen.PHRASES if " " in p]
    counts = dict.fromkeys(datagen.ERROR_KINDS, 0)
    n = 10_000
    for i in range(n):
        _, kind = datagen.corrupt_text(multi[i % len(multi)], mix, rng)
        counts[kind] += 1
    elapsed = time.perf_counter() - start
    targets = dict(zip(datagen.ERROR_KINDS, (0.35, 0.25, 0.20, 0.20)))
    deviations = {k: abs(counts[k] / n - t) for k, t in targets.items()}
    ok = max(deviations.values()) <= 0.02 and elapsed < 5.0
    freq = ", ".join(f"{k} {counts[k] / n:.3f}" for k in datagen.ERROR_KINDS)
    _verdict(capsys, 7, "10,000 corruptions match the documented error mix",
             ok, f"{freq}, {elapsed:.1f}s")


def test_criterion_08_offline_corrector(capsys):
    lexicon = textcorrect.Lexicon.from_phrases(list(datagen.PHRASES))
    ok_lexicon = len(lexicon.words) >= 200
    rng = substream(0, "corrector-eval")
    mix = datagen.ErrorMix()
    cleans = datagen.sample_phrases(500, rng)
    pairs = [(datagen.corrupt_text(c, mix, rng)[0], c) for c in cleans]
    metrics = textcorrect.evaluate_corrector(
        lambda t: textcorrect.correct_offline(t, lexicon), pairs
    )
    toy = textcorrect.correct_offline("TOY BOK", lexicon)
    thank = textcorrect.correct_offline("you thank", lexicon)
    ok = (
        ok_lexicon
        and metrics["top3_accuracy"] >= 0.90
        and "TOY BOOK" in toy.candidates
        and "THANK YOU" in thank.candidates
    )
    _verdict(capsys, 8, "offline corrector top-3 on 500 corrupted phrases",
             ok, f"top3 {metrics['top3_accuracy']:.3f}, top1 {metrics['top1_accuracy']:.3f}, "
                 f"lexicon {len(lexicon.words)} words")


def test_criterion_09_frame_count_contracts(capsys):
    start = time.perf_counter()
    atlas = videosynth.GestureAtlas(frames=datagen.synth_atlas(size=128), size=128)
    problems = []

    two = videosynth.duplicate_frames(videosynth.text_to_keyframes("AB", atlas))
    if not np.array_equal(two.frames[30], atlas.frames["B"]):
        problems.append("F_30 != source 1 for n=2")

    text = "ABCDEFGHIJ"  # n = 10
    key = videosynth.text_to_keyframes(text, atlas)
    seq24 = videosynth.duplicate_frames(key)
    seq60 = videosynth.interpolate_sequence(seq24)
    if len(key.frames) != 10 or len(seq24.frames) != 240 or len(seq60.frames) != 600:
        problems.append(f"counts {len(key.frames)}/{len(seq24.frames)}/{len(seq60.frames)}")
    for i in range(240):
        if not np.array_equal(seq24.frames[i], key.frames[i // 24]):
            problems.append(f"24 FPS frame {i} not a source copy")
            break
    for j in range(0, 600, 5):
        if not np.array_equal(seq60.frames[j], seq24.frames[24 * j // 60]):
            problems.append(f"aligned 60 FPS frame {j} not bit-exact")
            break
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 10.0
    _verdict(capsys, 9, "n -> 24n -> 60n frame contracts with bit-exact aligned frames",
             ok, "; ".join(problems) or f"{elapsed:.1f}s")


def test_criterion_10_flow_sanity(capsys):
    start = time.perf_counter()
    rng = substream(3, "flow")
    base = (rng.random((64, 64)) > 0.5).astype(np.uint8) * 255
    shifted = np.zeros_like(base)
    shifted[:, 2:] = base[:, :-2]
    flow = videosynth._block_flow(base, shifted)
    b = videosynth.BLOCK_SIZE
    interior = flow[b:-b, b:-b]
    hit_rate = float(((interior[..., 0] == 2) & (interior[..., 1] == 0)).mean())

    img = rng.integers(0, 256, size=(48, 48)).astype(np.uint8)
    zero_flow = videosynth._block_flow(img, img)
    flows = videosynth.estimate_flow(img, img, t=0.5)
    ctx = videosynth.context_features(img, img)
    identity = videosynth.synthesize_frame(img, img, flows, ctx, t=0.5)
    elapsed = time.perf_counter() - start
    ok = (
        hit_rate >= 0.90
        and not zero_flow.any()
        and np.array_equal(identity, img)
        and elapsed < 10.0
    )
    _verdict(capsys, 10, "block flow recovers a 2 px shift; identical frames are fixed points",
             ok, f"interior hit rate {hit_rate:.2f}, {elapsed:.1f}s")


def test_criterion_11_end_to_end_determinism(capsys, tmp_path):
    small = [
        "--set", "datagen.landmark_per_class=12",
        "--set", "datagen.silhouette_per_class=8",
        "--set", "datagen.atlas_size=32",
        "--set", "rfc.n_estimators=30",
        "--set", "cnn.max_epochs=2",
    ]

    def run(root):
        data = root / "data"
        assert cli.main(["datagen", "--out", str(data),
                         "--stream-text", "HI", *small]) == 0
        assert cli.main(["train-rfc", "--data", str(data / "landmarks.csv"),
                         "--model", str(root / "rfc.blk"),
                         "--report", str(root / "rfc.json"), *small]) == 0
        assert cli.main(["train-cnn", "--data", str(data / "silhouettes"),
                         "--model", str(root / "cnn.blk"),
                         "--report", str(root / "cnn.json"), *small]) == 0
        assert cli.main(["translate",
                         "--rfc", str(root / "rfc.blk"), "--cnn", str(root / "cnn.blk"),
                         "--landmarks", str(data / "stream_landmarks.csv"),
                         "--frames", str(data / "stream_frames"),
                         "--out", str(root / "xlat"), *small]) == 0

    run(tmp_path / "run1")
    run(tmp_path / "run2")
    files1 = sorted(p.relative_to(tmp_path / "run1")
                    for p in (tmp_path / "run1").rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(tmp_path / "run2")
                    for p in (tmp_path / "run2").rglob("*") if p.is_file())
    diffs = []
    if files1 != files2:
        diffs.append("file trees differ")
    else:
        for rel in files1:
            if (tmp_path / "run1" / rel).read_bytes() != (tmp_path / "run2" / rel).read_bytes():
                diffs.append(str(rel))
    manifest = json.loads(
        (tmp_path / "run1" / "xlat" / "frames60" / "manifest.json").read_text()
    )
    if not all("sha256" in f for f in manifest["frames"]):
        diffs.append("manifest missing checksums")
    ok = not diffs
    _verdict(capsys, 11, "two full pipeline runs are byte-identical",
             ok, "; ".join(diffs[:3]) or f"{len(files1)} files compared")
