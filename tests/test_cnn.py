import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signpipe import cnn, datagen, io
from signpipe.labels import CNN_CLASSES
from signpipe.rng import substream


def small_model(num_classes=3, seed=0, in_side=8):
    """One of every layer type, small enough for exhaustive gradient checks."""
    rng = substream(seed, "init")
    layers = [
        cnn.Conv2D(1, 3, 2, 2, "valid", rng),
        cnn.ReLU(),
        cnn.MaxPool2D(2),
        cnn.Conv2D(3, 4, 3, 3, "same", rng),
        cnn.ReLU(),
        cnn.MaxPool2D(3, ceil_mode=True),
        cnn.Flatten(),
        cnn.Dense(4, 6, rng),  # 8->7 conv, /2 pool -> 3, same conv, /3 ceil pool -> 1x1x4
        cnn.ReLU(),
        cnn.Dropout(0.2),
        cnn.Dense(6, num_classes, rng),
    ]
    return cnn.CnnModel(layers, num_classes, (in_side, in_side, 1))


def test_reference_architecture_shapes():
    model = cnn.build_model(27, seed=0)
    assert cnn.shape_trace(model) == [
        (31, 31, 16),
        (15, 15, 16),
        (13, 13, 32),
        (4, 4, 32),
        (4, 4, 64),
        (1, 1, 64),
        (128,),
        (128,),
        (27,),
    ]


def test_reference_architecture_param_counts():
    model = cnn.build_model(27, seed=0)
    counts = cnn.layer_param_counts(model)
    # independent formulas: conv (kh*kw*cin+1)*cout, dense (fan_in+1)*fan_out
    assert counts == [
        (2 * 2 * 1 + 1) * 16,     # 80
        0,
        (3 * 3 * 16 + 1) * 32,    # 4640
        0,
        (5 * 5 * 32 + 1) * 64,    # 51264
        0,
        (64 + 1) * 128,           # 8320
        0,
        (128 + 1) * 27,
    ]
    assert sum(counts) == 67787


def test_conv_forward_matches_direct_loop(rng):
    layer = cnn.Conv2D(2, 3, 3, 3, "valid", rng)
    x = rng.normal(0, 1, (2, 6, 7, 2))
    out = layer.forward(x, train=False)
    assert out.shape == (2, 4, 5, 3)
    for n in (0, 1):
        for i in (0, 3):
            for j in (0, 4):
                for o in range(3):
                    patch = x[n, i : i + 3, j : j + 3, :]
                    expected = (patch * layer.W[:, :, :, o]).sum() + layer.b[o]
                    assert out[n, i, j, o] == pytest.approx(expected, rel=1e-12)


def test_conv_same_preserves_shape(rng):
    layer = cnn.Conv2D(1, 2, 5, 5, "same", rng)
    x = rng.normal(0, 1, (1, 9, 9, 1))
    assert layer.forward(x, train=False).shape == (1, 9, 9, 2)


def test_pool_floor_vs_ceil():
    x = np.arange(25, dtype=np.float64).reshape(1, 5, 5, 1)
    floor = cnn.MaxPool2D(2).forward(x, train=False)
    assert floor.shape == (1, 2, 2, 1)
    assert floor[0, :, :, 0].tolist() == [[6, 8], [16, 18]]
    ceil = cnn.MaxPool2D(2, ceil_mode=True).forward(x, train=False)
    assert ceil.shape == (1, 3, 3, 1)
    assert ceil[0, :, :, 0].tolist() == [[6, 8, 9], [16, 18, 19], [21, 23, 24]]


def test_softmax_and_cross_entropy_oracles():
    logits = np.zeros((4, 27))
    probs = cnn.softmax(logits)
    assert np.allclose(probs, 1 / 27)
    # uniform over 27 classes: CE = ln 27
    assert cnn.cross_entropy(probs, np.array([0, 5, 11, 26])) == pytest.approx(np.log(27))
    certain = np.zeros((1, 3))
    certain[0, 1] = 1.0
    assert cnn.cross_entropy(certain, np.array([1])) == pytest.approx(0.0)
    assert cnn.cross_entropy(certain, np.array([0])) == pytest.approx(-np.log(1e-12))


def test_softmax_shift_invariance(rng):
    logits = rng.normal(0, 5, (3, 9))
    assert np.allclose(cnn.softmax(logits), cnn.softmax(logits + 1000.0))


def test_gradient_check_small_model(rng):
    model = small_model()
    x = rng.uniform(0, 1, (3, 8, 8, 1))
    y = np.array([0, 1, 2])
    err = cnn.gradient_check(model, x, y)
    assert err < 1e-4


def test_gradient_check_leaves_the_float32_parameters_unchanged(rng):
    # It perturbs and differentiates a float64 copy of the layers, never the model's own.
    model = small_model()
    before = [(w.dtype, w.tobytes()) for w in model.get_weights()]
    assert {dtype for dtype, _ in before} == {np.dtype(np.float32)}
    assert cnn.gradient_check(model, rng.uniform(0, 1, (3, 8, 8, 1)), np.array([0, 1, 2])) < 1e-4
    assert [(w.dtype, w.tobytes()) for w in model.get_weights()] == before


def test_backward_assigns_gradients(rng):
    # A second pass over the same batch leaves that batch's gradients, not twice them.
    # Backward releases what its forward kept, so each pass has its own
    # forward, under the same dropout draws.
    model = small_model()
    x = rng.uniform(0, 1, (3, 8, 8, 1))

    def dlogits():
        model.layers[-2].rng = substream(0, "dropout")
        return cnn._loss_gradient(model.forward(x, train=True), np.array([0, 1, 2]))

    model.backward(dlogits())
    first = [g.copy() for g in model.grads()]
    model.backward(dlogits())
    for want, got in zip(first, model.grads(), strict=True):
        assert np.any(want != 0.0) and got.tobytes() == want.tobytes()


def test_dropout_train_vs_eval(rng):
    layer = cnn.Dropout(0.5)
    x = np.ones((4, 10))
    assert np.array_equal(layer.forward(x, train=False), x)
    with pytest.raises(RuntimeError):
        layer.forward(x, train=True)  # no rng attached outside the trainer
    layer.rng = substream(0, "d")
    out = layer.forward(x, train=True)
    kept = out != 0
    assert set(np.unique(out)) <= {0.0, 2.0}  # inverted scaling by 1/keep
    assert 0 < kept.sum() < out.size


def first_classes(n, per_class, seed):
    """The silhouettes of the first n CNN classes, as a synthesis of only those would draw them."""
    images, labels = datagen.synth_silhouettes(datagen.SilhouetteDatasetSpec(per_class, seed))
    return images[: n * per_class], labels[: n * per_class]


def test_training_reduces_loss_and_overfits():
    images, labels = first_classes(4, per_class=6, seed=3)
    X = cnn.images_to_input(images)
    y = np.array([("A", "B", "C", "D").index(l) for l in labels])
    model = cnn.build_model(4, seed=1)
    cfg = cnn.TrainConfig(max_epochs=8, batch_size=8, seed=1)
    history = cnn.train(model, X, y, X, y, cfg)
    assert history["train_loss"][-1] < history["train_loss"][0]
    assert history["val_acc"][-1] == 1.0  # tiny separable set memorized


def test_train_restores_best_weights():
    images, labels = first_classes(2, per_class=4, seed=5)
    X = cnn.images_to_input(images)
    y = np.array([("A", "B").index(l) for l in labels])
    model = cnn.build_model(2, seed=2)
    history = cnn.train(model, X, y, X, y, cnn.TrainConfig(max_epochs=6, batch_size=4, seed=2))
    final_loss, _ = cnn._batched_eval(model, X, y)
    assert final_loss == pytest.approx(min(history["val_loss"]), abs=1e-12)


def test_training_determinism():
    images, labels = first_classes(2, per_class=3, seed=7)
    X = cnn.images_to_input(images)
    y = np.array([("A", "B").index(l) for l in labels])

    def run():
        model = cnn.build_model(2, seed=4)
        cnn.train(model, X, y, X, y, cnn.TrainConfig(max_epochs=3, batch_size=4, seed=4))
        return model.get_weights()

    wa, wb = run(), run()
    assert all(np.array_equal(a, b) for a, b in zip(wa, wb))


def test_images_to_input_scaling():
    img = np.array([[0, 255], [128, 64]], dtype=np.uint8)
    x = cnn.images_to_input(img)
    assert x.shape == (1, 2, 2, 1)
    assert x.dtype == np.float32
    assert x[0, 0, 1, 0] == 1.0 and x[0, 0, 0, 0] == 0.0
    x4 = cnn.images_to_input(img[None, :, :, None])  # (N, H, W, 1) frames keep their shape
    assert x4.shape == x.shape and x4.tobytes() == x.tobytes()
    # every level is v / 255 rounded once to float32
    levels = np.arange(256, dtype=np.uint8)
    want = (levels / 255.0).astype(np.float32)
    assert cnn.images_to_input(levels[None]).reshape(-1).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 8, 9, 17])
def test_predict_on_8_bit_frames_equals_the_float_path(n):
    model = cnn.build_model(27, seed=3)
    frames = substream(n, "frames").integers(0, 256, (n, 32, 32, 1), dtype=np.uint8)
    x = cnn.images_to_input(frames[..., 0])
    got = cnn.predict_proba(model, frames)
    assert got.tobytes() == cnn.predict_proba(model, x).tobytes()
    assert cnn.predict(model, frames).tobytes() == cnn.predict(model, x).tobytes()


def test_8_bit_frames_of_another_shape_are_rejected():
    model = cnn.build_model(27, seed=3)
    with pytest.raises(ValueError, match="expected input shape"):
        cnn.predict_proba(model, np.zeros((2, 32, 32), dtype=np.uint8))


def test_train_on_8_bit_splits_equals_the_float_path():
    r = substream(11, "frames")
    frames = r.integers(0, 256, (13, 8, 8, 1), dtype=np.uint8)
    val = r.integers(0, 256, (10, 8, 8, 1), dtype=np.uint8)
    y, y_val = r.integers(0, 3, 13), r.integers(0, 3, 10)
    cfg = cnn.TrainConfig(max_epochs=2, batch_size=4, seed=11)
    runs = []
    for X, X_val in ((frames, val), (cnn.images_to_input(frames), cnn.images_to_input(val))):
        model = small_model(seed=11)
        history = cnn.train(model, X, y, X_val, y_val, cfg)
        runs.append((history, [w.tobytes() for w in model.get_weights()]))
    assert runs[0] == runs[1]


def test_predict_peak_on_a_long_8_bit_stream_is_bounded():
    # A 4,096-frame uint8 stream: each 8-frame pass scales its own frames,
    # so the traced peak is one pass's activations plus the output, where a
    # float copy of the stream alone would be 32 MB.
    model = cnn.build_model(27, seed=0)
    frames = substream(9, "stream").integers(0, 256, (4096, 32, 32, 1), dtype=np.uint8)
    peaks, outs = [], []
    for n in (512, 4096):
        tracemalloc.start()
        try:
            outs.append(cnn.predict_proba(model, frames[:n]))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 3.5 * 2**20
    # Beyond the per-pass outputs and their concatenation, nothing grows with the stream.
    assert peaks[1] - peaks[0] <= 2 * (outs[1].nbytes - outs[0].nbytes) + 2**18


def test_save_load_roundtrip(tmp_path, rng):
    model = cnn.build_model(27, seed=6)
    x = rng.uniform(0, 1, (2, 32, 32, 1))
    before = cnn.predict_proba(model, x)
    path = tmp_path / "m.blk"
    cnn.save_cnn(path, model)
    loaded = cnn.load_cnn(path)
    assert loaded.num_classes == 27
    after = cnn.predict_proba(loaded, x)
    assert np.array_equal(before, after)
    cnn.save_cnn(tmp_path / "m2.blk", loaded)
    assert (tmp_path / "m.blk").read_bytes() == (tmp_path / "m2.blk").read_bytes()


def test_a_float64_model_file_loads_as_its_rounded_float32_weights(tmp_path, rng):
    # An older <f8 file is rounded once at load: it predicts what a <f4 file
    # of the rounded weights predicts, and saves as that file.
    shapes = [p.shape for p in cnn.build_model(27, seed=0).params()]
    wide = {f"param_{i:03d}": rng.normal(0, 0.1, shape) for i, shape in enumerate(shapes)}
    meta = {"schema": "cnn/1", "num_classes": 27}
    io.write_blocks(tmp_path / "f8.blk", meta, wide)
    io.write_blocks(tmp_path / "f4.blk", meta, {k: a.astype(np.float32) for k, a in wide.items()})
    assert b'"dtype":"<f8"' in (tmp_path / "f8.blk").read_bytes()
    models = [cnn.load_cnn(tmp_path / name) for name in ("f8.blk", "f4.blk")]
    x = rng.integers(0, 256, (5, 32, 32, 1), dtype=np.uint8)
    got = [(m.get_weights(), cnn.predict_proba(m, x)) for m in models]
    for a, b in zip(got[0][0], got[1][0], strict=True):
        assert a.dtype == b.dtype == np.float32 and a.tobytes() == b.tobytes()
    assert got[0][1].tobytes() == got[1][1].tobytes()
    cnn.save_cnn(tmp_path / "resaved.blk", models[0])
    assert (tmp_path / "resaved.blk").read_bytes() == (tmp_path / "f4.blk").read_bytes()


def test_a_weight_beyond_float32_is_refused_at_load(tmp_path):
    model = cnn.build_model(27, seed=0)
    arrays = {f"param_{i:03d}": p.astype(np.float64) for i, p in enumerate(model.params())}
    arrays["param_002"][0, 0, 0, 0] = 1e39  # finite in float64, infinite in float32
    io.write_blocks(tmp_path / "m.blk", {"schema": "cnn/1", "num_classes": 27}, arrays)
    with pytest.raises(ValueError, match="param_002 .* finite in float32"):
        cnn.load_cnn(tmp_path / "m.blk")


def test_one_training_step_stays_in_float32():
    # Any float64 array in a step (a dropout mask, a pool's dx, a moment)
    # would bring back the float64 cost while every other test passes.
    model = cnn.build_model(27, seed=4)
    model.layers[-2].rng = substream(4, "dropout")
    seen = []
    for i, layer in enumerate(model.layers):
        def forward(x, train, i=i, f=layer.forward):
            out = f(x, train)
            seen.append((i, "forward", out.dtype))
            return out

        def backward(dy, i=i, b=layer.backward):
            dx = b(dy)
            seen.append((i, "backward", None if dx is None else dx.dtype))
            return dx

        layer.forward, layer.backward = forward, backward
    frames = substream(4, "frames").integers(0, 256, (8, 32, 32, 1), dtype=np.uint8)
    probs = model.forward(frames, train=True)
    dlogits = cnn._loss_gradient(probs, np.arange(8))
    model.backward(dlogits)
    adam = cnn.Adam(1e-3)
    adam.step(model.params(), model.grads())
    f32 = np.dtype(np.float32)
    n = len(model.layers)
    assert seen[:n] == [(i, "forward", f32) for i in range(n)]
    # conv 1 returns no input gradient
    assert seen[n:] == [(i, "backward", f32 if i else None) for i in reversed(range(n))]
    assert probs.dtype == dlogits.dtype == f32
    arrays = model.params() + model.grads() + adam.m + adam.v
    assert len(arrays) == 4 * 10 and {a.dtype for a in arrays} == {f32}


def test_predict_batches_equal_one_256_row_forward(rng):
    # PREDICT_BATCH-row passes must give the bytes one 256-row pass gives;
    # bit-equality across batch sizes depends on the BLAS, so it is pinned here
    model = cnn.build_model(27, seed=8)
    x = rng.uniform(0, 1, (256, 32, 32, 1))
    whole = model.forward(x, train=False)
    assert cnn.PREDICT_BATCH < 256
    assert cnn.predict_proba(model, x).tobytes() == whole.tobytes()
    assert np.array_equal(cnn.predict(model, x), np.argmax(whole, axis=1))


def _without_dropout(model):
    return cnn.CnnModel([l for l in model.layers if not isinstance(l, cnn.Dropout)],
                        model.num_classes, model.input_shape)


@pytest.mark.parametrize("make, side", [
    (lambda: small_model(), 8),  # floor pool 2 (8 -> 7 does not divide) and ceil pool 3
    (lambda: cnn.build_model(27, seed=5), 32),  # floor pools 2 and 3, ceil pool 5
], ids=["small", "reference"])
@pytest.mark.parametrize("kind", ["uniform", "binary"])  # binary frames tie in every pool
def test_inference_equals_train_mode_forward_without_dropout(rng, make, side, kind):
    model = make()
    x = rng.uniform(0, 1, (cnn.PREDICT_BATCH, side, side, 1))
    if kind == "binary":
        x = np.round(x)
    want = _without_dropout(model).forward(x, train=True)
    assert cnn.predict_proba(model, x).tobytes() == want.tobytes()


def test_inference_forward_keeps_no_backward_state(rng):
    for model, side in ((small_model(), 8), (cnn.build_model(27, seed=0), 32)):
        cnn.predict_proba(model, rng.uniform(0, 1, (2, side, side, 1)))
        for layer in model.layers:
            for name in ("_patches", "_mask", "_argmax", "_x"):
                assert getattr(layer, name, None) is None, (type(layer).__name__, name)


def test_backward_releases_what_its_forward_kept(rng):
    for model, side in ((small_model(), 8), (cnn.build_model(27, seed=0), 32)):
        model.layers[-2].rng = substream(0, "dropout")
        x = rng.uniform(0, 1, (3, side, side, 1))
        model.backward(cnn._loss_gradient(model.forward(x, train=True), np.array([0, 1, 2])))
        for layer in model.layers:
            for name in ("_patches", "_mask", "_argmax", "_x"):
                assert getattr(layer, name, None) is None, (type(layer).__name__, name)


def test_predict_proba_peak_is_a_few_frames_of_activations(rng):
    # 156 frames, a translate stream's worth: the traced peak is one
    # PREDICT_BATCH pass plus the output, not the whole stream's activations
    # (2.1 MB measured).
    model = cnn.build_model(27, seed=0)
    x = rng.uniform(0, 1, (156, 32, 32, 1))
    tracemalloc.start()
    try:
        cnn.predict_proba(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


def test_backward_skips_only_the_image_gradient(rng, monkeypatch):
    # Each layer's full backward in turn, conv 1's data gradient included,
    # gives the bytes of the model's backward under the same dropout draws.
    x = rng.uniform(0, 1, (3, 8, 8, 1))
    grads = []
    for full in (True, False):
        model = small_model()
        model.layers[-2].rng = substream(0, "dropout")
        dy = cnn._loss_gradient(model.forward(x, train=True), np.array([0, 1, 2]))
        if full:
            for layer in reversed(model.layers):
                dy = layer.backward(dy)
            assert dy.shape == x.shape
        else:
            monkeypatch.setattr(model.layers[0], "data_backward", None)  # never called
            model.backward(dy)
        grads.append([g.tobytes() for g in model.grads()])
    assert grads[0] == grads[1]


def _eval_one_forward_per_256_rows(model, X, y):
    """Reference validation: one forward pass per 256 rows."""
    losses, correct = [], 0
    for lo in range(0, len(X), 256):
        probs = model.forward(X[lo : lo + 256], train=False)
        yb = y[lo : lo + 256]
        losses.append(cnn.cross_entropy(probs, yb) * len(yb))
        correct += int(np.sum(np.argmax(probs, axis=1) == yb))
    return float(np.sum(losses) / len(X)), correct / len(X)


@pytest.mark.parametrize("per_class", [4, 16, 20], ids=["108-frames", "432-frames", "540-frames"])
def test_batched_eval_runs_predict_passes_with_256_row_loss_bits(per_class):
    # val_loss decides early stopping and so the saved weights: its bits must
    # be those of one forward per 256 rows, over 1, 2 and 3 such slices
    images, labels = datagen.synth_silhouettes(datagen.SilhouetteDatasetSpec(per_class=per_class, seed=9))
    X = cnn.images_to_input(images)
    y = np.array([CNN_CLASSES.index(l) for l in labels])
    model = cnn.build_model(len(CNN_CLASSES), seed=9)
    loss, acc = _eval_one_forward_per_256_rows(model, X, y)
    passes = []
    forward = model.forward

    def counted(x, train=False):
        passes.append(len(x))
        return forward(x, train)

    model.forward = counted
    got_loss, got_acc = cnn._batched_eval(model, X, y)
    assert (got_loss.hex(), got_acc) == (loss.hex(), acc)
    assert max(passes) == cnn.PREDICT_BATCH and sum(passes) == len(X)


def test_build_model_validation():
    with pytest.raises(ValueError):
        cnn.build_model(1, seed=0)


@pytest.mark.parametrize("size", [0, 17])
def test_pool_size_validation(size):
    with pytest.raises(ValueError, match="pool size"):
        cnn.MaxPool2D(size)


def test_train_config_validation():
    with pytest.raises(ValueError):
        cnn.TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        cnn.TrainConfig(patience=0)


# Oracles: the conv and pool layers as they were before the data gradient
# was computed at the input's size and the two pool modes shared one
# backward. The layers must match them bit for bit.


def reference_conv(W, b, padding, x, dy):
    """Forward output and (dx, dW, db) of a conv whose data gradient is the
    full correlation, cropped back to the input."""
    kh, kw, in_ch, out_ch = W.shape
    pt, pl = ((kh - 1) // 2, (kw - 1) // 2) if padding == "same" else (0, 0)
    pb, pr = (kh - 1 - pt, kw - 1 - pl) if padding == "same" else (0, 0)
    xp = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0))) if padding == "same" else x
    patches = cnn._im2col(xp, kh, kw)
    n, oh, ow, k = patches.shape
    out = (patches.reshape(-1, k) @ W.reshape(k, out_ch) + b).reshape(n, oh, ow, out_ch)
    dy2 = dy.reshape(-1, out_ch)
    dW = np.zeros_like(W)
    dW += (patches.reshape(-1, k).T @ dy2).reshape(W.shape)
    db = np.zeros_like(b)
    db += dy2.sum(axis=0)
    dy_pad = np.pad(dy, ((0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1), (0, 0)))
    wb = W[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kh * kw * out_ch, in_ch)
    pat = cnn._im2col(dy_pad, kh, kw)
    dx_pad = (pat.reshape(-1, pat.shape[3]) @ wb).reshape(n, oh + kh - 1, ow + kw - 1, in_ch)
    h, w = x.shape[1:3]
    return out, dx_pad[:, pt : pt + h, pl : pl + w, :], dW, db


def reference_pool(x, s, ceil_mode, dy):
    """Forward output and dx of max pooling with separate floor and ceil backwards."""
    n, h, w, c = x.shape
    if ceil_mode:
        hp, wp = -(-h // s) * s, -(-w // s) * s
        xp = np.full((n, hp, wp, c), -np.inf)
        xp[:, :h, :w, :] = x
    else:
        hp, wp = (h // s) * s, (w // s) * s
        xp = x[:, :hp, :wp, :]
    oh, ow = hp // s, wp // s
    windows = xp.reshape(n, oh, s, ow, s, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, oh, ow, s * s, c)
    argmax = windows.argmax(axis=3)
    out = np.take_along_axis(windows, argmax[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    g = np.zeros((n, oh, ow, s * s, c))
    np.put_along_axis(g, argmax[:, :, :, None, :], dy[:, :, :, None, :], axis=3)
    gp = g.reshape(n, oh, ow, s, s, c).transpose(0, 1, 3, 2, 4, 5).reshape(n, hp, wp, c)
    if ceil_mode:
        return out, gp[:, :h, :w, :]
    dx = np.zeros((n, h, w, c))
    dx[:, :hp, :wp, :] = gp
    return out, dx


@pytest.mark.parametrize("kh, kw, padding, h, w", [
    (2, 2, "valid", 9, 8),
    (3, 3, "valid", 7, 9),
    (5, 5, "same", 4, 4),  # conv 3 of the reference architecture
    (3, 3, "same", 6, 5),
    (4, 4, "same", 5, 6),  # even kernel: pads (1, 2)
    (2, 3, "same", 5, 4),  # pads (0, 1) and (1, 1)
])
def test_conv_equals_cropping_reference(rng, kh, kw, padding, h, w):
    # x and dy in the layer's dtype, as the model feeds it
    layer = cnn.Conv2D(3, 4, kh, kw, padding, rng)
    layer.b[...] = rng.normal(0, 1, 4)
    x = rng.normal(0, 1, (2, h, w, 3)).astype(layer.W.dtype)
    out = layer.forward(x, train=True)
    dy = rng.normal(0, 1, out.shape).astype(layer.W.dtype)
    dx = layer.backward(dy)
    expected = reference_conv(layer.W, layer.b, padding, x, dy)
    assert dx.shape == x.shape
    for got, want in zip((out, dx, layer.dW, layer.db), expected):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("c", [1, 3], ids=["slice-copies", "strided-copy"])
@pytest.mark.parametrize("padding", ["valid", "same"])
@pytest.mark.parametrize("kh, kw", [(1, 1), (2, 2), (3, 2)])
def test_im2col_equals_sliding_window_oracle(rng, kh, kw, padding, c):
    layer = cnn.Conv2D(c, 2, kh, kw, padding, rng)
    x = rng.normal(0, 1, (2, 6, 5, c))
    xp = cnn._zero_pad(x, *layer.pads)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    n, oh, ow = windows.shape[:3]
    want = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n, oh, ow, kh * kw * c)
    got = cnn._im2col(xp, kh, kw)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous


@pytest.mark.parametrize("train", [True, False])
def test_conv_and_dense_forward_give_the_bytes_of_matmul_plus_bias(rng, train):
    for c in (1, 3):
        conv = cnn.Conv2D(c, 4, 2, 3, "same", rng)
        conv.b[...] = rng.normal(0, 1, 4)
        x = rng.normal(0, 1, (2, 5, 6, c))
        patches = cnn._im2col(cnn._zero_pad(x, *conv.pads), 2, 3)
        want = (patches.reshape(-1, 6 * c) @ conv.W.reshape(6 * c, 4) + conv.b).reshape(2, 5, 6, 4)
        assert conv.forward(x, train).tobytes() == want.tobytes()
    dense = cnn.Dense(7, 5, rng)
    dense.b[...] = rng.normal(0, 1, 5)
    x = rng.normal(0, 1, (3, 7))
    assert dense.forward(x, train).tobytes() == (x @ dense.W + dense.b).tobytes()


def _tied(rng, kind, shape):
    if kind == "relu":  # about half the entries are exact zeros
        return np.maximum(rng.normal(0, 1, shape), 0.0)
    if kind == "levels":  # three values, so most windows hold several maxima
        return rng.integers(0, 3, shape).astype(np.float64)
    return np.full(shape, 0.5)  # every window constant


@pytest.mark.parametrize("kind", ["relu", "levels", "constant"])
@pytest.mark.parametrize("s, ceil_mode, h, w", [
    (2, False, 7, 9),
    (2, True, 7, 9),
    (3, False, 13, 11),
    (3, True, 13, 11),
    (5, True, 4, 4),  # pool 3 of the reference architecture: one partial window
    (3, True, 9, 6),  # ceil on sizes the window divides
])
def test_pool_equals_reference_with_ties(rng, kind, s, ceil_mode, h, w):
    layer = cnn.MaxPool2D(s, ceil_mode=ceil_mode)
    x = _tied(rng, kind, (2, h, w, 3))
    out = layer.forward(x, train=True)
    dy = rng.normal(0, 1, out.shape)
    dx = layer.backward(dy)
    want_out, want_dx = reference_pool(x, s, ceil_mode, dy)
    assert out.tobytes() == want_out.tobytes()
    assert dx.shape == x.shape and dx.tobytes() == want_dx.tobytes()


# Both modes run one pass; train mode also records each window's first
# maximum. Edge shapes where that pass slices views of differing lengths:
TRAIN_VS_INFERENCE_POOLS = [
    (2, False, 7, 9),
    (3, True, 13, 11),
    (5, True, 4, 4),
    (4, True, 3, 6),  # window larger than the input's height
    (1, False, 5, 4),  # every window one pixel
    (6, True, 4, 5),  # window larger than both sides: one partial window
    (4, False, 3, 6),  # floor mode with no full window: no output rows
    (4, False, 6, 3),  # and no output columns
]


@pytest.mark.parametrize("kind", ["relu", "levels", "constant"])
@pytest.mark.parametrize("s, ceil_mode, h, w", TRAIN_VS_INFERENCE_POOLS)
def test_pool_train_and_inference_outputs_are_bit_equal(rng, kind, s, ceil_mode, h, w):
    x = _tied(rng, kind, (2, h, w, 3)) - 0.25  # negative maxima too
    layer = cnn.MaxPool2D(s, ceil_mode=ceil_mode)
    out = layer.forward(x, train=False)
    assert out.shape == (2, *(-(-n // s) if ceil_mode else n // s for n in (h, w)), 3)
    assert layer.forward(x, train=True).tobytes() == out.tobytes()


@pytest.mark.parametrize("s, ceil_mode, h, w", TRAIN_VS_INFERENCE_POOLS)
def test_pool_orders_differ_at_most_in_the_sign_of_a_zero(rng, s, ceil_mode, h, w):
    # Both modes take the same maxima in the same order, so a zero maximum
    # keeps the sign of the window's first zero in both: they do not differ.
    x = rng.choice([-0.0, 0.0, -1.0], size=(4, h, w, 3))
    layer = cnn.MaxPool2D(s, ceil_mode=ceil_mode)
    assert layer.forward(x, train=True).tobytes() == layer.forward(x, train=False).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    s=st.integers(1, 6),
    ceil_mode=st.booleans(),
    h=st.integers(1, 12),  # windows larger than the map, and floor modes with no output rows
    w=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_pool_edge_shapes_equal_reference(s, ceil_mode, h, w, seed):
    r = substream(seed, "pool")
    x = r.choice([-1.0, -0.0, 0.0, 1.0], size=(2, h, w, 2))  # ties and signed zeros everywhere
    layer = cnn.MaxPool2D(s, ceil_mode=ceil_mode)
    out = layer.forward(x, train=True)
    dy = r.normal(0, 1, out.shape)
    want_out, want_dx = reference_pool(x, s, ceil_mode, dy)
    assert out.shape == want_out.shape and out.tobytes() == want_out.tobytes()
    dx = layer.backward(dy)
    assert dx.shape == x.shape and dx.tobytes() == want_dx.tobytes()
    assert layer.forward(x, train=False).tobytes() == out.tobytes()


# Oracles for the training step: the architecture's earlier conv -> ReLU ->
# pool order and Adam's earlier expression, evaluated with temporaries.


def relu_before_pool(model):
    """The same layer objects (so the same weights) in conv -> ReLU -> pool order."""
    layers = list(model.layers)
    for i, layer in enumerate(layers[:-1]):
        if isinstance(layer, cnn.MaxPool2D) and isinstance(layers[i + 1], cnn.ReLU):
            layers[i], layers[i + 1] = layers[i + 1], layer
    assert layers != model.layers
    return cnn.CnnModel(layers, model.num_classes, model.input_shape)


class ReferenceAdam:
    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self.m, self.v = [], []

    def step(self, params, grads):
        if not self.m:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        for p, g, m, v in zip(params, grads, self.m, self.v, strict=True):
            m[...] = cnn.ADAM_BETA1 * m + (1.0 - cnn.ADAM_BETA1) * g
            v[...] = cnn.ADAM_BETA2 * v + (1.0 - cnn.ADAM_BETA2) * g**2
            mhat = m / (1.0 - cnn.ADAM_BETA1**self.t)
            vhat = v / (1.0 - cnn.ADAM_BETA2**self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + cnn.ADAM_EPS)


def glyph_batches(count, size, seed):
    """Silhouette batches: constant black and white regions tie in every pool."""
    images, labels = datagen.synth_silhouettes(datagen.SilhouetteDatasetSpec(per_class=2, seed=seed))
    order = substream(seed, "batches").permutation(len(images))[: count * size]
    X = cnn.images_to_input(images[order])
    y = np.array([CNN_CLASSES.index(labels[i]) for i in order])
    return [(X[lo : lo + size], y[lo : lo + size]) for lo in range(0, len(X), size)]


def test_pool_before_relu_gives_the_same_probabilities(rng):
    x = np.round(rng.uniform(0, 1, (cnn.PREDICT_BATCH, 32, 32, 1)))
    probs = []
    for reorder in (False, True):
        model = cnn.build_model(27, seed=11)
        if reorder:
            model = relu_before_pool(model)
        model.layers[-2].rng = substream(0, "dropout")
        probs.append((model.forward(x, train=False).tobytes(), model.forward(x, train=True).tobytes()))
    assert probs[0] == probs[1]


def test_pool_before_relu_trains_to_the_same_weights():
    batches = glyph_batches(5, 8, seed=4)
    weights = []
    for reorder in (False, True):
        model = cnn.build_model(len(CNN_CLASSES), seed=12)
        for layer in model.layers:
            if isinstance(layer, cnn.Conv2D):
                layer.b[...] = 0.05  # black regions pool to positive ties as well
        if reorder:
            model = relu_before_pool(model)
        else:
            # pool 1 sees windows whose positive maximum occurs more than once
            windows = model.layers[0].forward(batches[0][0], train=False)[:, :30, :30]
            windows = windows.reshape(8, 15, 2, 15, 2, 16)
            top = windows.max(axis=(2, 4), keepdims=True)
            assert np.any(((windows == top).sum(axis=(2, 4)) > 1) & (top[:, :, 0, :, 0] > 0))
        model.layers[-2].rng = substream(0, "dropout")
        optimizer = (ReferenceAdam if reorder else cnn.Adam)(1e-3)
        for xb, yb in batches:
            model.backward(cnn._loss_gradient(model.forward(xb, train=True), yb))
            optimizer.step(model.params(), model.grads())
        weights.append([w.tobytes() for w in model.get_weights()])
    assert weights[0] == weights[1]


def test_adam_equals_reference_expression(rng):
    shapes = [(3, 3, 2, 4), (4,), (7, 5)]
    params = [rng.normal(0, 1, s) for s in shapes]
    ref_params = [p.copy() for p in params]
    adam, ref = cnn.Adam(1e-3), ReferenceAdam(1e-3)
    for step in range(10):
        grads = [rng.normal(0, 1, s) for s in shapes]
        grads[1][step % 4] = 0.0  # exact zeros, as a dead ReLU gives
        adam.step(params, grads)
        ref.step(ref_params, grads)
        for got, want in zip(params + adam.m + adam.v, ref_params + ref.m + ref.v, strict=True):
            assert got.tobytes() == want.tobytes()


def test_train_with_a_short_last_batch_equals_the_reference_step(monkeypatch):
    images, labels = first_classes(3, per_class=5, seed=6)  # 15 = 4 + 4 + 4 + 3
    X = cnn.images_to_input(images)
    y = np.array([("A", "B", "C").index(l) for l in labels])
    cfg = cnn.TrainConfig(max_epochs=3, batch_size=4, patience=3, seed=5)
    runs = []
    for reference in (False, True):
        model = cnn.build_model(3, seed=5)
        if reference:
            model = relu_before_pool(model)
            monkeypatch.setattr(cnn, "Adam", ReferenceAdam)
        history = cnn.train(model, X, y, X[:6], y[:6], cfg)
        runs.append((history, [w.tobytes() for w in model.get_weights()]))
    assert runs[0] == runs[1]


def test_model_backward_runs_each_layer_backward_once(rng):
    # Every layer's own backward runs, so a per-instance wrapper times conv 1
    # too; conv 1 stops at its weight gradients.
    model = small_model()
    model.layers[-2].rng = substream(0, "dropout")
    calls = []
    for i, layer in enumerate(model.layers):
        def counted(dy, i=i, backward=layer.backward):
            calls.append(i)
            return backward(dy)
        layer.backward = counted
    x = rng.uniform(0, 1, (3, 8, 8, 1))
    model.backward(cnn._loss_gradient(model.forward(x, train=True), np.array([0, 1, 2])))
    assert calls == list(reversed(range(len(model.layers))))
    model.layers[-2].rng = substream(0, "dropout")
    model.forward(x, train=True)  # conv 1's backward reads its own forward's patches
    assert model.layers[0].backward(np.zeros((3, 7, 7, 3))) is None
