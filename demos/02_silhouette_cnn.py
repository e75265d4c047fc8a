"""Train the small CNN on synthetic hand silhouettes.

Prints the layer-by-layer architecture first so the tensor shapes are
visible before any learning happens, then shows Otsu's threshold on a raw
grayscale frame, then runs a short training. Pipeline frames are already
binary (0 or 255) and 32x32, the network input, so the threshold is only
shown here: no command thresholds or resizes a frame.
"""
import numpy as np

from signpipe import cnn, datagen, imageops
from signpipe.labels import CNN_CLASSES
from signpipe.rng import substream

SEED = 5

# ---- 1. the architecture, layer by layer ----------------------------------
model = cnn.build_model(len(CNN_CLASSES), seed=SEED)
shapes = cnn.shape_trace(model)
counts = cnn.layer_param_counts(model)
rows = [l for l in model.layers if not isinstance(l, (cnn.ReLU, cnn.Flatten))]
print("architecture (output shape, params):")
for layer, shape, count in zip(rows, shapes, counts):
    print(f"  {type(layer).__name__:<10s} {str(shape):<14s} {count}")
print(f"total parameters: {sum(counts)}")

# ---- 2. Otsu's threshold on one raw grayscale frame ------------------------
# bright blob on a dark noisy background, the shape a backlit hand produces
rng = substream(SEED, "raw-frame")
gray = rng.integers(0, 90, size=(48, 48)).astype(np.uint8)
yy, xx = np.mgrid[:48, :48]
gray[(yy - 24) ** 2 + (xx - 24) ** 2 < 14**2] = 210
t = imageops.otsu_threshold(gray)
print(f"otsu threshold {t} keeps foreground fraction {(gray > t).mean():.2f}")

# ---- 3. synthesize silhouettes and train ----------------------------------
images, labels = datagen.synth_silhouettes(
    datagen.SilhouetteDatasetSpec(per_class=30, seed=SEED)
)
X = cnn.images_to_input(images)
y = np.array([CNN_CLASSES.index(l) for l in labels], dtype=np.int64)
print(f"dataset: {X.shape[0]} silhouettes -> input tensor {X.shape[1:]}")

perm = substream(SEED, "demo-split").permutation(len(X))
cut = int(0.8 * len(X))
tr, te = perm[:cut], perm[cut:]

history = cnn.train(
    model, X[tr], y[tr], X[te], y[te],
    cnn.TrainConfig(max_epochs=5, seed=SEED),
)
for i in range(len(history["train_loss"])):
    print(f"  epoch {i + 1}: train loss {history['train_loss'][i]:.3f} "
          f"val loss {history['val_loss'][i]:.3f} "
          f"val acc {history['val_acc'][i]:.3f}")

acc = float(np.mean(cnn.predict(model, X[te]) == y[te]))
print(f"validation accuracy with restored best weights: {acc:.4f}")
