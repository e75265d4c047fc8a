"""Train the landmark random forest on synthetic hand poses.

Generates clustered 126-feature landmark vectors for all 28 stream classes,
fits a small forest, and prints per-class metrics plus a reduced grid search
so the run stays under half a minute.
"""
import numpy as np

from signpipe import datagen, forest
from signpipe.labels import RFC_CLASSES
from signpipe.metrics import confusion_and_metrics
from signpipe.rng import substream

OUT_TREES = 50
SEED = 11

# ---- 1. synthesize a labeled landmark dataset ----------------------------
spec = datagen.LandmarkDatasetSpec(per_class=40, seed=SEED)
frames = datagen.synth_landmarks(spec)
X, y = datagen.frames_to_arrays(frames)
print(f"dataset: {X.shape[0]} samples x {X.shape[1]} features, "
      f"{len(RFC_CLASSES)} classes")

perm = substream(SEED, "demo-split").permutation(len(X))
cut = int(0.8 * len(X))
tr, te = perm[:cut], perm[cut:]

# ---- 2. train and score ---------------------------------------------------
hp = forest.ForestHyperparams(n_estimators=OUT_TREES, max_depth=15)
model = forest.train_forest(X[tr], y[tr], hp, seed=SEED)
pred = forest.predict_class(model, X[te])
report = confusion_and_metrics(pred, y[te], RFC_CLASSES)
print(f"test accuracy {report['accuracy']:.4f} with {OUT_TREES} trees")

worst = np.argsort(report["recall"])[:3]
for i in worst:
    print(f"  weakest class {RFC_CLASSES[i]}: "
          f"precision {report['precision'][i]:.3f} recall {report['recall'][i]:.3f}")

# ---- 3. probability output feeds the ensemble downstream ------------------
proba = forest.predict_proba(model, X[te][:3])
for row, true_idx in zip(proba, y[te][:3]):
    top = np.argsort(row)[::-1][:3]
    ranked = ", ".join(f"{RFC_CLASSES[i]}={row[i]:.2f}" for i in top)
    print(f"  true {RFC_CLASSES[true_idx]:>6s} -> {ranked}")

# ---- 4. tiny grid search (full 216-point grid lives in the tune command) --
space = {
    "n_estimators": (20, 50),
    "max_depth": (10, None),
    "min_samples_split": (5,),
    "min_samples_leaf": (2,),
    "bootstrap": (True,),
}
best, rows = forest.grid_search(X[tr], y[tr], search_space=space, k=3, seed=SEED)
for r in rows:
    print(f"  trees={r['n_estimators']:3d} depth={r['max_depth']} "
          f"cv acc {r['mean_accuracy']:.4f}")
print(f"best: trees={best.n_estimators} depth={best.max_depth}")
