"""The whole translation path in one sitting, library calls only.

A synthetic signing stream for "TOY BOK" (a typo is signed on purpose) flows
through both classifier heads, the shared-space ensemble, the k-stability
decoder, the lexicon corrector, and finally video synthesis of the corrected
text. The raw decode typically carries an extra stray letter too, picked up
when the forest hallucinates on the noise frames between characters; the
corrector repairs the stray letter and the signed typo in one pass. The same
route is available as the `signpipe translate` command.
"""
import shutil
import tempfile
from pathlib import Path

import numpy as np

from signpipe import cnn, datagen, ensemble, forest, textcorrect, videosynth
from signpipe.labels import CNN_CLASSES, SHARED_CLASSES
from signpipe.rng import substream

SEED = 0
SIGNED = "TOY BOK"  # the signer fingerspells a typo; the corrector must fix it

# ---- 1. train the two heads on synthetic data ------------------------------
X_lm, y_lm = datagen.frames_to_arrays(
    datagen.synth_landmarks(datagen.LandmarkDatasetSpec(per_class=30, seed=SEED))
)
rfc = forest.train_forest(
    X_lm, y_lm, forest.ForestHyperparams(n_estimators=40, max_depth=15), seed=SEED
)
print(f"forest head: {len(rfc.trees)} trees on {len(X_lm)} landmark samples")

images, labels = datagen.synth_silhouettes(
    datagen.SilhouetteDatasetSpec(per_class=20, seed=SEED)
)
X_sil = cnn.images_to_input(images)
y_sil = np.array([CNN_CLASSES.index(l) for l in labels], dtype=np.int64)
perm = substream(SEED, "demo-split").permutation(len(X_sil))
cut = int(0.8 * len(X_sil))
net = cnn.build_model(len(CNN_CLASSES), seed=SEED)
cnn.train(net, X_sil[perm[:cut]], y_sil[perm[:cut]],
          X_sil[perm[cut:]], y_sil[perm[cut:]],
          cnn.TrainConfig(max_epochs=8, seed=SEED))
val_acc = float(np.mean(cnn.predict(net, X_sil[perm[cut:]]) == y_sil[perm[cut:]]))
print(f"cnn head: val accuracy {val_acc:.3f} after a short run")

# ---- 2. a signing stream arrives, frame by frame ----------------------------
lm_stream, img_stream = datagen.synth_stream(
    datagen.StreamSpec(text=SIGNED, dataset_seed=SEED, stream_seed=SEED + 1)
)
print(f"stream: {len(lm_stream)} frames for {SIGNED!r}")

# ---- 3. classify, fuse, decode ----------------------------------------------
p_rfc = forest.predict_proba(rfc, lm_stream)
p_cnn = cnn.predict_proba(net, cnn.images_to_input(img_stream))
weights = ensemble.EnsembleWeights(w_rfc=0.5, w_cnn=0.5)
combined = ensemble.combine(
    ensemble.project_rfc(p_rfc), ensemble.project_cnn(p_cnn), weights
)
frame_labels = [SHARED_CLASSES[i] for i in np.argmax(combined, axis=1)]
raw = ensemble.decode_stream(frame_labels, ensemble.StreamDecodeConfig(k=3))
print(f"decoded raw text: {raw!r}")

# ---- 4. correct and pick the top candidate ----------------------------------
lexicon = textcorrect.Lexicon.from_phrases(list(datagen.PHRASES))
result = textcorrect.correct_offline(raw, lexicon)
chosen = result.candidates[0]
print(f"candidates: {list(result.candidates)} -> chosen {chosen!r}")

# ---- 5. synthesize the target-language clip ----------------------------------
atlas = videosynth.GestureAtlas(frames=datagen.synth_atlas(size=64), size=64)
key = videosynth.text_to_keyframes(chosen, atlas)
seq60 = videosynth.interpolate_sequence(videosynth.duplicate_frames(key))
out = Path(tempfile.mkdtemp(prefix="signpipe-demo-")) / "clip"
videosynth.write_sequence(seq60, out)
print(f"synthesized {len(seq60.frames)} frames at {seq60.fps} FPS "
      f"for {chosen!r} -> {out}")
shutil.rmtree(out.parent)
