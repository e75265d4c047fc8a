"""Print the stream character error rate (CER) of the whole pipeline over seeds.

For each seed, trains both heads through `cli.main` on the benchmark's
corpus (bench/workloads.py `train_heads`: 20 landmark rows and 20 glyphs
per class, the CNN at batch 8 for 8 epochs) and signs the benchmark's
`CYCLE` phrases plus the out-of-lexicon phrases of
tests/test_stream_cer.py, each as a `synth_stream` stream. Each head
predicts each stream once, in batch as `translate` does; then, per
ensemble weight w_rfc, the path is `recognize` -> `decode_stream(k=3)` ->
`correct_offline`'s first candidate. One row per weight gives:

- the seeds on which at least one phrase's raw decode is not exact
- the pooled raw and corrected CER: edit distance over signed characters
- the `CYCLE` streams whose corrected text is exact (the lexicon lacks
  WORLD, KITTEN, ZEBRA and CROSSING, so the others cannot be)

Runs in this process against one checkout's `src/` and `bench/`, with one
BLAS thread. To compare a change with its parent:

    python tools/cer_sweep.py --repo PARENT_CHECKOUT > parent.txt
    python tools/cer_sweep.py > change.txt
    diff parent.txt change.txt

The default 40 seeds take a few minutes.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

OUT_OF_LEXICON = ("HELLO WORLD", "GOOD MORNING KITTEN", "ZEBRA CROSSING")
WEIGHTS = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ and bench/ are run (default: this one)")
    parser.add_argument("--first-seed", type=int, default=2240)
    parser.add_argument("--seeds", type=int, default=40, help="number of consecutive seeds")
    args = parser.parse_args(argv)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"  # before numpy's first import
    root = Path(args.repo).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import workloads
    from signpipe import cnn, datagen, ensemble, forest, textcorrect
    from signpipe.labels import SHARED_CLASSES

    phrases = list(workloads.CYCLE) + list(OUT_OF_LEXICON)
    lexicon = textcorrect.Lexicon.from_phrases(list(datagen.PHRASES))
    k3 = ensemble.StreamDecodeConfig(k=3)
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    # per weight: raw-failing seeds, raw and corrected edit distances, exact corrected CYCLE streams
    failing = {w: [] for w in WEIGHTS}
    raw_errors = dict.fromkeys(WEIGHTS, 0)
    corrected_errors = dict.fromkeys(WEIGHTS, 0)
    corrected_exact = dict.fromkeys(WEIGHTS, 0)
    for seed in seeds:
        with tempfile.TemporaryDirectory() as tmp:
            rfc_path, cnn_path, _ = workloads.train_heads(Path(tmp), seed)
            rfc_model, cnn_model = forest.load_forest(rfc_path), cnn.load_cnn(cnn_path)
        outputs = []
        for i, phrase in enumerate(phrases):
            rows, frames = workloads.stream(seed, i, phrase)
            outputs.append((phrase, forest.predict_proba(rfc_model, rows),
                            cnn.predict_proba(cnn_model, cnn.images_to_input(frames))))
        for w in WEIGHTS:
            weights = ensemble.EnsembleWeights(w_rfc=w, w_cnn=round(1.0 - w, 10))
            seed_fails = False
            for phrase, p_rfc, p_cnn in outputs:
                labels = [SHARED_CLASSES[c] for c in ensemble.recognize(p_rfc, p_cnn, weights)]
                raw = ensemble.decode_stream(labels, k3)
                chosen = raw  # an empty decode cannot be corrected
                if raw.strip():
                    chosen = textcorrect.correct_offline(raw, lexicon).candidates[0]
                raw_errors[w] += textcorrect.damerau_levenshtein(raw, phrase)
                corrected_errors[w] += textcorrect.damerau_levenshtein(chosen, phrase)
                corrected_exact[w] += chosen == phrase and phrase in workloads.CYCLE
                seed_fails |= raw != phrase
            if seed_fails:
                failing[w].append(seed)
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    signed = len(seeds) * sum(len(p) for p in phrases)
    print(f"{len(seeds)} seeds from {args.first_seed}, {len(phrases)} phrases each, "
          f"{signed} signed characters")
    print("w_rfc  raw_failing_seeds  raw_cer  corrected_cer  cycle_corrected_exact  failing_seeds")
    for w in WEIGHTS:
        print(f"{w:.2f}  {len(failing[w]):17d}  {raw_errors[w] / signed:7.4f}  "
              f"{corrected_errors[w] / signed:13.4f}  "
              f"{corrected_exact[w]:>12d} / {len(seeds) * len(workloads.CYCLE):<6d}  "
              f"{' '.join(map(str, failing[w])) or '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
