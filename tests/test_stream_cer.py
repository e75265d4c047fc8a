"""Character error rate (CER) of whole signed streams through `recognize`.

One seeded pair of heads, trained like the benchmark corpus (20 landmark
rows and 20 glyphs per class, the default forest, the CNN at batch 8 for 8
epochs), reads `synth_stream` streams of sampled corpus phrases and of
phrases with words outside the lexicon. The path is the one `translate`
takes: predict_proba on both heads -> `recognize` -> `decode_stream(k=3)`
-> `correct_offline`. Each head runs once per stream; the weight sweep
reuses the stored outputs.

Three numbers per setting, pooled over its streams:
- raw CER: edit distance of the raw decode over the signed characters
- corrected CER: the same for the corrector's first candidate
- regret: streams whose raw decode was exact but whose first candidate is not

The ceilings are what this path measured when the test was written. A
change may lower them; raising one is a regression of the pipeline.
"""
import pytest

from signpipe import cli, cnn, datagen, ensemble, forest, textcorrect
from signpipe.labels import SHARED_CLASSES
from signpipe.rng import substream

SEED = 3
CORPUS_PHRASES = 10
OUT_OF_LEXICON = ("HELLO WORLD", "GOOD MORNING KITTEN", "ZEBRA CROSSING")
DEFAULT_STREAM = (5, 4, 0.05)  # StreamSpec's hold, rest and spread
K3 = ensemble.StreamDecodeConfig(k=3)

# (raw CER, corrected CER, regret) ceilings by w_rfc on the default streams:
# 13 phrases, 253 signed characters. CERs are rounded up to 4 places, less
# than one character's share. At 0.50 and below every space is lost: on a
# space the CNN sees a black frame and puts its mass on BLANK, which
# project_cnn does not share with SPACE. The regret of 2 is the corrector
# replacing the exactly decoded WORLD and KITTEN, which the lexicon lacks.
WEIGHT_CEILINGS = {
    0.50: (0.1265, 0.1265, 0),
    0.55: (0.0, 0.0159, 2),
    0.60: (0.0, 0.0159, 2),
    0.85: (0.0, 0.0159, 2),
    0.90: (0.0317, 0.0198, 0),
}
# The same by (hold, rest, spread) at w_rfc 0.60, on the first GRID_PHRASES
# corpus phrases plus the out-of-lexicon ones: 125 signed characters. A rest
# shorter than k = 3 frames never stabilizes BLANK, so doubled letters merge.
GRID_PHRASES = 4
GRID_CEILINGS = {
    (3, 2, 0.05): (0.056, 0.04, 0),
    (3, 2, 0.10): (0.144, 0.168, 0),
    (3, 4, 0.05): (0.0, 0.032, 2),
    (3, 4, 0.10): (0.096, 0.112, 1),
    (5, 2, 0.05): (0.056, 0.04, 0),
    (5, 2, 0.10): (0.128, 0.144, 0),
    (5, 4, 0.05): (0.0, 0.032, 2),
    (5, 4, 0.10): (0.04, 0.056, 1),
}


def _phrases(n_corpus: int) -> list[str]:
    sampled = datagen.sample_phrases(CORPUS_PHRASES, substream(SEED, "cer-phrases"))
    return sampled[:n_corpus] + list(OUT_OF_LEXICON)


def _sets(*pairs: str) -> list[str]:
    return [x for p in pairs for x in ("--set", p)]


@pytest.fixture(scope="module")
def heads(tmp_path_factory):
    root = tmp_path_factory.mktemp("cer")
    assert cli.main(["datagen", "--out", str(root / "corpus"), *_sets(
        f"seed={SEED}", "datagen.landmark_per_class=20", "datagen.silhouette_per_class=20",
    )]) == 0
    assert cli.main(["train-rfc", "--data", str(root / "corpus" / "landmarks.csv"),
                     "--model", str(root / "rfc.blk"), "--report", str(root / "rfc.json"),
                     *_sets(f"seed={SEED}")]) == 0
    assert cli.main(["train-cnn", "--data", str(root / "corpus" / "silhouettes"),
                     "--model", str(root / "cnn.blk"), "--report", str(root / "cnn.json"),
                     *_sets(f"seed={SEED}", "cnn.batch_size=8", "cnn.max_epochs=8",
                           "cnn.patience=8")]) == 0
    return forest.load_forest(root / "rfc.blk"), cnn.load_cnn(root / "cnn.blk")


def _head_outputs(heads, phrases, hold, rest, spread):
    """(phrase, forest distributions, CNN distributions) per signed stream."""
    rfc_model, cnn_model = heads
    outputs = []
    for i, phrase in enumerate(phrases):
        spec = datagen.StreamSpec(
            text=phrase, hold=hold, rest=rest, spread=spread, dataset_seed=SEED,
            stream_seed=int(substream(SEED, "cer-stream", i).integers(2**62)),
        )
        rows, frames = datagen.synth_stream(spec)
        outputs.append((phrase, forest.predict_proba(rfc_model, rows),
                        cnn.predict_proba(cnn_model, cnn.images_to_input(frames))))
    return outputs


def _stream_scores(outputs, w_rfc: float) -> tuple[float, float, int]:
    """(raw CER, corrected CER, regret) pooled over the streams."""
    weights = ensemble.EnsembleWeights(w_rfc=w_rfc, w_cnn=round(1.0 - w_rfc, 10))
    lexicon = textcorrect.Lexicon.from_phrases(list(datagen.PHRASES))
    raw_errors = corrected_errors = regret = signed = 0
    for phrase, p_rfc, p_cnn in outputs:
        labels = [SHARED_CLASSES[i] for i in ensemble.recognize(p_rfc, p_cnn, weights)]
        raw = ensemble.decode_stream(labels, K3)
        chosen = textcorrect.correct_offline(raw, lexicon).candidates[0] if raw.strip() else raw
        raw_errors += textcorrect.damerau_levenshtein(raw, phrase)
        corrected_errors += textcorrect.damerau_levenshtein(chosen, phrase)
        regret += raw == phrase and chosen != phrase
        signed += len(phrase)
    return raw_errors / signed, corrected_errors / signed, regret


def _within(scores, ceilings) -> bool:
    return all(s <= c for s, c in zip(scores, ceilings))


def test_stream_cer_across_the_weight_sweep(heads):
    outputs = _head_outputs(heads, _phrases(CORPUS_PHRASES), *DEFAULT_STREAM)
    scores = {w: _stream_scores(outputs, w) for w in WEIGHT_CEILINGS}
    over = {w: s for w, s in scores.items() if not _within(s, WEIGHT_CEILINGS[w])}
    assert not over, f"above the ceilings: {over}"


def test_stream_cer_across_hold_rest_and_spread(heads):
    over = {}
    for setting, ceilings in GRID_CEILINGS.items():
        scores = _stream_scores(_head_outputs(heads, _phrases(GRID_PHRASES), *setting), 0.60)
        if not _within(scores, ceilings):
            over[setting] = scores
    assert not over, f"above the ceilings: {over}"
