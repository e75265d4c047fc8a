"""Repair decoder typos with the edit-distance lexicon corrector.

Shows the distance primitive (optimal string alignment, where transposition
counts one edit), per-word candidate retrieval, the beam over whole phrases
with the word-swap reorder pass, and a measured top-3 accuracy over a batch
of synthetically corrupted phrases. Candidates come from a deletion index
(every string within two deletions of a lexicon word), which is exact for
distance 2 or less; a query word of more than 22 letters generates no
deletion and, with the built-in corpus, is returned as itself.
"""
from signpipe import datagen, textcorrect
from signpipe.rng import substream

# ---- 1. the distance primitive --------------------------------------------
for a, b in [("KITTEN", "SITTING"), ("BOK", "BOOK"), ("TEH", "THE"), ("CA", "ABC")]:
    print(f"  dl({a!r}, {b!r}) = {textcorrect.damerau_levenshtein(a, b)}")
# the cap short-circuits long shots; it returns cap + 1 instead of the truth
print(f"  dl with cap 2: {textcorrect.damerau_levenshtein('AAAAAAA', 'BBBBBBB', cap=2)}")

# ---- 2. lexicon and per-word candidates ------------------------------------
lexicon = textcorrect.Lexicon.from_phrases(list(datagen.PHRASES))
print(f"lexicon built from {len(datagen.PHRASES)} phrases, "
      f"{len(lexicon.words)} distinct words")
for word in ["BOK", "THANX", "XYZZY"]:
    cands = textcorrect.word_candidates(word, lexicon)
    ranked = ", ".join(f"{w} (d={d})" for w, d in cands)
    print(f"  {word!r} -> {ranked}")

# ---- 3. whole-phrase correction --------------------------------------------
for noisy in ["TOY BOK", "PLAES HELP ME", "you thank"]:
    result = textcorrect.correct_offline(noisy, lexicon)
    print(f"  {noisy!r} -> {list(result.candidates)}")

# ---- 4. batch accuracy on corrupted phrases --------------------------------
rng = substream(99, "demo-corrupt")
mix = datagen.ErrorMix()
cleans = datagen.sample_phrases(200, rng)
pairs = []
for clean in cleans:
    noisy, kind = datagen.corrupt_text(clean, mix, rng)
    pairs.append((noisy, clean))
metrics = textcorrect.evaluate_corrector(
    lambda t: textcorrect.correct_offline(t, lexicon), pairs
)
print(f"top-1 {metrics['top1_accuracy']:.3f}, "
      f"top-3 {metrics['top3_accuracy']:.3f} over {len(pairs)} corrupted phrases")

# the remote path shares the three-candidate contract; it POSTs the text to
# a configured endpoint and falls back to this offline corrector when asked
