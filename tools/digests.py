"""Print a sha256 digest of every output of a fixed, seeded CLI run.

Runs datagen, train-rfc (bootstrapped, and unbootstrapped without a depth
cap), train-cnn (at batch 8, and at batch 5, whose last batch is short),
eval, tune, correct (with the built-in lexicon, and with a phrase file of
30- and 70-letter words), synthesize (at the default atlas size, at 36 px,
whose flow has partial 8x8 blocks, and a 36 px text with spaces at both
ends and doubled letters) and translate for seeds 3 and 8
against one checkout's `src/`, with one BLAS thread, and prints one
`sha256 path` line per output file, per frame directory (its .pgm names and
bytes in order) and per command's stdout (temporary paths stripped). A change that claims the same bytes prints the
same lines as its parent:

    python tools/digests.py --repo PARENT_CHECKOUT > parent.txt
    python tools/digests.py > change.txt
    diff parent.txt change.txt
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (3, 8)
CORRECT_TEXTS = ("TOY BOK", "you thank", "HELLO WORLD", "ZEBRA CROSSING",
                 "CONGRATULATONS DEAR SITSER", "HELO FREIND")
STREAM_TEXT = "HELLO DEAR FRIEND"
# Lexicon words too long for the corrector's deletion index, so every query
# word is measured against them: 30 letters, and 70, wider than 64 bits.
LONG_30 = "AJVXHAELDEOITIJUCLTWONQFUQFPSY"
LONG_70 = "ZIDRVQCUYHSBEYAHJFSYDCBDLKLDMRYRABSXXPNHYGQELCFCEZCSVTCLXNIBJSQBVQZFTA"
PHRASES_FILE = "long_phrases.txt"
LONG_TEXTS = (
    f"HELO {LONG_30[:10]}Q{LONG_30[11:]}",  # one substitution
    f"{LONG_70[:20]}{LONG_70[21]}{LONG_70[20]}{LONG_70[22:50]}{LONG_70[51:]} WORLD",  # swap, deletion
    # unrelated words of 40 and 31 letters; against the 30-letter word, the
    # distance's lower bound passes the cap within a few letters
    "ELWZZUUWJEUPCFUMQYCHWXHQATRXITDACGFDSINN VGCGXHOYGFWQIGIXRTQZDUDSREOHAOH",
)


def _write_inputs(run: Path) -> None:
    """Write the phrase file of the correct-long commands into the run directory."""
    (run / PHRASES_FILE).write_text(f"HELLO WORLD\n{LONG_30}\n{LONG_70}\n", encoding="ascii")


def _commands(seed: int):
    """(name, argv) per command; paths are relative to the run directory,
    which _write_inputs has filled."""
    s = ["--set", f"seed={seed}"]
    heads = ["--rfc", "rfc.blk", "--cnn", "cnn.blk"]
    yield "datagen", ["datagen", "--out", "data", "--stream-text", STREAM_TEXT, *s,
                      "--set", "datagen.landmark_per_class=20",
                      "--set", "datagen.silhouette_per_class=20"]
    yield "datagen-tune", ["datagen", "--out", "tune_data", *s,
                           "--set", "datagen.landmark_per_class=4",
                           "--set", "datagen.silhouette_per_class=1"]
    yield "train-rfc", ["train-rfc", "--data", "data/landmarks.csv",
                        "--model", "rfc.blk", "--report", "rfc.json", *s]
    # Every node of an unbootstrapped forest holds each of its rows once.
    yield "train-rfc-nobootstrap", ["train-rfc", "--data", "data/landmarks.csv",
                                    "--model", "rfc_nobootstrap.blk",
                                    "--report", "rfc_nobootstrap.json", *s,
                                    "--set", "rfc.bootstrap=false", "--set", "rfc.max_depth=none"]
    yield "train-cnn", ["train-cnn", "--data", "data/silhouettes", "--model", "cnn.blk",
                        "--report", "cnn.json", *s,
                        "--set", "cnn.batch_size=8", "--set", "cnn.max_epochs=3"]
    # 432 training glyphs at batch 5: every epoch ends on a batch of 2.
    yield "train-cnn-short-batch", ["train-cnn", "--data", "data/silhouettes",
                                    "--model", "cnn_b5.blk", "--report", "cnn_b5.json", *s,
                                    "--set", "cnn.batch_size=5", "--set", "cnn.max_epochs=2"]
    yield "eval", ["eval", *heads, "--landmarks", "data/landmarks.csv",
                   "--silhouettes", "data/silhouettes", "--report", "eval.json", *s]
    yield "tune", ["tune", "--data", "tune_data/landmarks.csv", "--report", "tune.json", *s,
                   "--set", "rfc.cv_folds=2"]
    for i, text in enumerate(CORRECT_TEXTS):
        yield f"correct-{i}", ["correct", "--text", text, "--report", f"correct_{i}.json", *s]
    for i, text in enumerate(LONG_TEXTS):
        yield f"correct-long-{i}", ["correct", "--phrases", PHRASES_FILE, "--text", text,
                                    "--report", f"correct_long_{i}.json", *s]
    yield "synthesize", ["synthesize", "--text", STREAM_TEXT, "--out", "synth", "--stages", *s]
    # 36 px is not a multiple of the 8 px flow block: partial edge blocks
    yield "synthesize-36", ["synthesize", "--text", STREAM_TEXT, "--out", "synth36", *s,
                            "--set", "datagen.atlas_size=36"]
    # Spaces at both ends, doubled letters and a double space: the repeats
    # change at the first and last frames and between equal letters.
    yield "synthesize-repeats", ["synthesize", "--text", " AA  BOOK ", "--out", "synth_repeats",
                                 "--stages", *s, "--set", "datagen.atlas_size=36"]
    yield "translate", ["translate", *heads, "--landmarks", "data/stream_landmarks.csv",
                        "--frames", "data/stream_frames", "--out", "translate", "--stages", *s]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digests(root: Path) -> list[tuple[str, str]]:
    """(digest, path) for each non-PGM file and each directory holding PGMs."""
    out = []
    for d in sorted(p for p in [root, *root.rglob("*")] if p.is_dir()):
        files = sorted(p for p in d.iterdir() if p.is_file())
        pgms = [p for p in files if p.suffix == ".pgm"]
        if pgms:
            h = hashlib.sha256()
            for p in pgms:
                h.update(p.name.encode() + b"\0" + p.read_bytes())
            out.append((h.hexdigest(), f"{d.relative_to(root)}/*.pgm"))
        out.extend((_sha(p.read_bytes()), str(p.relative_to(root))) for p in files if p.suffix != ".pgm")
    return out


def _env(repo: str) -> dict[str, str]:
    """The environment of a command run against repo's `src/`, with one BLAS thread."""
    return dict(os.environ, PYTHONPATH=str(Path(repo).resolve() / "src"),
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout whose src/ is run (default: this one)")
    args = parser.parse_args(argv)
    env = _env(args.repo)
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            run = Path(tmp)
            _write_inputs(run)
            for name, cmd in _commands(seed):
                proc = subprocess.run([sys.executable, "-m", "signpipe.cli", *cmd], cwd=run,
                                      env=env, capture_output=True, text=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    raise SystemExit(f"seed {seed} {name}: exit {proc.returncode}")
                stdout = proc.stdout.replace(str(run), "<tmp>")
                print(f"{_sha(stdout.encode())} seed{seed}/stdout/{name}")
            for digest, path in _tree_digests(run):
                print(f"{digest} seed{seed}/{path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
