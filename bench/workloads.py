"""The three workloads: translate, live and train.

Each workload is one closed loop of one kind of operation, run in whole
rounds until the measuring time is up. Set-up builds every input from the
seed and trains what the workload needs; only files and arrays reach the
program. Operations are timed from outside, through `signpipe.cli.main` or
the modules' public functions, and every output is checked.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from signpipe import cli, cnn, datagen, ensemble, forest, textcorrect
from signpipe.config import get_float, get_int, load_config
from signpipe.io import write_landmark_csv, write_pgm
from signpipe.labels import CNN_CLASSES, LETTERS, RFC_CLASSES, SHARED_CLASSES
from signpipe.landmarks import N_FEATURES, unflatten
from signpipe.rng import substream

import checks

# The phrase cycle of `translate` and `live`: 8, 17 and 27 characters, the
# shortest and longest corpus phrases around the 17-character reference.
# HELLO and BOOK carry doubled letters, which only decode when BLANK frames
# re-arm the decoder. The cycle is the same for every seed, so every run
# times the same mix of operations.
CYCLE = ("TOY BOOK", "HELLO DEAR FRIEND", "CONGRATULATIONS DEAR SISTER")

# Reduced training corpus on which every cycle phrase decodes exactly. The
# forest keeps its default hyperparameters; with 10 rows per class its SPACE
# votes fell below the 2/3 that SPACE needs against the CNN's BLANK on a black
# frame, and 8 of seeds 0-15 lost a space (20 per class lost none). The CNN
# trains with batch 8 for a fixed 8 epochs; patience equal to the epoch count
# keeps early stopping from cutting work. With fewer optimizer steps P(BLANK)
# on a black frame stayed between 0.15 and 0.3 on some seeds, BLANK lost the
# rest gaps to the forest's noise votes and doubled letters merged (10 glyphs
# per class at batch 8 for 12 epochs failed on seeds 3, 5, 6 and 9).
LANDMARKS_PER_CLASS = 20
GLYPHS_PER_CLASS = 20
CNN_EPOCHS = 8
CNN_SETTINGS = ("cnn.batch_size=8", f"cnn.max_epochs={CNN_EPOCHS}", f"cnn.patience={CNN_EPOCHS}")
RFC_FLOOR = 0.95  # acceptance criterion 4
CNN_FLOOR = 0.90  # lowest seen on seeds 1-14 after CNN_EPOCHS epochs: 0.97
FRESH_PER_CLASS = 20  # held-out samples per class for the accuracy checks

# Set-up repetitions; setup_s is their median. The set-up of translate and
# live trains both heads (about 12 s), so it runs once: a second one would
# take the time the operations need within the run budget. The set-up of
# train writes about 1,100 small files in 0.2-0.6 s, so it runs 7 times.
SETUP_REPEATS = {"translate": 1, "live": 1, "train": 7}

# Every workload runs at least two whole rounds, so that `train` can compare
# the model bytes and every mean pools at least two samples of each input.
MIN_ROUNDS = 2

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "primary_mean_ms": "ms", "secondary_mean_ms": "ms"}


class SetupError(Exception):
    pass


@dataclass
class Run:
    """What a workload measured: operation times, counts and check failures."""

    setup_s: list[float] = field(default_factory=list)
    primary_s: list[float] = field(default_factory=list)
    secondary_s: list[float] = field(default_factory=list)
    attempted: int = 0
    chars: int = 0
    failures: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    tracer: object = None

    def measured(self):
        """Switch the tracer on for the timed operations of a round."""
        return self.tracer.on() if self.tracer else contextlib.nullcontext()

    def end_to_end(self) -> dict[str, float]:
        """Means pool every operation of the run: slow spells on a shared
        machine last seconds, and a median of a few samples jumps between
        them where a mean moves with their share of the run."""
        return {
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "primary_mean_ms": statistics.fmean(self.primary_s) * 1e3,
            "secondary_mean_ms": statistics.fmean(self.secondary_s) * 1e3,
        }


def run_cli(argv: list) -> tuple[int, str]:
    """signpipe.cli.main with its printing captured; returns (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def _setup_cli(argv: list) -> None:
    code, err = run_cli(argv)
    if code != 0:
        raise SetupError(f"signpipe {argv[0]} exited {code}: {err.strip()}")


def _sets(*pairs: str) -> list[str]:
    return [x for p in pairs for x in ("--set", p)]


def make_corpus(out: Path, seed: int) -> Path:
    """The reduced seeded training corpus, written by the `datagen` command."""
    _setup_cli(["datagen", "--out", out, *_sets(
        f"seed={seed}",
        f"datagen.landmark_per_class={LANDMARKS_PER_CLASS}",
        f"datagen.silhouette_per_class={GLYPHS_PER_CLASS}",
    )])
    return out


def training_argv(command: str, corpus: Path, models: Path, seed: int) -> list:
    """`train-rfc` or `train-cnn` on the corpus, writing models/<command>.blk."""
    data = corpus / ("landmarks.csv" if command == "train-rfc" else "silhouettes")
    settings = [f"seed={seed}"] + (list(CNN_SETTINGS) if command == "train-cnn" else [])
    return [command, "--data", data, "--model", models / f"{command}.blk",
            "--report", models / f"{command}.json", *_sets(*settings)]


def train_heads(work: Path, seed: int) -> tuple[Path, Path, Path]:
    """Corpus plus both heads through the CLI; returns the models and atlas."""
    corpus = make_corpus(work / "corpus", seed)
    for command in ("train-rfc", "train-cnn"):
        _setup_cli(training_argv(command, corpus, work, seed))
    return work / "train-rfc.blk", work / "train-cnn.blk", corpus / "atlas"


def stream(seed: int, i: int, phrase: str) -> tuple[np.ndarray, np.ndarray]:
    """Landmark rows and silhouette frames signing phrase i of the cycle."""
    stream_seed = int(substream(seed, "bench-stream", i).integers(2**62))
    spec = datagen.StreamSpec(text=phrase, dataset_seed=seed, stream_seed=stream_seed)
    return datagen.synth_stream(spec)


def timed_setups(run: Run, work: Path, repeats: int, build):
    """Run build(dir) `repeats` times into fresh directories; keep the last."""
    result = None
    for r in range(repeats):
        d = work / f"setup{r}"
        d.mkdir()
        start = time.perf_counter()
        result = build(d)
        run.setup_s.append(time.perf_counter() - start)
        if r < repeats - 1:
            shutil.rmtree(d)
    return result


def rounds(seconds: float, round_fn) -> None:
    """Whole rounds until `seconds` have passed, and at least MIN_ROUNDS."""
    start = time.perf_counter()
    done = 0
    while done < MIN_ROUNDS or time.perf_counter() - start < seconds:
        round_fn()
        done += 1


def _fail(run: Run, what: str, detail: str) -> None:
    run.failures.append(f"{what} failed: {detail}")


def _check(run: Run, fn, *args) -> None:
    try:
        fn(*args)
    except checks.CheckError as exc:
        run.errors.append(str(exc))


# ---------------------------------------------------------------- translate


def translate(work: Path, seed: int, seconds: float, tracer=None) -> Run:
    """One `signpipe translate` per signed phrase of the cycle."""
    run = Run(tracer=tracer)

    def build(d: Path):
        rfc, cnn_path, atlas = train_heads(d, seed)
        inputs = []
        for i, phrase in enumerate(CYCLE):
            lm, sils = stream(seed, i, phrase)
            sdir = d / f"stream{i}"
            (sdir / "frames").mkdir(parents=True)
            write_landmark_csv(sdir / "landmarks.csv", [unflatten(row, "NA") for row in lm])
            for j, img in enumerate(sils):
                write_pgm(sdir / "frames" / f"frame_{j:06d}.pgm", img)
            inputs.append((phrase, sdir))
        return rfc, cnn_path, atlas, inputs

    rfc, cnn_path, atlas, inputs = timed_setups(run, work, SETUP_REPEATS["translate"], build)
    out = work / "clip"

    def one_cycle():
        for phrase, sdir in inputs:
            if out.exists():
                shutil.rmtree(out)
            argv = ["translate", "--rfc", rfc, "--cnn", cnn_path,
                    "--landmarks", sdir / "landmarks.csv", "--frames", sdir / "frames",
                    "--out", out]
            run.attempted += 1
            with run.measured():
                start = time.perf_counter()
                code, err = run_cli(argv)
                elapsed = time.perf_counter() - start
            if code != 0:
                _fail(run, f"translate {phrase!r}", f"exit {code}: {err.strip()}")
                continue
            run.primary_s.append(elapsed)
            run.secondary_s.append(elapsed / len(phrase))
            run.chars += len(phrase)
            report = json.loads((out / "translate_report.json").read_text(encoding="utf-8"))
            _check(run, checks.check_translate_report, report, phrase)
            _check(run, checks.check_clip, out / "frames60", phrase, atlas)

    rounds(seconds, one_cycle)
    return run


# ---------------------------------------------------------------- live


def live(work: Path, seed: int, seconds: float, tracer=None) -> Run:
    """Frame-by-frame recognition of a multi-phrase stream, captioned per phrase."""
    run = Run(tracer=tracer)
    cfg = load_config(None)
    weights = ensemble.EnsembleWeights(
        w_rfc=get_float(cfg, "ensemble.w_rfc"),
        w_cnn=round(1.0 - get_float(cfg, "ensemble.w_rfc"), 10),
    )
    decode_cfg = ensemble.StreamDecodeConfig(k=get_int(cfg, "decode.k"))

    def build(d: Path):
        rfc, cnn_path, _ = train_heads(d, seed)
        streams = [(phrase, *stream(seed, i, phrase)) for i, phrase in enumerate(CYCLE)]
        lexicon = textcorrect.Lexicon.from_phrases(list(datagen.PHRASES))
        return forest.load_forest(rfc), cnn.load_cnn(cnn_path), streams, lexicon

    rfc_model, cnn_model, streams, lexicon = timed_setups(
        run, work, SETUP_REPEATS["live"], build
    )

    def one_cycle():
        for phrase, rows, frames in streams:
            classes = []
            for row, img in zip(rows, frames):
                run.attempted += 1
                with run.measured():
                    start = time.perf_counter()
                    p_rfc = forest.predict_proba(rfc_model, row[None, :])
                    p_cnn = cnn.predict_proba(cnn_model, cnn.images_to_input(img))
                    combined = ensemble.combine(
                        ensemble.project_rfc(p_rfc), ensemble.project_cnn(p_cnn), weights
                    )
                    classes.append(SHARED_CLASSES[int(np.argmax(combined[0]))])
                    run.primary_s.append(time.perf_counter() - start)
            run.attempted += 1
            try:
                with run.measured():
                    start = time.perf_counter()
                    raw = ensemble.decode_stream(classes, decode_cfg)
                    result = textcorrect.correct_offline(raw, lexicon)
                    run.secondary_s.append(time.perf_counter() - start)
            except ValueError as exc:  # an empty decode cannot be corrected
                _fail(run, f"caption {phrase!r}", str(exc))
                continue
            run.chars += len(phrase)
            _check(run, checks.check_caption, raw, result.candidates, phrase)

    rounds(seconds, one_cycle)
    return run


# ---------------------------------------------------------------- train


def _fresh_landmarks(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """New rows around the corpus's class centroids, from another noise seed."""
    rng = substream(seed, "bench-fresh-landmarks")
    spread = get_float(load_config(None), "datagen.spread")
    X = np.concatenate([
        datagen.class_centroid(seed, k) + rng.normal(0.0, spread, (FRESH_PER_CLASS, N_FEATURES))
        for k in range(len(RFC_CLASSES))
    ])
    return X, np.repeat(np.arange(len(RFC_CLASSES)), FRESH_PER_CLASS)


def _fresh_glyphs(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """New jittered glyphs of every class, BLANK as all black."""
    rng = substream(seed, "bench-fresh-glyphs")
    images = np.zeros((len(CNN_CLASSES) * FRESH_PER_CLASS, 32, 32), dtype=np.uint8)
    for k, label in enumerate(CNN_CLASSES):
        if label in LETTERS:
            for i in range(FRESH_PER_CLASS):
                images[k * FRESH_PER_CLASS + i] = datagen.render_silhouette(
                    k, 32, "asl", jitter_rng=rng
                )
    return images, np.repeat(np.arange(len(CNN_CLASSES)), FRESH_PER_CLASS)


def train(work: Path, seed: int, seconds: float, tracer=None) -> Run:
    """`train-rfc` and `train-cnn`, alternated, on one seeded corpus."""
    run = Run(tracer=tracer)
    corpus = timed_setups(run, work, SETUP_REPEATS["train"], lambda d: make_corpus(d, seed))
    X_lm, y_lm = _fresh_landmarks(seed)
    glyphs, y_sil = _fresh_glyphs(seed)
    models = work / "models"
    models.mkdir()
    first: dict[str, bytes] = {}

    def one_round():
        for command, times in (("train-rfc", run.primary_s), ("train-cnn", run.secondary_s)):
            argv = training_argv(command, corpus, models, seed)
            model = models / f"{command}.blk"
            run.attempted += 1
            with run.measured():
                start = time.perf_counter()
                code, err = run_cli(argv)
                elapsed = time.perf_counter() - start
            if code != 0:
                _fail(run, command, f"exit {code}: {err.strip()}")
                continue
            times.append(elapsed)
            if command in first:
                _check(run, checks.check_same_bytes, model, first[command])
                continue
            first[command] = model.read_bytes()
            if command == "train-rfc":
                pred = forest.predict_class(forest.load_forest(model), X_lm)
                _check(run, checks.check_accuracy, "forest", pred, y_lm, RFC_FLOOR)
            else:
                report = json.loads(model.with_suffix(".json").read_text(encoding="utf-8"))
                epochs = report["epochs_run"]
                if epochs != CNN_EPOCHS:
                    run.errors.append(f"train-cnn ran {epochs} epochs, not {CNN_EPOCHS}")
                pred = cnn.predict(cnn.load_cnn(model), cnn.images_to_input(glyphs))
                _check(run, checks.check_accuracy, "cnn", pred, y_sil, CNN_FLOOR)

    rounds(seconds, one_round)
    return run


WORKLOADS = {"translate": translate, "live": live, "train": train}

