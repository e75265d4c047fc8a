"""Command-line pipeline: datagen, training, tuning, eval, correction, video.

Exit codes: 0 success, 1 usage error, 2 data error or a training worker
that died, 3 remote-corrector failure. All randomness flows from the single
config seed through named substreams, so re-running any subcommand
reproduces its outputs byte for byte; reports deliberately carry no
timestamps or timings.
"""
from __future__ import annotations

import argparse
import contextlib
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import cnn as cnn_mod
from . import datagen, ensemble, forest, textcorrect, videosynth
from .config import (
    apply_overrides,
    get_bool,
    get_float,
    get_int,
    get_optional_int,
    load_config,
)
from .io import (
    read_landmark_csv,
    read_pgm,
    read_text,
    unlink_numbered,
    write_json_report,
    write_landmark_csv,
    write_pgm,
)
from .labels import (
    BLANK, CNN_CLASSES, CNN_INDEX, LETTERS, RFC_CLASSES, RFC_INDEX, SHARED_CLASSES, SIGNABLE,
    ascii_words, upper_ascii,
)
from .landmarks import N_FEATURES, LandmarkFrame
from .metrics import confusion_and_metrics
from .rng import substream

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; the contract is 1
        raise UsageError(message)


def _config(args) -> dict[str, str]:
    return apply_overrides(load_config(args.config), args.set or [])


def _out_dir(args) -> Path:
    """--out, checked before any work: it may be missing, but neither it nor a parent a file."""
    out = Path(args.out)
    found = next(p for p in (out, *out.parents) if p.exists())
    if not found.is_dir():
        raise ValueError(f"{found}: exists and is not a directory")
    return out


def _split(n: int, seed: int, tag: str):
    perm = substream(seed, tag).permutation(n)
    cut = int(0.8 * n)
    return perm[:cut], perm[cut:]


# ---------------------------------------------------------------- datagen


def _cmd_datagen(args) -> int:
    out = _out_dir(args)
    cfg = _config(args)
    seed = get_int(cfg, "seed")
    spread = get_float(cfg, "datagen.spread", above=0.0)
    # Every spec is built, and so checked, before the first file is written.
    lm_spec = datagen.LandmarkDatasetSpec(
        per_class=get_int(cfg, "datagen.landmark_per_class", minimum=1), spread=spread, seed=seed
    )
    sil_spec = datagen.SilhouetteDatasetSpec(
        per_class=get_int(cfg, "datagen.silhouette_per_class", minimum=1), seed=seed
    )
    atlas_size = get_int(cfg, "datagen.atlas_size", minimum=1)
    stream_spec = datagen.StreamSpec(
        text=upper_ascii(args.stream_text), dataset_seed=seed, stream_seed=seed + 1, spread=spread
    ) if args.stream_text else None

    out.mkdir(parents=True, exist_ok=True)
    frames = datagen.synth_landmarks(lm_spec)
    write_landmark_csv(out / "landmarks.csv", frames)

    images, labels = datagen.synth_silhouettes(sil_spec)
    for start in range(0, len(images), sil_spec.per_class):  # class-major
        class_dir = out / "silhouettes" / labels[start]
        class_dir.mkdir(parents=True, exist_ok=True)
        for i, img in enumerate(images[start : start + sil_spec.per_class]):
            write_pgm(class_dir / f"img_{i:05d}.pgm", img)
        unlink_numbered(class_dir, "img_{:05d}.pgm", sil_spec.per_class)

    atlas_dir = out / "atlas"
    atlas_dir.mkdir(parents=True, exist_ok=True)
    atlas = datagen.synth_atlas(size=atlas_size)
    for name, img in atlas.items():
        write_pgm(atlas_dir / f"{name}.pgm", img)

    (out / "phrases.txt").write_text("\n".join(datagen.PHRASES) + "\n", encoding="ascii")

    report = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "landmark_samples": len(frames),
        "silhouette_samples": len(labels),
        "atlas_frames": len(atlas),
        "phrases": len(datagen.PHRASES),
    }

    frames_dir = out / "stream_frames"
    if stream_spec:
        lm, sils = datagen.synth_stream(stream_spec)
        write_landmark_csv(out / "stream_landmarks.csv", [LandmarkFrame(row, "NA") for row in lm])
        frames_dir.mkdir(parents=True, exist_ok=True)
        for i, img in enumerate(sils):
            write_pgm(frames_dir / f"frame_{i:06d}.pgm", img)
        unlink_numbered(frames_dir, "frame_{:06d}.pgm", len(sils))
        report["stream_text"] = stream_spec.text
        report["stream_frames"] = len(sils)
    else:  # nor an earlier run's stream
        (out / "stream_landmarks.csv").unlink(missing_ok=True)
        unlink_numbered(frames_dir, "frame_{:06d}.pgm", 0)
        with contextlib.suppress(OSError):  # kept if something else is in it
            frames_dir.rmdir()

    write_json_report(out / "datagen_report.json", report)
    print(f"wrote {report['landmark_samples']} landmark rows, "
          f"{report['silhouette_samples']} silhouettes, atlas, phrases -> {out}")
    return 0


# ---------------------------------------------------------------- training


def _read_landmark_rows(path) -> list[LandmarkFrame]:
    """A landmark CSV's frames; a file with no data rows is an error."""
    frames = read_landmark_csv(path)
    if not frames:
        raise ValueError(f"{path}: no landmark rows")
    return frames


def _load_landmark_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    frames = _read_landmark_rows(path)
    bad = sorted({f.label for f in frames} - set(RFC_CLASSES))
    if bad:
        raise ValueError(f"{path}: labels outside the landmark label space: {bad}")
    return datagen.frames_to_arrays(frames, classes=RFC_CLASSES)


def _check_two_classes(path, y: np.ndarray, rows: str = "every landmark row") -> None:
    """A forest needs two classes: rows of one are an error naming the file,
    the rows and the class."""
    if len(np.unique(y)) < 2:
        raise ValueError(
            f"{path}: {rows} is class {RFC_CLASSES[y[0]]}, "
            "and the forest needs at least 2 classes"
        )


def _read_frames(paths, shape: tuple[int, int]) -> np.ndarray:
    """PGM images stacked, each checked against the CNN's (height, width)."""
    images = [read_pgm(path) for path in paths]
    for path, img in zip(paths, images):
        if img.shape != shape:
            h, w = img.shape
            raise ValueError(f"{path}: image is {w}x{h}, the CNN reads {shape[1]}x{shape[0]}")
    return np.stack(images)


def _load_silhouette_dataset(path, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    root = Path(path)
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise ValueError(f"{root}: no class directories found")
    bad = sorted({p.name for p in class_dirs} - set(CNN_CLASSES))
    if bad:
        raise ValueError(f"{root}: directories outside the silhouette label space: {bad}")
    files, ys = [], []
    for class_dir in class_dirs:
        for f in sorted(class_dir.glob("*.pgm")):
            files.append(f)
            ys.append(CNN_INDEX[class_dir.name])
    if not files:
        raise ValueError(f"{root}: no .pgm images found")
    return _read_frames(files, shape), np.array(ys, dtype=np.int64)


def _forest_hp(cfg) -> forest.ForestHyperparams:
    return forest.ForestHyperparams(
        n_estimators=get_int(cfg, "rfc.n_estimators", minimum=1),
        max_depth=get_optional_int(cfg, "rfc.max_depth", minimum=1),
        min_samples_split=get_int(cfg, "rfc.min_samples_split", minimum=2),
        min_samples_leaf=get_int(cfg, "rfc.min_samples_leaf", minimum=1),
        bootstrap=get_bool(cfg, "rfc.bootstrap"),
    )


def _cmd_train_rfc(args) -> int:
    cfg = _config(args)
    seed = get_int(cfg, "seed")
    hp = _forest_hp(cfg)
    X, y = _load_landmark_dataset(args.data)
    tr, te = _split(len(X), seed, "rfc-split")
    if len(tr) < hp.min_samples_split:
        raise ValueError(
            f"{args.data}: {len(X)} landmark row(s) leave {len(tr)} for training after the "
            f"80/20 split, and the forest needs at least {hp.min_samples_split}"
        )
    _check_two_classes(args.data, y)
    _check_two_classes(args.data, y[tr], "every training row of the 80/20 split")
    model = forest.train_forest(X[tr], y[tr], hp, seed=seed)
    forest.save_forest(args.model, model)
    metrics = confusion_and_metrics(forest.predict_class(model, X[te]), y[te], RFC_CLASSES)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model_file": Path(args.model).name,
        "train_samples": len(tr),
        "test_samples": len(te),
        "hyperparams": asdict(model.hyperparams),
        "metrics": metrics,
    }
    write_json_report(args.report, payload)
    print(f"landmark model: test accuracy {metrics['accuracy']:.4f} -> {args.model}")
    return 0


def _cmd_train_cnn(args) -> int:
    cfg = _config(args)
    seed = get_int(cfg, "seed")
    train_cfg = cnn_mod.TrainConfig(
        learning_rate=get_float(cfg, "cnn.learning_rate", above=0.0),
        batch_size=get_int(cfg, "cnn.batch_size", minimum=1),
        max_epochs=get_int(cfg, "cnn.max_epochs", minimum=1),
        patience=get_int(cfg, "cnn.patience", minimum=1),
        seed=seed,
    )
    model = cnn_mod.build_model(len(CNN_CLASSES), seed=seed)
    images, y = _load_silhouette_dataset(args.data, model.input_shape[:2])
    tr, te = _split(len(images), seed, "cnn-split")
    if len(tr) == 0:
        raise ValueError(
            f"{args.data}: {len(images)} silhouette image(s) leave 0 for training after the "
            "80/20 split"
        )
    # uint8 frames: train and predict scale one batch at a time.
    frames = images[..., None]
    history = cnn_mod.train(model, frames[tr], y[tr], frames[te], y[te], train_cfg)
    cnn_mod.save_cnn(args.model, model)
    metrics = confusion_and_metrics(cnn_mod.predict(model, frames[te]), y[te], CNN_CLASSES)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model_file": Path(args.model).name,
        "train_samples": len(tr),
        "test_samples": len(te),
        "epochs_run": len(history["val_loss"]),
        "history": history,
        "metrics": metrics,
    }
    write_json_report(args.report, payload)
    print(
        f"silhouette model: {len(history['val_loss'])} epochs, "
        f"val accuracy {metrics['accuracy']:.4f} -> {args.model}"
    )
    return 0


def _cmd_tune(args) -> int:
    cfg = _config(args)
    seed = get_int(cfg, "seed")
    folds = get_int(cfg, "rfc.cv_folds", minimum=2)
    X, y = _load_landmark_dataset(args.data)
    if len(X) < folds:
        raise ValueError(f"{args.data}: {len(X)} landmark row(s) cannot fill {folds} folds")
    held_out = forest.cv_folds(len(X), folds, seed)
    smallest = len(X) - max(map(len, held_out))  # training rows beside the largest fold
    need = max(forest.SEARCH_SPACE["min_samples_split"])
    if smallest < need:
        raise ValueError(
            f"{args.data}: {len(X)} landmark row(s) leave {smallest} for training in the "
            f"smallest of {folds} folds, and the search needs at least {need}"
        )
    _check_two_classes(args.data, y)
    for i, fold in enumerate(held_out, 1):
        _check_two_classes(
            args.data, np.delete(y, fold), f"every training row of fold {i} of {folds}"
        )
    best, rows = forest.grid_search(X, y, k=folds, seed=seed)

    def hyperparams(values: dict) -> str:
        return " ".join(f"{name}={values[name]}" for name in forest.SEARCH_SPACE)

    for row in rows:
        print(f"{hyperparams(row)} mean_acc={row['mean_accuracy']:.6f}")
    print(f"best: {hyperparams(asdict(best))}")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "folds": folds,
        "rows": rows,
        "best": asdict(best),
    }
    write_json_report(args.report, payload)
    return 0


# ---------------------------------------------------------------- eval


def _ensemble_pairs(
    rfc_model, cnn_model, X_lm, y_lm, te_lm, X_sil, y_sil, te_sil, seed: int, where: str = "eval"
):
    """Pair held-out samples into shared-space frames, in class order, rows in split order.

    Letters pair landmark and silhouette test samples positionally, up to the
    shorter side; SPACE and DELETE pair landmarks with a black (rest) frame;
    BLANK pairs rest frames with uniform-noise landmarks, mirroring what a live
    stream would feed. No pair at all raises ValueError naming `where`, before
    either head predicts.
    """
    lm_rows, sil_imgs = [], []
    for c in SHARED_CLASSES:  # index -1 selects nothing: the head lacks the class
        lm = te_lm[y_lm[te_lm] == RFC_INDEX.get(c, -1)]
        sil = te_sil[y_sil[te_sil] == CNN_INDEX.get(c, -1)]
        if c in LETTERS:
            n = min(len(lm), len(sil))
            lm_rows.append(X_lm[lm[:n]])
            sil_imgs.append(X_sil[sil[:n]])
        elif c == BLANK:
            lm_rows.append(substream(seed, "eval-noise").uniform(0.0, 1.0, (len(sil), N_FEATURES)))
            sil_imgs.append(X_sil[sil])
        else:  # SPACE and DELETE
            lm_rows.append(X_lm[lm])
            sil_imgs.append(np.zeros((len(lm), *X_sil.shape[1:]), dtype=X_sil.dtype))
    y_shared = np.repeat(np.arange(len(SHARED_CLASSES)), [len(r) for r in lm_rows])
    if not len(y_shared):
        raise ValueError(
            f"{where}: no held-out landmark row pairs with a held-out silhouette, "
            "so there is no ensemble to evaluate"
        )
    p_rfc = forest.predict_proba(rfc_model, np.concatenate(lm_rows))
    p_cnn = cnn_mod.predict_proba(cnn_model, np.concatenate(sil_imgs)[..., None])
    return p_rfc, p_cnn, y_shared


def _load_models(args) -> tuple[forest.Forest, cnn_mod.CnnModel]:
    """Both heads from --rfc and --cnn, each checked against its label space."""
    rfc_model = forest.load_forest(args.rfc)
    cnn_model = cnn_mod.load_cnn(args.cnn)
    for path, n, classes in ((args.rfc, rfc_model.n_classes, RFC_CLASSES),
                             (args.cnn, cnn_model.num_classes, CNN_CLASSES)):
        if n != len(classes):
            raise ValueError(f"{path}: expects {n} classes, pipeline label space has {len(classes)}")
    return rfc_model, cnn_model


def _cmd_eval(args) -> int:
    cfg = _config(args)
    seed = get_int(cfg, "seed")
    rfc_model, cnn_model = _load_models(args)
    X_lm, y_lm = _load_landmark_dataset(args.landmarks)
    images, y_sil = _load_silhouette_dataset(args.silhouettes, cnn_model.input_shape[:2])
    _, te_lm = _split(len(X_lm), seed, "rfc-split")
    _, te_sil = _split(len(images), seed, "cnn-split")
    p_rfc, p_cnn, y_shared = _ensemble_pairs(
        rfc_model, cnn_model, X_lm, y_lm, te_lm, images, y_sil, te_sil, seed,
        where=f"{args.landmarks}, {args.silhouettes}",
    )

    rfc_report = confusion_and_metrics(
        forest.predict_class(rfc_model, X_lm[te_lm]), y_lm[te_lm], RFC_CLASSES
    )
    cnn_report = confusion_and_metrics(
        cnn_mod.predict(cnn_model, images[te_sil, ..., None]),
        y_sil[te_sil],
        CNN_CLASSES,
    )
    weights, grid_accs = ensemble.optimize_weights(p_rfc, p_cnn, y_shared)
    ens_acc = max(grid_accs)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "rfc": rfc_report,
        "cnn": cnn_report,
        "ensemble": {
            "w_rfc": weights.w_rfc,
            "w_cnn": weights.w_cnn,
            "grid_accuracies": grid_accs,
            "accuracy": ens_acc,
            "rfc_only_accuracy": grid_accs[-1],
            "cnn_only_accuracy": grid_accs[0],
            "pairs": int(len(y_shared)),
        },
    }
    write_json_report(args.report, payload)
    print(
        f"rfc {rfc_report['accuracy']:.4f}  cnn {cnn_report['accuracy']:.4f}  "
        f"ensemble {ens_acc:.4f} (w_rfc={weights.w_rfc})"
    )
    return 0


# ---------------------------------------------------------------- correct


def _signable(text: str, where: str) -> str:
    """The normalized text; a character outside A-Z and space is an error at `where`."""
    norm = " ".join(ascii_words(upper_ascii(text)))  # not normalize: str.upper turns ß into SS
    bad = sorted(set(norm) - SIGNABLE)
    if bad:
        raise ValueError(f"{where}: cannot sign characters {bad}: only A-Z and space are signable")
    return norm


def _lexicon(args) -> textcorrect.Lexicon:
    if not args.phrases:
        return textcorrect.Lexicon.from_phrases(list(datagen.PHRASES))
    phrases = []
    for lineno, line in enumerate(read_text(args.phrases).splitlines(), start=1):
        phrase = _signable(line, f"{args.phrases}:{lineno}")
        if phrase:
            phrases.append(phrase)
    if not phrases:
        raise ValueError(f"{args.phrases}: no phrases")
    return textcorrect.Lexicon.from_phrases(phrases)


def _remote_cfg(cfg) -> textcorrect.RemoteCorrectorConfig:
    endpoint = cfg["remote.endpoint"]
    if not endpoint:
        raise ValueError("corrector=remote requires remote.endpoint in the config")
    return textcorrect.RemoteCorrectorConfig(
        endpoint=endpoint,
        token_env=cfg["remote.token_env"],
        timeout_ms=get_int(cfg, "remote.timeout_ms", minimum=1),
        max_retries=get_int(cfg, "remote.max_retries", minimum=0),
        backoff_ms=get_int(cfg, "remote.backoff_ms", minimum=0),
    )


def _corrector_inputs(cfg, args):
    """What the `corrector` setting needs, checked before any text exists: the
    remote config (remote mode, else None) and the lexicon (offline, or remote
    with --fallback, else None)."""
    mode = cfg["corrector"]
    if mode not in ("offline", "remote"):
        raise ValueError(f"config corrector: expected offline or remote, got {mode!r}")
    remote = _remote_cfg(cfg) if mode == "remote" else None
    lexicon = _lexicon(args) if remote is None or args.fallback else None
    return remote, lexicon


def _run_corrector(text: str, remote, lexicon) -> textcorrect.CorrectionResult:
    if remote is not None:
        try:
            return textcorrect.correct_remote(text, remote)
        except (textcorrect.TransportError, textcorrect.ProtocolError):
            if lexicon is None:
                raise
    return textcorrect.correct_offline(text, lexicon)


def _cmd_correct(args) -> int:
    cfg = _config(args)
    result = _run_corrector(_signable(args.text, "--text"), *_corrector_inputs(cfg, args))
    for i, cand in enumerate(result.candidates, start=1):
        print(f"{i}. {cand}")
    if args.report:
        write_json_report(
            args.report,
            {
                "schema_version": SCHEMA_VERSION,
                "input": args.text,
                "candidates": list(result.candidates),
                "source": result.source,
            },
        )
    return 0


# ---------------------------------------------------------------- video


def _atlas(args, cfg) -> videosynth.GestureAtlas:
    if args.atlas:
        root = Path(args.atlas)
        frames = {}
        for name in LETTERS + ("SPACE",):
            path = root / f"{name}.pgm"
            if not path.exists():
                raise ValueError(f"{root}: atlas frame {name}.pgm is missing")
            frames[name] = read_pgm(path)
        size, width = frames["A"].shape
        if width != size:
            raise ValueError(f"{root / 'A'}.pgm: atlas frame is {width}x{size}; frames must be square")
        for name, img in frames.items():
            if img.shape != (size, size):
                h, w = img.shape
                raise ValueError(f"{root / name}.pgm: atlas frame is {w}x{h}, A.pgm is {size}x{size}")
        return videosynth.GestureAtlas(frames=frames, size=size)
    size = get_int(cfg, "datagen.atlas_size", minimum=1)
    return videosynth.GestureAtlas(frames=datagen.synth_atlas(size=size), size=size)


def _synthesize(text: str, atlas: videosynth.GestureAtlas, args, out_dir: Path) -> dict:
    keyframes = videosynth.text_to_keyframes(text, atlas)
    seq24 = videosynth.duplicate_frames(keyframes)
    seq60 = videosynth.interpolate_sequence(seq24)
    manifest = videosynth.write_sequence(seq60, out_dir / "frames60")
    info = {
        "method": "flow",
        "keyframes": len(keyframes.index),
        "frames_24fps": len(seq24.index),
        "frames_60fps": len(seq60.index),
        "manifest": str(manifest.relative_to(out_dir)),
    }
    if args.stages:
        videosynth.write_sequence(keyframes, out_dir / "frames1")
        videosynth.write_sequence(seq24, out_dir / "frames24")
        info["stage_directories"] = ["frames1", "frames24", "frames60"]
    else:  # nor an earlier run's stage clips
        for stage in (out_dir / "frames1", out_dir / "frames24"):
            unlink_numbered(stage, "frame_{:06d}.pgm", 0)
            (stage / "manifest.json").unlink(missing_ok=True)
            with contextlib.suppress(OSError):  # kept if something else is in it
                stage.rmdir()
    return info


def _cmd_synthesize(args) -> int:
    out = _out_dir(args)
    if not args.text.strip():
        raise ValueError("cannot synthesize empty text")
    cfg = _config(args)
    text = upper_ascii(args.text)
    info = _synthesize(text, _atlas(args, cfg), args, out)
    write_json_report(
        out / "synthesize_report.json",
        {"schema_version": SCHEMA_VERSION, "text": text, "video": info},
    )
    print(f"{info['keyframes']} keyframes -> {info['frames_60fps']} frames at 60 FPS -> {out}")
    return 0


# ---------------------------------------------------------------- translate


def _cmd_translate(args) -> int:
    out = _out_dir(args)
    cfg = _config(args)
    w_rfc = get_float(cfg, "ensemble.w_rfc", within=(0.0, 1.0))
    weights = ensemble.EnsembleWeights(w_rfc=w_rfc, w_cnn=round(1.0 - w_rfc, 10))
    decode_cfg = ensemble.StreamDecodeConfig(k=get_int(cfg, "decode.k", minimum=1))
    remote, lexicon = _corrector_inputs(cfg, args)
    atlas = _atlas(args, cfg)
    rfc_model, cnn_model = _load_models(args)
    X_lm = np.stack([f.values for f in _read_landmark_rows(args.landmarks)])
    frame_files = sorted(Path(args.frames).glob("*.pgm"))
    if not frame_files:
        raise ValueError(f"{args.frames}: no .pgm frames found")
    images = _read_frames(frame_files, cnn_model.input_shape[:2])
    if len(images) != len(X_lm):
        raise ValueError(
            f"stream length mismatch: {len(X_lm)} landmark rows vs {len(images)} frames"
        )

    p_rfc = forest.predict_proba(rfc_model, X_lm)
    p_cnn = cnn_mod.predict_proba(cnn_model, images[..., None])
    classes = [SHARED_CLASSES[i] for i in ensemble.recognize(p_rfc, p_cnn, weights)]
    raw = ensemble.decode_stream(classes, decode_cfg)
    if not raw.strip():
        raise ValueError("decoded stream is empty: no stable gesture sequence found")

    result = _run_corrector(raw, remote, lexicon)
    chosen = result.candidates[0]
    video_info = _synthesize(chosen, atlas, args, out)
    write_json_report(
        out / "translate_report.json",
        {
            "schema_version": SCHEMA_VERSION,
            "frames_in": len(images),
            "decode_k": decode_cfg.k,
            "w_rfc": weights.w_rfc,
            "raw_text": raw,
            "candidates": list(result.candidates),
            "corrector_source": result.source,
            "chosen": chosen,
            "video": video_info,
        },
    )
    print(f"raw: {raw!r} -> chosen: {chosen!r} -> {video_info['frames_60fps']} frames")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="signpipe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Parent parsers: each flag that several subcommands share, declared once.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file (defaults apply if omitted)")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True, help="output model file")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report", required=True, help="output JSON report")
    heads = argparse.ArgumentParser(add_help=False)
    heads.add_argument("--rfc", required=True, help="forest model file")
    heads.add_argument("--cnn", required=True, help="cnn model file")
    corrector = argparse.ArgumentParser(add_help=False)
    corrector.add_argument("--phrases", help="phrase file for the lexicon (default: built-in corpus)")
    corrector.add_argument("--fallback", action="store_true",
                           help="fall back to the offline corrector on remote failure")
    video = argparse.ArgumentParser(add_help=False)
    video.add_argument("--atlas", help="atlas directory of <LETTER>.pgm files (default: built-in)")
    video.add_argument("--out", required=True, help="output directory")
    video.add_argument("--stages", action="store_true", help="also write the 1 and 24 FPS stages")

    def command(name: str, func, summary: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, parents=[common, *parents])
        p.set_defaults(func=func)
        return p

    p = command("datagen", _cmd_datagen, "generate synthetic datasets, atlas, and phrases")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--stream-text", help="also synthesize an input stream signing this text")

    p = command("train-rfc", _cmd_train_rfc, "train the landmark random forest", model, report)
    p.add_argument("--data", required=True, help="landmark CSV")

    p = command("train-cnn", _cmd_train_cnn, "train the silhouette CNN", model, report)
    p.add_argument("--data", required=True, help="silhouette directory (class subdirs of PGMs)")

    p = command("tune", _cmd_tune, "grid-search forest hyperparameters with k-fold CV", report)
    p.add_argument("--data", required=True, help="landmark CSV")

    p = command("eval", _cmd_eval, "evaluate both models and the weighted ensemble", heads, report)
    p.add_argument("--landmarks", required=True, help="landmark CSV")
    p.add_argument("--silhouettes", required=True, help="silhouette directory")

    p = command("correct", _cmd_correct, "correct raw recognized text", corrector)
    p.add_argument("--text", required=True, help="raw text to correct")
    p.add_argument("--report", help="optional JSON report path")

    p = command("synthesize", _cmd_synthesize, "render text as a 60 FPS gesture frame sequence", video)
    p.add_argument("--text", required=True, help="text to sign (A-Z and spaces)")

    p = command("translate", _cmd_translate, "landmark+frame stream -> text -> gesture video",
                heads, corrector, video)
    p.add_argument("--landmarks", required=True, help="stream landmark CSV")
    p.add_argument("--frames", required=True, help="stream silhouette frame directory")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (textcorrect.TransportError, textcorrect.ProtocolError) as exc:
        print(f"remote corrector error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, BrokenExecutor, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
