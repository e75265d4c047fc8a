"""Command-line pipeline: datagen, training, tuning, eval, correction, video.

Exit codes: 0 success, 1 usage error, 2 data error or a training worker
that died, 3 remote-corrector failure. All randomness flows from the single
config seed through named substreams, so re-running any subcommand
reproduces its outputs byte for byte; reports deliberately carry no
timestamps or timings.
"""
from __future__ import annotations

import argparse
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
    write_json_report,
    write_landmark_csv,
    write_pgm,
)
from .labels import CNN_CLASSES, CNN_INDEX, LETTERS, RFC_CLASSES, RFC_INDEX, SHARED_CLASSES, SHARED_INDEX
from .landmarks import N_FEATURES, flatten, unflatten
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


def _split(n: int, seed: int, tag: str, train_frac: float = 0.8):
    perm = substream(seed, tag).permutation(n)
    cut = int(train_frac * n)
    return perm[:cut], perm[cut:]


# ---------------------------------------------------------------- datagen


def _cmd_datagen(args) -> int:
    cfg = _config(args)
    seed = get_int(cfg, "seed")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    lm_spec = datagen.LandmarkDatasetSpec(
        per_class=get_int(cfg, "datagen.landmark_per_class"),
        spread=get_float(cfg, "datagen.spread"),
        seed=seed,
    )
    frames = datagen.synth_landmarks(lm_spec)
    write_landmark_csv(out / "landmarks.csv", frames)

    sil_spec = datagen.SilhouetteDatasetSpec(
        per_class=get_int(cfg, "datagen.silhouette_per_class"), seed=seed
    )
    images, labels = datagen.synth_silhouettes(sil_spec)
    counters: dict[str, int] = {}
    for img, label in zip(images, labels):
        idx = counters.get(label, 0)
        counters[label] = idx + 1
        class_dir = out / "silhouettes" / label
        class_dir.mkdir(parents=True, exist_ok=True)
        write_pgm(class_dir / f"img_{idx:05d}.pgm", img)

    atlas_dir = out / "atlas"
    atlas_dir.mkdir(parents=True, exist_ok=True)
    atlas = datagen.synth_atlas(size=get_int(cfg, "datagen.atlas_size"))
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

    if args.stream_text:
        stream_spec = datagen.StreamSpec(
            text=args.stream_text.upper(),
            dataset_seed=seed,
            stream_seed=seed + 1,
            spread=get_float(cfg, "datagen.spread"),
        )
        lm, sils = datagen.synth_stream(stream_spec)
        stream_frames = [unflatten(row, "NA") for row in lm]
        write_landmark_csv(out / "stream_landmarks.csv", stream_frames)
        frames_dir = out / "stream_frames"
        frames_dir.mkdir(parents=True, exist_ok=True)
        for i, img in enumerate(sils):
            write_pgm(frames_dir / f"frame_{i:06d}.pgm", img)
        report["stream_text"] = args.stream_text.upper()
        report["stream_frames"] = len(sils)

    write_json_report(out / "datagen_report.json", report)
    print(f"wrote {report['landmark_samples']} landmark rows, "
          f"{report['silhouette_samples']} silhouettes, atlas, phrases -> {out}")
    return 0


# ---------------------------------------------------------------- training


def _load_landmark_dataset(path) -> tuple[np.ndarray, np.ndarray]:
    frames = read_landmark_csv(path)
    bad = sorted({f.label for f in frames} - set(RFC_CLASSES))
    if bad:
        raise ValueError(f"{path}: labels outside the landmark label space: {bad}")
    return datagen.frames_to_arrays(frames, classes=RFC_CLASSES)


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
        n_estimators=get_int(cfg, "rfc.n_estimators"),
        max_depth=get_optional_int(cfg, "rfc.max_depth"),
        min_samples_split=get_int(cfg, "rfc.min_samples_split"),
        min_samples_leaf=get_int(cfg, "rfc.min_samples_leaf"),
        bootstrap=get_bool(cfg, "rfc.bootstrap"),
    )


def _cmd_train_rfc(args) -> int:
    cfg = _config(args)
    seed = get_int(cfg, "seed")
    X, y = _load_landmark_dataset(args.data)
    tr, te = _split(len(X), seed, "rfc-split")
    model = forest.train_forest(X[tr], y[tr], _forest_hp(cfg), seed=seed)
    forest.save_forest(args.model, model)
    report_obj = confusion_and_metrics(
        forest.predict_class(model, X[te]), y[te], n_classes=len(RFC_CLASSES)
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model_file": Path(args.model).name,
        "train_samples": len(tr),
        "test_samples": len(te),
        "hyperparams": asdict(model.hyperparams),
        "metrics": report_obj.to_payload(class_names=list(RFC_CLASSES)),
    }
    write_json_report(args.report, payload)
    print(f"landmark model: test accuracy {report_obj.accuracy:.4f} -> {args.model}")
    return 0


def _cmd_train_cnn(args) -> int:
    cfg = _config(args)
    seed = get_int(cfg, "seed")
    model = cnn_mod.build_model(len(CNN_CLASSES), seed=seed)
    images, y = _load_silhouette_dataset(args.data, model.input_shape[:2])
    X = cnn_mod.images_to_input(images)
    tr, te = _split(len(X), seed, "cnn-split")
    train_cfg = cnn_mod.TrainConfig(
        learning_rate=get_float(cfg, "cnn.learning_rate"),
        batch_size=get_int(cfg, "cnn.batch_size"),
        max_epochs=get_int(cfg, "cnn.max_epochs"),
        patience=get_int(cfg, "cnn.patience"),
        seed=seed,
    )
    history = cnn_mod.train(model, X[tr], y[tr], X[te], y[te], train_cfg)
    cnn_mod.save_cnn(args.model, model)
    report_obj = confusion_and_metrics(
        cnn_mod.predict(model, X[te]), y[te], n_classes=len(CNN_CLASSES)
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "model_file": Path(args.model).name,
        "train_samples": len(tr),
        "test_samples": len(te),
        "epochs_run": len(history["val_loss"]),
        "history": history,
        "metrics": report_obj.to_payload(class_names=list(CNN_CLASSES)),
    }
    write_json_report(args.report, payload)
    print(
        f"silhouette model: {len(history['val_loss'])} epochs, "
        f"val accuracy {report_obj.accuracy:.4f} -> {args.model}"
    )
    return 0


def _cmd_tune(args) -> int:
    cfg = _config(args)
    seed = get_int(cfg, "seed")
    X, y = _load_landmark_dataset(args.data)
    best, rows = forest.grid_search(X, y, k=get_int(cfg, "rfc.cv_folds"), seed=seed)
    for row in rows:
        print(
            f"n_estimators={row['n_estimators']} max_depth={row['max_depth']} "
            f"min_samples_split={row['min_samples_split']} "
            f"min_samples_leaf={row['min_samples_leaf']} bootstrap={row['bootstrap']} "
            f"mean_acc={row['mean_accuracy']:.6f}"
        )
    print(
        f"best: n_estimators={best.n_estimators} max_depth={best.max_depth} "
        f"min_samples_split={best.min_samples_split} "
        f"min_samples_leaf={best.min_samples_leaf} bootstrap={best.bootstrap}"
    )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "folds": get_int(cfg, "rfc.cv_folds"),
        "rows": rows,
        "best": asdict(best),
    }
    write_json_report(args.report, payload)
    return 0


# ---------------------------------------------------------------- eval


def _ensemble_pairs(
    rfc_model, cnn_model, X_lm, y_lm, te_lm, X_sil, y_sil, te_sil, seed: int
):
    """Pair held-out samples into shared-space frames.

    Letters pair landmark and silhouette test samples positionally; SPACE and
    DELETE pair landmarks with a black (rest) frame; BLANK pairs rest frames
    with uniform-noise landmarks, mirroring what a live stream would feed.
    """
    lm_rows: list[np.ndarray] = []
    sil_imgs: list[np.ndarray] = []
    y_shared: list[int] = []
    size = X_sil.shape[1]
    black = np.zeros((size, size), dtype=np.uint8)
    noise_rng = substream(seed, "eval-noise")
    lm_by_class = {c: [i for i in te_lm if y_lm[i] == RFC_INDEX[c]] for c in RFC_CLASSES}
    sil_by_class = {c: [i for i in te_sil if y_sil[i] == CNN_INDEX[c]] for c in CNN_CLASSES}
    for c in SHARED_CLASSES:
        if c in LETTERS:
            for i, j in zip(lm_by_class[c], sil_by_class[c]):
                lm_rows.append(X_lm[i])
                sil_imgs.append(X_sil[j])
                y_shared.append(SHARED_INDEX[c])
        elif c in ("SPACE", "DELETE"):
            for i in lm_by_class[c]:
                lm_rows.append(X_lm[i])
                sil_imgs.append(black)
                y_shared.append(SHARED_INDEX[c])
        else:  # BLANK
            for j in sil_by_class["BLANK"]:
                lm_rows.append(noise_rng.uniform(0.0, 1.0, N_FEATURES))
                sil_imgs.append(X_sil[j])
                y_shared.append(SHARED_INDEX[c])
    p_rfc = forest.predict_proba(rfc_model, np.stack(lm_rows))
    p_cnn = cnn_mod.predict_proba(cnn_model, cnn_mod.images_to_input(np.stack(sil_imgs)))
    return p_rfc, p_cnn, np.array(y_shared, dtype=np.int64)


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

    rfc_report = confusion_and_metrics(
        forest.predict_class(rfc_model, X_lm[te_lm]), y_lm[te_lm], n_classes=len(RFC_CLASSES)
    )
    cnn_report = confusion_and_metrics(
        cnn_mod.predict(cnn_model, cnn_mod.images_to_input(images[te_sil])),
        y_sil[te_sil],
        n_classes=len(CNN_CLASSES),
    )
    p_rfc, p_cnn, y_shared = _ensemble_pairs(
        rfc_model, cnn_model, X_lm, y_lm, te_lm, images, y_sil, te_sil, seed
    )
    weights, grid_accs = ensemble.optimize_weights(p_rfc, p_cnn, y_shared)
    combined = ensemble.combine(
        ensemble.project_rfc(p_rfc), ensemble.project_cnn(p_cnn), weights
    )
    ens_acc = float(np.mean(np.argmax(combined, axis=1) == y_shared))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "rfc": rfc_report.to_payload(class_names=list(RFC_CLASSES)),
        "cnn": cnn_report.to_payload(class_names=list(CNN_CLASSES)),
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
        f"rfc {rfc_report.accuracy:.4f}  cnn {cnn_report.accuracy:.4f}  "
        f"ensemble {ens_acc:.4f} (w_rfc={weights.w_rfc})"
    )
    return 0


# ---------------------------------------------------------------- correct


def _lexicon(args) -> textcorrect.Lexicon:
    if getattr(args, "phrases", None):
        phrases = [
            line.strip()
            for line in Path(args.phrases).read_text(encoding="ascii").splitlines()
            if line.strip()
        ]
        return textcorrect.Lexicon.from_phrases(phrases)
    return textcorrect.Lexicon.from_phrases(list(datagen.PHRASES))


def _remote_cfg(cfg) -> textcorrect.RemoteCorrectorConfig:
    endpoint = cfg["remote.endpoint"]
    if not endpoint:
        raise ValueError("corrector=remote requires remote.endpoint in the config")
    return textcorrect.RemoteCorrectorConfig(
        endpoint=endpoint,
        token_env=cfg["remote.token_env"],
        timeout_ms=get_int(cfg, "remote.timeout_ms"),
        max_retries=get_int(cfg, "remote.max_retries"),
        backoff_ms=get_int(cfg, "remote.backoff_ms"),
    )


def _run_corrector(text: str, cfg, args) -> textcorrect.CorrectionResult:
    mode = cfg["corrector"]
    if mode not in ("offline", "remote"):
        raise ValueError(f"config corrector: expected offline or remote, got {mode!r}")
    if mode == "remote":
        try:
            return textcorrect.correct_remote(text, _remote_cfg(cfg))
        except (textcorrect.TransportError, textcorrect.ProtocolError):
            if not getattr(args, "fallback", False):
                raise
    return textcorrect.correct_offline(text, _lexicon(args))


def _cmd_correct(args) -> int:
    cfg = _config(args)
    result = _run_corrector(args.text, cfg, args)
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
    if getattr(args, "atlas", None):
        root = Path(args.atlas)
        frames = {}
        for name in LETTERS + ("SPACE",):
            path = root / f"{name}.pgm"
            if not path.exists():
                raise ValueError(f"{root}: atlas frame {name}.pgm is missing")
            frames[name] = read_pgm(path)
        size = frames["A"].shape[0]
        for name, img in frames.items():
            if img.shape != (size, size):
                h, w = img.shape
                raise ValueError(f"{root / name}.pgm: atlas frame is {w}x{h}, A.pgm is {size}x{size}")
        return videosynth.GestureAtlas(frames=frames, size=size)
    size = get_int(cfg, "datagen.atlas_size")
    return videosynth.GestureAtlas(frames=datagen.synth_atlas(size=size), size=size)


def _synthesize(text: str, cfg, args, out_dir: Path) -> dict:
    atlas = _atlas(args, cfg)
    keyframes = videosynth.text_to_keyframes(text, atlas)
    seq24 = videosynth.duplicate_frames(keyframes)
    seq60 = videosynth.interpolate_sequence(seq24)
    manifest = videosynth.write_sequence(seq60, out_dir / "frames60")
    info = {
        "method": "flow",
        "keyframes": len(keyframes.frames),
        "frames_24fps": len(seq24.frames),
        "frames_60fps": len(seq60.frames),
        "manifest": str(manifest.relative_to(out_dir)),
    }
    if getattr(args, "stages", False):
        videosynth.write_sequence(keyframes, out_dir / "frames1")
        videosynth.write_sequence(seq24, out_dir / "frames24")
        info["stage_directories"] = ["frames1", "frames24", "frames60"]
    return info


def _cmd_synthesize(args) -> int:
    cfg = _config(args)
    out = Path(args.out)
    info = _synthesize(args.text.upper(), cfg, args, out)
    write_json_report(
        out / "synthesize_report.json",
        {"schema_version": SCHEMA_VERSION, "text": args.text.upper(), "video": info},
    )
    print(f"{info['keyframes']} keyframes -> {info['frames_60fps']} frames at 60 FPS -> {out}")
    return 0


# ---------------------------------------------------------------- translate


def _cmd_translate(args) -> int:
    cfg = _config(args)
    rfc_model, cnn_model = _load_models(args)
    stream = read_landmark_csv(args.landmarks)
    X_lm = np.stack([flatten(f) for f in stream])
    frame_files = sorted(Path(args.frames).glob("*.pgm"))
    if not frame_files:
        raise ValueError(f"{args.frames}: no .pgm frames found")
    images = _read_frames(frame_files, cnn_model.input_shape[:2])
    if len(images) != len(X_lm):
        raise ValueError(
            f"stream length mismatch: {len(X_lm)} landmark rows vs {len(images)} frames"
        )

    p_rfc = forest.predict_proba(rfc_model, X_lm)
    p_cnn = cnn_mod.predict_proba(cnn_model, cnn_mod.images_to_input(images))
    weights = ensemble.EnsembleWeights(
        w_rfc=get_float(cfg, "ensemble.w_rfc"),
        w_cnn=round(1.0 - get_float(cfg, "ensemble.w_rfc"), 10),
    )
    combined = ensemble.combine(
        ensemble.project_rfc(p_rfc), ensemble.project_cnn(p_cnn), weights
    )
    classes = [SHARED_CLASSES[i] for i in np.argmax(combined, axis=1)]
    raw = ensemble.decode_stream(
        classes, ensemble.StreamDecodeConfig(k=get_int(cfg, "decode.k"))
    )
    if not raw.strip():
        raise ValueError("decoded stream is empty: no stable gesture sequence found")

    result = _run_corrector(raw, cfg, args)
    chosen = result.candidates[0]
    out = Path(args.out)
    video_info = _synthesize(chosen, cfg, args, out)
    write_json_report(
        out / "translate_report.json",
        {
            "schema_version": SCHEMA_VERSION,
            "frames_in": len(images),
            "decode_k": get_int(cfg, "decode.k"),
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

    def common(p):
        p.add_argument("--config", help="key=value config file (defaults apply if omitted)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")

    p = sub.add_parser("datagen", help="generate synthetic datasets, atlas, and phrases")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--stream-text", help="also synthesize an input stream signing this text")
    p.set_defaults(func=_cmd_datagen)

    p = sub.add_parser("train-rfc", help="train the landmark random forest")
    common(p)
    p.add_argument("--data", required=True, help="landmark CSV")
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--report", required=True, help="output JSON report")
    p.set_defaults(func=_cmd_train_rfc)

    p = sub.add_parser("train-cnn", help="train the silhouette CNN")
    common(p)
    p.add_argument("--data", required=True, help="silhouette directory (class subdirs of PGMs)")
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--report", required=True, help="output JSON report")
    p.set_defaults(func=_cmd_train_cnn)

    p = sub.add_parser("tune", help="grid-search forest hyperparameters with k-fold CV")
    common(p)
    p.add_argument("--data", required=True, help="landmark CSV")
    p.add_argument("--report", required=True, help="output JSON report")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("eval", help="evaluate both models and the weighted ensemble")
    common(p)
    p.add_argument("--rfc", required=True, help="forest model file")
    p.add_argument("--cnn", required=True, help="cnn model file")
    p.add_argument("--landmarks", required=True, help="landmark CSV")
    p.add_argument("--silhouettes", required=True, help="silhouette directory")
    p.add_argument("--report", required=True, help="output JSON report")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("correct", help="correct raw recognized text")
    common(p)
    p.add_argument("--text", required=True, help="raw text to correct")
    p.add_argument("--phrases", help="phrase file for the lexicon (default: built-in corpus)")
    p.add_argument("--report", help="optional JSON report path")
    p.add_argument("--fallback", action="store_true",
                   help="fall back to the offline corrector on remote failure")
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("synthesize", help="render text as a 60 FPS gesture frame sequence")
    common(p)
    p.add_argument("--text", required=True, help="text to sign (A-Z and spaces)")
    p.add_argument("--atlas", help="atlas directory of <LETTER>.pgm files (default: built-in)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--stages", action="store_true", help="also write the 1 and 24 FPS stages")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("translate", help="landmark+frame stream -> text -> gesture video")
    common(p)
    p.add_argument("--rfc", required=True, help="forest model file")
    p.add_argument("--cnn", required=True, help="cnn model file")
    p.add_argument("--landmarks", required=True, help="stream landmark CSV")
    p.add_argument("--frames", required=True, help="stream silhouette frame directory")
    p.add_argument("--phrases", help="phrase file for the lexicon (default: built-in corpus)")
    p.add_argument("--atlas", help="atlas directory (default: built-in)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--fallback", action="store_true",
                   help="fall back to the offline corrector on remote failure")
    p.add_argument("--stages", action="store_true", help="also write the 1 and 24 FPS stages")
    p.set_defaults(func=_cmd_translate)

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
    except (ValueError, OSError, KeyError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
