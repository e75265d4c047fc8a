import argparse
import json
import multiprocessing
import os
import shutil
import signal
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signpipe import cli, cnn, datagen, forest, io
from signpipe.labels import (
    CNN_CLASSES, CNN_INDEX, LETTERS, RFC_CLASSES, RFC_INDEX, SHARED_CLASSES, SHARED_INDEX,
)
from signpipe.landmarks import N_FEATURES
from signpipe.rng import substream

from conftest import MALFORMED_REPLIES

SMALL = [
    "--set", "datagen.landmark_per_class=12",
    "--set", "datagen.silhouette_per_class=8",
    "--set", "datagen.atlas_size=32",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Datasets plus trained small models, built through the CLI itself."""
    root = tmp_path_factory.mktemp("ws")
    data = root / "data"
    assert cli.main(["datagen", "--out", str(data), "--stream-text", "HI", *SMALL]) == 0
    assert cli.main([
        "train-rfc", "--data", str(data / "landmarks.csv"),
        "--model", str(root / "rfc.blk"), "--report", str(root / "rfc.json"),
        "--set", "rfc.n_estimators=30",
    ]) == 0
    assert cli.main([
        "train-cnn", "--data", str(data / "silhouettes"),
        "--model", str(root / "cnn.blk"), "--report", str(root / "cnn.json"),
        "--set", "cnn.max_epochs=2",
    ]) == 0
    return root


def test_usage_errors(capsys):
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["train-rfc"]) == 1  # missing required flags
    assert cli.main([]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    # a missing flag declared on a shared parent parser, named in the message
    assert cli.main(["eval", "--cnn", "c", "--landmarks", "l", "--silhouettes", "s",
                     "--report", "r"]) == 1
    assert "--rfc" in capsys.readouterr().err
    assert cli.main(["synthesize", "--text", "HI"]) == 1
    assert "--out" in capsys.readouterr().err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


# Every subcommand's options: option string -> (required, default, action). The
# shared flags are declared once on parent parsers; this pins what each command gets.
STORE, APPEND, FLAG = "store", "append", "store_true"
COMMON = {"--config": (False, None, STORE), "--set": (False, None, APPEND)}
OPTIONS = {
    "datagen": {**COMMON, "--out": (True, None, STORE), "--stream-text": (False, None, STORE)},
    "train-rfc": {**COMMON, "--data": (True, None, STORE), "--model": (True, None, STORE),
                  "--report": (True, None, STORE)},
    "train-cnn": {**COMMON, "--data": (True, None, STORE), "--model": (True, None, STORE),
                  "--report": (True, None, STORE)},
    "tune": {**COMMON, "--data": (True, None, STORE), "--report": (True, None, STORE)},
    "eval": {**COMMON, "--rfc": (True, None, STORE), "--cnn": (True, None, STORE),
             "--landmarks": (True, None, STORE), "--silhouettes": (True, None, STORE),
             "--report": (True, None, STORE)},
    "correct": {**COMMON, "--text": (True, None, STORE), "--phrases": (False, None, STORE),
                "--report": (False, None, STORE), "--fallback": (False, False, FLAG)},
    "synthesize": {**COMMON, "--text": (True, None, STORE), "--atlas": (False, None, STORE),
                   "--out": (True, None, STORE), "--stages": (False, False, FLAG)},
    "translate": {**COMMON, "--rfc": (True, None, STORE), "--cnn": (True, None, STORE),
                  "--landmarks": (True, None, STORE), "--frames": (True, None, STORE),
                  "--phrases": (False, None, STORE), "--atlas": (False, None, STORE),
                  "--out": (True, None, STORE), "--fallback": (False, False, FLAG),
                  "--stages": (False, False, FLAG)},
}


def test_every_subcommand_keeps_its_options():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(OPTIONS)
    action_names = {cls: name for name, cls in parser._registries["action"].items()
                    if isinstance(name, str)}
    for command, expected in OPTIONS.items():
        options = {}
        for action in sub.choices[command]._actions:
            if action.dest != "help":
                (flag,) = action.option_strings
                options[flag] = (action.required, action.default, action_names[type(action)])
        assert options == expected, command


def test_datagen_outputs(workspace):
    data = workspace / "data"
    assert (data / "landmarks.csv").exists()
    assert (data / "phrases.txt").exists()
    assert (data / "silhouettes" / "A" / "img_00000.pgm").exists()
    assert (data / "silhouettes" / "BLANK" / "img_00007.pgm").exists()
    assert (data / "atlas" / "Z.pgm").exists()
    assert (data / "atlas" / "SPACE.pgm").exists()
    assert (data / "stream_landmarks.csv").exists()
    assert (data / "stream_frames" / "frame_000000.pgm").exists()
    report = json.loads((data / "datagen_report.json").read_text())
    assert report["schema_version"] == 1
    assert report["landmark_samples"] == 12 * 28
    assert report["silhouette_samples"] == 8 * 27
    assert report["stream_text"] == "HI"


def test_datagen_deterministic(tmp_path):
    for name in ("a", "b"):
        assert cli.main(["datagen", "--out", str(tmp_path / name), *SMALL]) == 0
    for rel in ("landmarks.csv", "datagen_report.json", "silhouettes/C/img_00003.pgm"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_datagen_rerun_leaves_only_its_own_files(tmp_path):
    # a rerun over an earlier, larger one ends as the same run in a fresh directory
    def tree(root):
        return {p.relative_to(root): p.is_file() and p.read_bytes() for p in root.rglob("*")}

    larger = ["--stream-text", "HELLO THERE", "--set", "datagen.silhouette_per_class=6"]
    second = ["--set", "seed=4", "--set", "datagen.silhouette_per_class=2"]
    for rerun in (["--stream-text", "HI", *second], second):  # a stream, then none
        assert cli.main(["datagen", "--out", str(tmp_path / "d"), *SMALL, *larger]) == 0
        assert cli.main(["datagen", "--out", str(tmp_path / "d"), *SMALL, *rerun]) == 0
        fresh = tmp_path / f"fresh{len(rerun)}"
        assert cli.main(["datagen", "--out", str(fresh), *SMALL, *rerun]) == 0
        assert tree(tmp_path / "d") == tree(fresh)
    # a regular file where the stream frames would be is not the run's to clean up
    (tmp_path / "e").mkdir()
    (tmp_path / "e" / "stream_frames").write_bytes(b"not a stream\n")
    assert cli.main(["datagen", "--out", str(tmp_path / "e"), *SMALL, *second]) == 0
    rest = tree(tmp_path / "e")
    assert rest.pop(Path("stream_frames")) == b"not a stream\n"
    assert rest == tree(fresh)


def test_config_file_and_set_precedence(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("seed = 1\ndatagen.landmark_per_class = 12\n"
                   "datagen.silhouette_per_class = 8\ndatagen.atlas_size = 32\n")
    assert cli.main(["datagen", "--config", str(cfg), "--set", "seed=2",
                     "--out", str(tmp_path / "via_cfg")]) == 0
    assert cli.main(["datagen", "--set", "seed=2", "--out", str(tmp_path / "via_set"),
                     *SMALL]) == 0
    a = (tmp_path / "via_cfg" / "landmarks.csv").read_bytes()
    b = (tmp_path / "via_set" / "landmarks.csv").read_bytes()
    assert a == b  # --set overrode the file's seed


def test_train_rfc_report(workspace):
    report = json.loads((workspace / "rfc.json").read_text())
    assert report["schema_version"] == 1
    assert report["hyperparams"]["n_estimators"] == 30
    assert report["metrics"]["accuracy"] >= 0.9
    assert len(report["metrics"]["confusion"]) == 28


def test_train_cnn_report(workspace):
    report = json.loads((workspace / "cnn.json").read_text())
    assert report["schema_version"] == 1
    assert report["epochs_run"] == 2
    assert len(report["history"]["val_loss"]) == 2
    assert len(report["metrics"]["confusion"]) == 27


def test_train_cnn_epoch_peak_holds_one_float_copy_of_the_split(tmp_path):
    # 540 glyphs at batch 8: the traced peak is one step's caches and an
    # 8-frame validation pass beside the uint8 split (10.0 MB measured). A
    # float copy of the split would add 4.4 MB.
    data = tmp_path / "data"
    assert cli.main(["datagen", "--out", str(data), "--set", "datagen.landmark_per_class=1",
                     "--set", "datagen.silhouette_per_class=20",
                     "--set", "datagen.atlas_size=32"]) == 0
    tracemalloc.start()
    try:
        assert cli.main(["train-cnn", "--data", str(data / "silhouettes"),
                         "--model", str(tmp_path / "m.blk"), "--report", str(tmp_path / "r.json"),
                         "--set", "cnn.batch_size=8", "--set", "cnn.max_epochs=1"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 2**20


def test_train_rfc_bad_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(io.LANDMARK_CSV_HEADER + "\nA,0.5,0.5\n", encoding="ascii")
    code = cli.main(["train-rfc", "--data", str(bad),
                     "--model", str(tmp_path / "m.blk"),
                     "--report", str(tmp_path / "r.json")])
    assert code == 2
    assert ":2" in capsys.readouterr().err  # error cites the offending line


def test_train_rfc_rejects_foreign_labels(tmp_path, capsys):
    frames = datagen.synth_landmarks(
        datagen.LandmarkDatasetSpec(per_class=2, seed=0, classes=("A", "WAVE"))
    )
    path = tmp_path / "foreign.csv"
    io.write_landmark_csv(path, frames)
    code = cli.main(["train-rfc", "--data", str(path),
                     "--model", str(tmp_path / "m.blk"),
                     "--report", str(tmp_path / "r.json")])
    assert code == 2
    assert "WAVE" in capsys.readouterr().err


def test_train_rfc_on_too_few_rows_names_the_file_and_counts(tmp_path, capsys):
    frames = datagen.synth_landmarks(
        datagen.LandmarkDatasetSpec(per_class=1, seed=0, classes=("A", "B"))
    )
    path = tmp_path / "one.csv"
    io.write_landmark_csv(path, frames[:1])
    code = cli.main(["train-rfc", "--data", str(path), "--model", str(tmp_path / "m.blk"),
                     "--report", str(tmp_path / "r.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {path}: 1 landmark row(s) leave 0 for training after the 80/20 split, "
        "and the forest needs at least 5\n"
    )
    assert not (tmp_path / "m.blk").exists()


def test_train_cnn_on_one_image_names_the_directory_and_counts(tmp_path, capsys, workspace):
    data = tmp_path / "one"
    (data / "A").mkdir(parents=True)
    shutil.copy(workspace / "data" / "silhouettes" / "A" / "img_00000.pgm", data / "A")
    model, report = tmp_path / "m.blk", tmp_path / "r.json"
    code = cli.main(["train-cnn", "--data", str(data), "--model", str(model),
                     "--report", str(report)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {data}: 1 silhouette image(s) leave 0 for training after the 80/20 split\n"
    )
    assert not model.exists() and not report.exists()


@pytest.mark.parametrize("command, a_rows, b_rows, message", [
    ("tune", 3, 3, "6 landmark row(s) leave 4 for training in the smallest of 5 folds, "
                   "and the search needs at least 10"),
    ("tune", 1, 0, "1 landmark row(s) cannot fill 5 folds"),
    ("tune", 20, 0, "every landmark row is class A, and the forest needs at least 2 classes"),
    ("train-rfc", 10, 0, "every landmark row is class A, and the forest needs at least 2 classes"),
], ids=["tune-6-rows", "tune-1-row", "tune-one-class", "train-rfc-one-class"])
def test_small_or_one_class_csv_names_the_file(tmp_path, capsys, command, a_rows, b_rows, message):
    frames = datagen.synth_landmarks(
        datagen.LandmarkDatasetSpec(per_class=20, seed=0, classes=("A", "B"))
    )
    path = tmp_path / "small.csv"
    io.write_landmark_csv(path, frames[:a_rows] + frames[20 : 20 + b_rows])
    model, report = tmp_path / "m.blk", tmp_path / "r.json"
    argv = {
        "tune": ["tune", "--data", path, "--report", report, "--set", "rfc.cv_folds=5"],
        "train-rfc": ["train-rfc", "--data", path, "--model", model, "--report", report],
    }[command]
    assert cli.main([str(a) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not model.exists() and not report.exists()


@pytest.mark.parametrize("command, a_rows, message", [
    ("train-rfc", 10, "every training row of the 80/20 split is class A, "
                      "and the forest needs at least 2 classes"),
    ("tune", 19, "every training row of fold 1 of 2 is class A, "
                 "and the forest needs at least 2 classes"),
], ids=["train-rfc-split", "tune-fold"])
def test_one_class_split_or_fold_names_the_file(tmp_path, capsys, command, a_rows, message):
    # Two classes in the file, but the one B row falls outside a training part.
    frames = datagen.synth_landmarks(
        datagen.LandmarkDatasetSpec(per_class=20, seed=0, classes=("A", "B"))
    )
    path = tmp_path / "split.csv"
    io.write_landmark_csv(path, frames[:a_rows] + frames[20:21])
    model, report = tmp_path / "m.blk", tmp_path / "r.json"
    argv = {
        "tune": ["tune", "--data", path, "--report", report, "--set", "rfc.cv_folds=2"],
        "train-rfc": ["train-rfc", "--data", path, "--model", model, "--report", report],
    }[command]
    assert cli.main([str(a) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not model.exists() and not report.exists()


BAD_CSVS = {
    "non-ascii": (io.LANDMARK_CSV_HEADER + "\nA,0.5\n").encode() + b"B,\xff\n",
    "bad-header": b"label,x1,y1\nA,0.5,0.5\n",
    "short-row": (io.LANDMARK_CSV_HEADER + "\nA,0.5,0.5\n").encode(),
    "header-only": (io.LANDMARK_CSV_HEADER + "\n").encode(),
}


@pytest.mark.parametrize("defect", list(BAD_CSVS))
@pytest.mark.parametrize("command", ["train-rfc", "tune", "eval", "translate"])
def test_bad_landmark_csv_exits_2_naming_the_file(workspace, tmp_path, capsys, command, defect):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(BAD_CSVS[defect])
    out = tmp_path / "out"
    argv = {
        "train-rfc": ["train-rfc", "--data", bad, "--model", out, "--report", out],
        "tune": ["tune", "--data", bad, "--report", out],
        "eval": ["eval", "--rfc", workspace / "rfc.blk", "--cnn", workspace / "cnn.blk",
                 "--landmarks", bad, "--silhouettes", workspace / "data" / "silhouettes",
                 "--report", out],
        "translate": translate_args(workspace, out),
    }[command]
    if command == "translate":
        argv[argv.index("--landmarks") + 1] = bad
    assert _main_within([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:")
    assert "Traceback" not in err
    assert not out.exists()


BAD_PGMS = {
    "bad-magic": b"P2\n32 32\n255\n" + bytes(32 * 32),
    "truncated-pixels": b"P5\n32 32\n255\n" + bytes(32 * 32 - 1),
    "zero-size": b"P5\n0 0\n255\n",
    "wrong-size": b"P5\n31 32\n255\n" + bytes(31 * 32),
}


@pytest.mark.parametrize("defect", list(BAD_PGMS))
@pytest.mark.parametrize("command", ["train-cnn", "eval", "translate", "synthesize"])
def test_bad_pgm_exits_2_naming_the_file(workspace, tmp_path, capsys, command, defect):
    data = workspace / "data"
    out, model, report = tmp_path / "out", tmp_path / "m.blk", tmp_path / "r.json"
    if command in ("train-cnn", "eval"):
        inputs = tmp_path / "silhouettes"
        (inputs / "A").mkdir(parents=True)
        shutil.copy(data / "silhouettes" / "A" / "img_00000.pgm", inputs / "A")
        bad = inputs / "A" / "img_00001.pgm"
    else:
        source = data / ("stream_frames" if command == "translate" else "atlas")
        inputs = tmp_path / source.name
        shutil.copytree(source, inputs)
        bad = inputs / ("frame_000003.pgm" if command == "translate" else "B.pgm")
    bad.write_bytes(BAD_PGMS[defect])
    argv = {
        "train-cnn": ["train-cnn", "--data", inputs, "--model", model, "--report", report],
        "eval": ["eval", "--rfc", workspace / "rfc.blk", "--cnn", workspace / "cnn.blk",
                 "--landmarks", data / "landmarks.csv", "--silhouettes", inputs,
                 "--report", report],
        "translate": translate_args(workspace, out),
        "synthesize": ["synthesize", "--text", "AB", "--atlas", inputs, "--out", out],
    }[command]
    if command == "translate":
        argv[argv.index("--frames") + 1] = inputs
    assert _main_within([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:")
    assert "Traceback" not in err
    assert not out.exists() and not model.exists() and not report.exists()


def test_dead_forest_worker_exits_2(workspace, tmp_path, capsys, monkeypatch):
    parent, grow = os.getpid(), forest._grow_trees

    def grow_or_die(*args):
        if os.getpid() != parent:
            os._exit(1)
        return grow(*args)

    # The pool pickles the function by module and name; under the name it
    # replaces, the forked worker unpickles this hook from the patched module.
    grow_or_die.__module__, grow_or_die.__qualname__ = forest.__name__, "_grow_trees"
    monkeypatch.setattr(forest, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(forest, "_grow_trees", grow_or_die)
    model, report = tmp_path / "m.blk", tmp_path / "r.json"
    argv = ["train-rfc", "--data", workspace / "data" / "landmarks.csv",
            "--model", model, "--report", report, "--set", "rfc.n_estimators=4"]
    assert _main_within([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not model.exists() and not report.exists()
    assert multiprocessing.active_children() == []


def test_video_method_setting_exits_2(tmp_path, capsys):
    out = tmp_path / "v"
    assert cli.main(["synthesize", "--text", "HI", "--out", str(out),
                     "--set", "video.method=crossfade"]) == 2
    assert "unknown config key 'video.method'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, command", [
    ("datagen.spread", "datagen"),
    ("cnn.learning_rate", "train-cnn"),  # a NaN val_loss never improves: the init would be saved
    ("ensemble.w_rfc", "translate"),  # NaN passes EnsembleWeights' sign and sum checks
])
def test_non_finite_setting_exits_2(workspace, tmp_path, capsys, key, command, value):
    out, model, report = tmp_path / "out", tmp_path / "m.blk", tmp_path / "r.json"
    argv = {
        "datagen": ["datagen", "--out", out, *SMALL],
        "train-cnn": ["train-cnn", "--data", workspace / "data" / "silhouettes",
                      "--model", model, "--report", report],
        "translate": translate_args(workspace, out),
    }[command] + ["--set", f"{key}={value}"]
    assert _main_within([str(a) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: config {key}: expected a finite number, got {value!r}\n"
    assert not out.exists() and not model.exists() and not report.exists()


@pytest.mark.parametrize("extra, message", [
    (["--stream-text", "HI!"], "stream text must be uppercase letters and spaces"),
    (["--set", "datagen.atlas_size=-3"], "config datagen.atlas_size: expected an integer >= 1, got -3"),
    (["--set", "datagen.atlas_size=0"], "config datagen.atlas_size: expected an integer >= 1, got 0"),
    (["--set", "datagen.silhouette_per_class=0"],
     "config datagen.silhouette_per_class: expected an integer >= 1, got 0"),
], ids=["stream-text", "negative-atlas", "zero-atlas", "zero-glyphs"])
def test_datagen_checks_every_input_before_writing(tmp_path, capsys, extra, message):
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(["datagen", "--out", str(out), *SMALL, *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert list(out.iterdir()) == []


OUT_OF_RANGE = [
    ("datagen", "datagen.landmark_per_class=0", "an integer >= 1"),
    ("datagen", "datagen.silhouette_per_class=0", "an integer >= 1"),
    ("datagen", "datagen.spread=0", "a number > 0"),
    ("train-rfc", "rfc.n_estimators=0", "an integer >= 1"),
    ("train-rfc", "rfc.max_depth=0", "an integer >= 1"),
    ("train-rfc", "rfc.min_samples_split=1", "an integer >= 2"),
    ("train-rfc", "rfc.min_samples_leaf=0", "an integer >= 1"),
    ("tune", "rfc.cv_folds=1", "an integer >= 2"),
    ("train-cnn", "cnn.learning_rate=0", "a number > 0"),
    ("train-cnn", "cnn.batch_size=0", "an integer >= 1"),
    ("train-cnn", "cnn.max_epochs=0", "an integer >= 1"),
    ("train-cnn", "cnn.patience=0", "an integer >= 1"),
    ("translate", "ensemble.w_rfc=1.5", "a number in [0, 1]"),
    ("translate", "decode.k=0", "an integer >= 1"),
    ("correct", "remote.timeout_ms=0", "an integer >= 1"),
    ("correct", "remote.max_retries=-1", "an integer >= 0"),
    ("correct", "remote.backoff_ms=-1", "an integer >= 0"),
    # past the one-day cap: a socket timeout or sleep this long overflows the clock
    ("correct", "remote.timeout_ms=10000000000000", "an integer in [1, 86400000]"),
    ("correct", "remote.backoff_ms=100000000000000000000", "an integer in [0, 86400000]"),
]


@pytest.mark.parametrize("command, setting, expected", OUT_OF_RANGE,
                         ids=[setting.partition("=")[0] + ("-over-a-day" if "86400000]" in expected else "")
                              for _, setting, expected in OUT_OF_RANGE])
def test_out_of_range_setting_exits_2_naming_the_key(tmp_path, capsys, command, setting, expected):
    # The data paths do not exist: every setting is checked before data is read.
    missing, out = tmp_path / "missing", tmp_path / "out"
    argv = {
        "datagen": ["datagen", "--out", out],
        "train-rfc": ["train-rfc", "--data", missing, "--model", out, "--report", out],
        "tune": ["tune", "--data", missing, "--report", out],
        "train-cnn": ["train-cnn", "--data", missing, "--model", out, "--report", out],
        "translate": ["translate", "--rfc", missing, "--cnn", missing, "--landmarks", missing,
                      "--frames", missing, "--out", out],
        "correct": ["correct", "--text", "HI", "--set", "corrector=remote",
                    "--set", "remote.endpoint=http://127.0.0.1:9/c"],
    }[command] + ["--set", setting]
    assert cli.main([str(a) for a in argv]) == 2
    key, _, value = setting.partition("=")
    assert capsys.readouterr().err == f"error: config {key}: expected {expected}, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["synthesize", "translate"])
def test_atlas_size_below_1_exits_2(workspace, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = {
        "synthesize": ["synthesize", "--text", "AB", "--out", out],
        "translate": translate_args(workspace, out),
    }[command] + ["--set", "datagen.atlas_size=0"]
    assert _main_within([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err == "error: config datagen.atlas_size: expected an integer >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("under", ["", "clip"], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", ["datagen", "synthesize", "translate"])
def test_out_naming_a_file_exits_2_before_any_work(tmp_path, capsys, command, under):
    # translate's inputs do not exist: --out is checked before any of them is read.
    file, missing = tmp_path / "out.txt", tmp_path / "missing"
    file.write_bytes(b"not a clip\n")
    out = file / under  # the file itself where under is empty
    argv = {
        "datagen": ["datagen", "--out", out, *SMALL],
        "synthesize": ["synthesize", "--text", "HI", "--out", out],
        "translate": ["translate", "--rfc", missing, "--cnn", missing, "--landmarks", missing,
                      "--frames", missing, "--out", out],
    }[command]
    assert cli.main([str(a) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {file}: exists and is not a directory\n"
    assert file.read_bytes() == b"not a clip\n"


@pytest.mark.parametrize("fault", ["missing-parent", "parent-a-file", "a-directory"])
@pytest.mark.parametrize("command, flag", [
    ("train-rfc", "--model"), ("train-rfc", "--report"), ("train-cnn", "--model"),
    ("train-cnn", "--report"), ("tune", "--report"), ("eval", "--report"), ("correct", "--report"),
])
def test_bad_model_or_report_exits_2_before_any_work(workspace, tmp_path, capsys, monkeypatch,
                                                     command, flag, fault):
    def never(*args, **kwargs):
        raise AssertionError("work began before the outputs were checked")

    for owner, name in ((forest, "grid_search"), (forest, "train_forest"), (cnn, "train")):
        monkeypatch.setattr(owner, name, never)
    file, taken, missing = tmp_path / "file", tmp_path / "taken", tmp_path / "missing"
    file.write_bytes(b"not a directory\n")
    taken.mkdir()
    bad, message = {
        "missing-parent": (missing / "out", f"{missing / 'out'}: directory {missing} does not exist"),
        "parent-a-file": (file / "out", f"{file}: exists and is not a directory"),
        "a-directory": (taken, f"{taken}: is a directory"),
    }[fault]
    out = {"--model": tmp_path / "m.blk", "--report": tmp_path / "r.json", flag: bad}
    data = workspace / "data"
    argv = {
        "train-rfc": ["train-rfc", "--data", data / "landmarks.csv"],
        "train-cnn": ["train-cnn", "--data", data / "silhouettes"],
        "tune": ["tune", "--data", data / "landmarks.csv"],
        "eval": ["eval", "--rfc", workspace / "rfc.blk", "--cnn", workspace / "cnn.blk",
                 "--landmarks", data / "landmarks.csv", "--silhouettes", data / "silhouettes"],
        "correct": ["correct", "--text", "HELO"],
    }[command] + ["--report", out["--report"]]
    if command.startswith("train-"):
        argv += ["--model", out["--model"]]
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([str(a) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(tmp_path.rglob("*")) == before


def test_config_setting_a_key_twice_exits_2(tmp_path, capsys):
    cfg, out = tmp_path / "cfg", tmp_path / "data"
    cfg.write_text("seed = 1\nseed = 2\n", encoding="ascii")
    assert cli.main(["datagen", "--out", str(out), "--config", str(cfg), *SMALL]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: key 'seed' is already set on line 1\n"
    assert not out.exists()


COMMA_PHRASES = "good morning\nHELLO, WORLD\n"
UNSIGNABLE_COMMA = "{comma}:2: cannot sign characters [',']: only A-Z and space are signable"


@pytest.mark.parametrize("extra, message", [
    (["--set", "corrector=bogus"], "config corrector: expected offline or remote, got 'bogus'"),
    (["--set", "corrector=remote"], "corrector=remote requires remote.endpoint in the config"),
    (["--set", "datagen.atlas_size=0"], "config datagen.atlas_size: expected an integer >= 1, got 0"),
    (["--phrases", "{empty}"], "{empty}: no phrases"),
    (["--set", "corrector=remote", "--set", "remote.endpoint=http://127.0.0.1:9/c",
      "--fallback", "--phrases", "{empty}"], "{empty}: no phrases"),
    (["--atlas", "{missing}"], "{missing}: atlas frame A.pgm is missing"),
    (["--phrases", "{comma}"], UNSIGNABLE_COMMA),
    (["--set", "corrector=remote", "--set", "remote.endpoint=http://127.0.0.1:9/c",
      "--fallback", "--phrases", "{comma}"], UNSIGNABLE_COMMA),
], ids=["corrector", "remote-endpoint", "atlas-size", "phrases", "fallback-phrases", "atlas",
        "unsignable-phrase", "fallback-unsignable-phrase"])
def test_translate_checks_corrector_and_atlas_before_models(tmp_path, capsys, extra, message):
    # The model paths do not exist: these inputs are checked before a model is read.
    missing, empty, out = tmp_path / "missing", tmp_path / "empty.txt", tmp_path / "out"
    empty.write_text("", encoding="ascii")
    comma = tmp_path / "comma.txt"
    comma.write_text(COMMA_PHRASES, encoding="ascii")
    paths = {"empty": empty, "missing": missing, "comma": comma}
    argv = ["translate", "--rfc", missing, "--cnn", missing, "--landmarks", missing,
            "--frames", missing, "--out", out, *extra]
    assert cli.main([str(a).format(**paths) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
    assert not out.exists()


def test_correct_rejects_an_unsignable_phrase_line(tmp_path, capsys):
    comma = tmp_path / "comma.txt"
    comma.write_text(COMMA_PHRASES, encoding="ascii")
    assert cli.main(["correct", "--text", "HELO", "--phrases", str(comma)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {UNSIGNABLE_COMMA.format(comma=comma)}\n"
    assert captured.out == ""
    lower = tmp_path / "lower.txt"
    lower.write_text("hello world\n\tgood  morning \n", encoding="ascii")
    assert cli.main(["correct", "--text", "HELO", "--phrases", str(lower)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1. HELLO"


@pytest.mark.parametrize("content", [b"HELLO\n\xff\n", b"", b"\n  \n"],
                         ids=["bad-byte", "empty", "blank-lines"])
@pytest.mark.parametrize("flag", ["--config", "--phrases"])
def test_bad_text_input_exits_2_naming_the_file(tmp_path, capsys, flag, content):
    path = tmp_path / "input.txt"
    path.write_bytes(content)
    assert cli.main(["correct", "--text", "helo", flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}")
    assert "Traceback" not in err and err.count("\n") == 1


def test_train_cnn_bad_dir_exits_2(tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    code = cli.main(["train-cnn", "--data", str(empty),
                     "--model", str(tmp_path / "m.blk"),
                     "--report", str(tmp_path / "r.json")])
    assert code == 2


def test_tune_prints_full_grid(tmp_path, capsys):
    frames = datagen.synth_landmarks(
        datagen.LandmarkDatasetSpec(per_class=8, seed=2, classes=("A", "B", "C"))
    )
    path = tmp_path / "small.csv"
    io.write_landmark_csv(path, frames)
    code = cli.main(["tune", "--data", str(path), "--report", str(tmp_path / "t.json"),
                     "--set", "rfc.cv_folds=2"])
    assert code == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.startswith("n_estimators=")]
    assert len(rows) == 216  # the full search-space cross-product
    assert any(line.startswith("best:") for line in out.splitlines())
    report = json.loads((tmp_path / "t.json").read_text())
    assert len(report["rows"]) == 216
    assert set(report["best"]) == {
        "n_estimators", "max_depth", "min_samples_split", "min_samples_leaf", "bootstrap"
    }


def test_eval_report(workspace, tmp_path):
    report_path = tmp_path / "eval.json"
    code = cli.main([
        "eval", "--rfc", str(workspace / "rfc.blk"), "--cnn", str(workspace / "cnn.blk"),
        "--landmarks", str(workspace / "data" / "landmarks.csv"),
        "--silhouettes", str(workspace / "data" / "silhouettes"),
        "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    ens = report["ensemble"]
    assert ens["accuracy"] >= max(ens["rfc_only_accuracy"], ens["cnn_only_accuracy"])
    assert len(ens["grid_accuracies"]) == 21
    assert ens["w_rfc"] + ens["w_cnn"] == pytest.approx(1.0)
    assert report["rfc"]["accuracy"] >= 0.9


def test_eval_mismatched_label_space_exits_2(workspace, tmp_path, capsys):
    frames = datagen.synth_landmarks(
        datagen.LandmarkDatasetSpec(per_class=10, seed=3, classes=("A", "B", "C"))
    )
    path = tmp_path / "abc.csv"
    io.write_landmark_csv(path, frames)
    assert cli.main(["train-rfc", "--data", str(path),
                     "--model", str(tmp_path / "abc.blk"),
                     "--report", str(tmp_path / "abc.json"),
                     "--set", "rfc.n_estimators=5"]) == 0
    code = cli.main([
        "eval", "--rfc", str(tmp_path / "abc.blk"), "--cnn", str(workspace / "cnn.blk"),
        "--landmarks", str(workspace / "data" / "landmarks.csv"),
        "--silhouettes", str(workspace / "data" / "silhouettes"),
        "--report", str(tmp_path / "e.json"),
    ])
    assert code == 2
    assert "label space" in capsys.readouterr().err


def test_eval_without_a_shared_pair_exits_2_before_predicting(workspace, tmp_path, capsys,
                                                               monkeypatch):
    # A landmark rows only and B silhouettes only: no held-out pair shares a class
    frames = io.read_landmark_csv(workspace / "data" / "landmarks.csv")
    landmarks = tmp_path / "a.csv"
    io.write_landmark_csv(landmarks, [f for f in frames if f.label == "A"])
    silhouettes = tmp_path / "sil"
    shutil.copytree(workspace / "data" / "silhouettes" / "B", silhouettes / "B")

    def no_predict(*args):
        raise AssertionError("predicted before the pairing was checked")

    for module, name in [(forest, "predict_proba"), (forest, "predict_class"),
                         (cnn, "predict_proba"), (cnn, "predict")]:
        monkeypatch.setattr(module, name, no_predict)
    report = tmp_path / "e.json"
    code = cli.main([
        "eval", "--rfc", str(workspace / "rfc.blk"), "--cnn", str(workspace / "cnn.blk"),
        "--landmarks", str(landmarks), "--silhouettes", str(silhouettes), "--report", str(report),
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {landmarks}, {silhouettes}: no held-out landmark row pairs with a held-out "
        "silhouette, so there is no ensemble to evaluate\n"
    )
    assert not report.exists()


def reference_ensemble_pairs(rfc_model, cnn_model, X_lm, y_lm, te_lm, X_sil, y_sil, te_sil, seed):
    """cli._ensemble_pairs as per-index loops, kept as an oracle."""
    lm_rows, sil_imgs, y_shared = [], [], []
    black = np.zeros(X_sil.shape[1:], dtype=np.uint8)
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
    p_cnn = cnn.predict_proba(cnn_model, np.stack(sil_imgs)[..., None])  # uint8 frames
    return p_rfc, p_cnn, np.array(y_shared, dtype=np.int64)


def assert_same_pairs(lm_labels, sil_labels, lm_test, sil_test, seed):
    """Both pairings feed the heads the same rows: the heads are stubbed to
    return their input, so the arrays compared are the paired inputs."""
    r = substream(seed, "pairs")
    args = (None, None, r.uniform(0.0, 1.0, (len(lm_labels), N_FEATURES)),
            np.array(lm_labels, dtype=np.int64), np.array(lm_test, dtype=np.int64),
            r.integers(0, 256, (len(sil_labels), 4, 4)).astype(np.uint8),
            np.array(sil_labels, dtype=np.int64), np.array(sil_test, dtype=np.int64), seed)
    with mock.patch.object(forest, "predict_proba", lambda model, X: X), \
            mock.patch.object(cnn, "predict_proba", lambda model, X: X):
        try:
            want = reference_ensemble_pairs(*args)
        except ValueError:  # no pair at all, so np.stack had nothing to stack
            with pytest.raises(ValueError, match="^eval: no held-out landmark row pairs"):
                cli._ensemble_pairs(*args)
            return
        got = cli._ensemble_pairs(*args)
    for g, w in zip(got, want, strict=True):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


# Landmark labels index RFC_CLASSES and silhouette labels CNN_CLASSES.
A, B, SPACE, DELETE = (RFC_INDEX[c] for c in ("A", "B", "SPACE", "DELETE"))
BLANK = CNN_INDEX["BLANK"]


@pytest.mark.parametrize("lm_labels, sil_labels", [
    # A: 4 landmark test rows, 2 silhouette test rows; B: the other way round
    ([A, B, A, SPACE, A, DELETE, A, B], [B, A, BLANK, A, B, BLANK, B]),
    # no BLANK silhouettes at all, so no noise rows are drawn
    ([A, SPACE, B, DELETE, A], [A, B, A]),
], ids=["uneven-classes", "no-blank"])
def test_ensemble_pairs_match_reference(lm_labels, sil_labels):
    lm_test = list(reversed(range(len(lm_labels))))
    sil_test = list(reversed(range(len(sil_labels))))
    assert_same_pairs(lm_labels, sil_labels, lm_test, sil_test, seed=5)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_ensemble_pairs_match_reference_drawn(data):
    lm_labels = data.draw(st.lists(st.integers(0, len(RFC_CLASSES) - 1), max_size=30))
    sil_labels = data.draw(st.lists(st.integers(0, len(CNN_CLASSES) - 1), max_size=30))
    lm_test = data.draw(st.permutations(range(len(lm_labels))))
    sil_test = data.draw(st.permutations(range(len(sil_labels))))
    lm_cut = data.draw(st.integers(0, len(lm_labels)))
    sil_cut = data.draw(st.integers(0, len(sil_labels)))
    assert_same_pairs(lm_labels, sil_labels, lm_test[:lm_cut], sil_test[:sil_cut],
                      seed=data.draw(st.integers(0, 2**31)))


UNSIGNABLE_TEXT = "error: --text: cannot sign characters {bad}: only A-Z and space are signable\n"
# Non-ASCII text that str.upper turns into letters: ß -> SS, ﬁ -> FI, ı -> I, ſ -> S;
# and non-ASCII spaces, which str.split takes as word breaks.
NON_ASCII_TEXTS = {"sharp-s": ("straße", "['ß']"), "fi-ligature": ("ﬁsh", "['ﬁ']"),
                   "dotless-i": ("ıt", "['ı']"), "long-s": ("ſee you ſoon", "['ſ']"),
                   "no-break-space": ("HELLO\u00a0WORLD", r"['\xa0']"),
                   "ideographic-space": ("HELLO\u3000WORLD", r"['\u3000']")}
REMOTE_FALLBACK = ["--fallback", "--set", "corrector=remote",
                   "--set", "remote.endpoint=http://127.0.0.1:9/c",
                   "--set", "remote.timeout_ms=100", "--set", "remote.max_retries=0"]


@pytest.mark.parametrize("extra, text, bad", [
    pytest.param(extra, *case, id=f"{mode}-{name}" if name else mode)
    for name, case in [(None, ("HELO 2 YOU!", "['!', '2']")), *NON_ASCII_TEXTS.items()]
    for mode, extra in [("offline", []), ("remote-fallback", REMOTE_FALLBACK)]
])
def test_correct_rejects_unsignable_text(tmp_path, capsys, extra, text, bad):
    report = tmp_path / "c.json"
    assert cli.main(["correct", "--text", text, "--report", str(report), *extra]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", UNSIGNABLE_TEXT.format(bad=bad))
    assert not report.exists()


def test_correct_offline(tmp_path, capsys):
    report_path = tmp_path / "c.json"
    code = cli.main(["correct", "--text", "TOY BOK", "--report", str(report_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("1. ")
    report = json.loads(report_path.read_text())
    assert len(report["candidates"]) == 3
    assert "TOY BOOK" in report["candidates"]
    assert report["source"] == "offline"


def test_correct_custom_phrase_file(tmp_path):
    phrases = tmp_path / "p.txt"
    phrases.write_text("RED CAR\nBLUE CAR\n", encoding="ascii")
    report_path = tmp_path / "c.json"
    assert cli.main(["correct", "--text", "RED CAT", "--phrases", str(phrases),
                     "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["candidates"][0] == "RED CAR"


def test_correct_remote_unreachable_exits_3(capsys):
    code = cli.main(["correct", "--text", "HI THERE",
                     "--set", "corrector=remote",
                     "--set", "remote.endpoint=http://127.0.0.1:9/c",
                     "--set", "remote.timeout_ms=100",
                     "--set", "remote.max_retries=0"])
    assert code == 3
    assert "remote corrector error" in capsys.readouterr().err


def test_correct_remote_fallback(tmp_path):
    report_path = tmp_path / "c.json"
    code = cli.main(["correct", "--text", "TOY BOK", "--fallback",
                     "--report", str(report_path),
                     "--set", "corrector=remote",
                     "--set", "remote.endpoint=http://127.0.0.1:9/c",
                     "--set", "remote.timeout_ms=100",
                     "--set", "remote.max_retries=0"])
    assert code == 0
    assert json.loads(report_path.read_text())["source"] == "offline"


@pytest.mark.parametrize("reply", sorted(MALFORMED_REPLIES))
@pytest.mark.parametrize("fallback", [False, True], ids=["no-fallback", "fallback"])
def test_correct_malformed_remote_reply(capsys, raw_server, reply, fallback):
    url, srv = raw_server
    srv.reply = MALFORMED_REPLIES[reply]
    argv = ["correct", "--text", "TOY BOK", "--set", "corrector=remote",
            "--set", f"remote.endpoint={url}", "--set", "remote.max_retries=0"]
    code = cli.main(argv + ["--fallback"] if fallback else argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if fallback:
        assert cli.main(["correct", "--text", "TOY BOK"]) == 0
        assert (code, out, err) == (0, capsys.readouterr().out, "")
    else:
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("remote corrector error: ")


def test_correct_remote_without_endpoint_exits_2():
    assert cli.main(["correct", "--text", "HI", "--set", "corrector=remote"]) == 2


def test_synthesize(tmp_path):
    out = tmp_path / "video"
    code = cli.main(["synthesize", "--text", "HI", "--out", str(out),
                     "--stages", "--set", "datagen.atlas_size=32"])
    assert code == 0
    assert len(list((out / "frames60").glob("*.pgm"))) == 120
    assert len(list((out / "frames24").glob("*.pgm"))) == 48
    assert len(list((out / "frames1").glob("*.pgm"))) == 2
    report = json.loads((out / "synthesize_report.json").read_text())
    assert report["video"]["frames_60fps"] == 120
    manifest = json.loads((out / "frames60" / "manifest.json").read_text())
    assert manifest["frame_count"] == 120


def test_synthesize_rerun_without_stages_leaves_no_stage_clips(tmp_path):
    # a rerun without --stages over a --stages run ends as the same run in a
    # fresh directory; a stage directory holding something else is kept
    def tree(root):
        return {p.relative_to(root): p.is_file() and p.read_bytes() for p in root.rglob("*")}

    atlas = ["--set", "datagen.atlas_size=32"]
    d, fresh = tmp_path / "d", tmp_path / "fresh"
    assert cli.main(["synthesize", "--text", "HELLO", "--out", str(d), "--stages", *atlas]) == 0
    assert cli.main(["synthesize", "--text", "HI", "--out", str(d), *atlas]) == 0
    assert cli.main(["synthesize", "--text", "HI", "--out", str(fresh), *atlas]) == 0
    assert tree(d) == tree(fresh)
    assert cli.main(["synthesize", "--text", "HELLO", "--out", str(d), "--stages", *atlas]) == 0
    (d / "frames1" / "notes.txt").write_text("mine\n")
    assert cli.main(["synthesize", "--text", "HI", "--out", str(d), *atlas]) == 0
    assert sorted(p.name for p in (d / "frames1").iterdir()) == ["notes.txt"]
    assert not (d / "frames24").exists()
    # nor is a regular file where a stage clip would be
    (tmp_path / "e").mkdir()
    (tmp_path / "e" / "frames1").write_bytes(b"not a clip\n")
    assert cli.main(["synthesize", "--text", "HI", "--out", str(tmp_path / "e"), *atlas]) == 0
    rest = tree(tmp_path / "e")
    assert rest.pop(Path("frames1")) == b"not a clip\n"
    assert rest == tree(fresh)


def test_synthesize_rejects_bad_text(tmp_path, capsys):
    code = cli.main(["synthesize", "--text", "HI!", "--out", str(tmp_path / "v")])
    assert code == 2
    assert "!" in capsys.readouterr().err


@pytest.mark.parametrize("text, bad", NON_ASCII_TEXTS.values(), ids=NON_ASCII_TEXTS.keys())
@pytest.mark.parametrize("command", ["synthesize", "datagen"])
def test_non_ascii_text_is_not_signed_as_letters(tmp_path, capsys, command, text, bad):
    out = tmp_path / "out"
    argv, message = {
        "synthesize": (["synthesize", "--text", text],
                       f"cannot render characters {bad}: only A-Z and space are signable"),
        "datagen": (["datagen", "--stream-text", text, *SMALL],
                    f"stream text must be uppercase letters and spaces, got {bad}"),
    }[command]
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("shape_a, shape_b, message", [
    ((16, 32), (16, 32), "A.pgm: atlas frame is 32x16; frames must be square"),
    ((16, 16), (16, 32), "B.pgm: atlas frame is 32x16, A.pgm is 16x16"),
], ids=["oblong", "unequal"])
def test_atlas_of_bad_shapes_exits_2(tmp_path, capsys, shape_a, shape_b, message):
    atlas, out = tmp_path / "atlas", tmp_path / "out"
    atlas.mkdir()
    for name in LETTERS + ("SPACE",):
        io.write_pgm(atlas / f"{name}.pgm", np.zeros(shape_a if name == "A" else shape_b, np.uint8))
    assert cli.main(["synthesize", "--text", "AB", "--atlas", str(atlas), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {atlas}/{message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "   "], ids=["empty", "spaces"])
@pytest.mark.parametrize("command", ["correct", "synthesize"])
def test_empty_text_exits_2(tmp_path, capsys, command, text):
    out = tmp_path / "out"
    extra = ["--out", str(out)] if command == "synthesize" else ["--report", str(out)]
    assert cli.main([command, "--text", text, *extra]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: cannot {command} empty text\n")
    assert not out.exists()


def translate_args(workspace, out):
    return [
        "translate",
        "--rfc", str(workspace / "rfc.blk"), "--cnn", str(workspace / "cnn.blk"),
        "--landmarks", str(workspace / "data" / "stream_landmarks.csv"),
        "--frames", str(workspace / "data" / "stream_frames"),
        "--out", str(out), "--set", "datagen.atlas_size=32",
    ]


def test_translate_end_to_end(workspace, tmp_path):
    out = tmp_path / "xlat"
    assert cli.main(translate_args(workspace, out)) == 0
    report = json.loads((out / "translate_report.json").read_text())
    assert report["raw_text"] == "HI"  # the stream fixture signs HI
    assert len(report["candidates"]) == 3
    assert report["chosen"] == report["candidates"][0]
    n = len(report["chosen"])
    assert report["video"]["frames_60fps"] == 60 * n
    assert len(list((out / "frames60").glob("*.pgm"))) == 60 * n


@pytest.mark.parametrize("fallback", [False, True], ids=["no-fallback", "fallback"])
def test_translate_unsignable_remote_candidate(workspace, tmp_path, capsys, server, fallback):
    url, handler = server
    handler.script.append({"status": 200, "body": json.dumps(["HELLO 2 YOU!", "HI", "HEY"])})
    out = tmp_path / "xlat"
    argv = translate_args(workspace, out) + ["--set", "corrector=remote",
                                             "--set", f"remote.endpoint={url}"]
    code = cli.main(argv + ["--fallback"] if fallback else argv)
    err = capsys.readouterr().err
    if fallback:
        assert code == 0 and err == ""
        report = json.loads((out / "translate_report.json").read_text())
        assert report["corrector_source"] == "offline"
        assert report["raw_text"] == "HI"
    else:
        assert code == 3
        assert err.startswith("remote corrector error: unsignable characters ['!', '2']")
        assert not out.exists()
    assert len(handler.seen) == 1


def test_translate_deterministic(workspace, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(translate_args(workspace, out_a)) == 0
    assert cli.main(translate_args(workspace, out_b)) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_translate_equals_stage_composition(workspace, tmp_path):
    """translate == decode -> correct -> synthesize run as separate commands."""
    out = tmp_path / "xlat"
    assert cli.main(translate_args(workspace, out)) == 0
    report = json.loads((out / "translate_report.json").read_text())

    correct_report = tmp_path / "c.json"
    assert cli.main(["correct", "--text", report["raw_text"],
                     "--report", str(correct_report)]) == 0
    assert json.loads(correct_report.read_text())["candidates"] == report["candidates"]

    synth_out = tmp_path / "video"
    assert cli.main(["synthesize", "--text", report["chosen"], "--out", str(synth_out),
                     "--set", "datagen.atlas_size=32"]) == 0
    a = sorted((out / "frames60").glob("*.pgm"))
    b = sorted((synth_out / "frames60").glob("*.pgm"))
    assert [p.name for p in a] == [p.name for p in b]
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()
    assert (out / "frames60" / "manifest.json").read_bytes() == \
        (synth_out / "frames60" / "manifest.json").read_bytes()


def test_translate_length_mismatch_exits_2(workspace, tmp_path, capsys):
    frames_dir = tmp_path / "frames"
    frames_dir.mkdir()
    src = sorted((workspace / "data" / "stream_frames").glob("*.pgm"))[:-1]
    for p in src:
        (frames_dir / p.name).write_bytes(p.read_bytes())
    code = cli.main([
        "translate",
        "--rfc", str(workspace / "rfc.blk"), "--cnn", str(workspace / "cnn.blk"),
        "--landmarks", str(workspace / "data" / "stream_landmarks.csv"),
        "--frames", str(frames_dir),
        "--out", str(tmp_path / "x"), "--set", "datagen.atlas_size=32",
    ])
    assert code == 2
    assert "mismatch" in capsys.readouterr().err


def _main_within(argv, seconds=30):
    """cli.main, failing the test instead of hanging when it does not return."""
    def expire(signum, frame):  # pytest.fail, since cli.main turns a TimeoutError into exit 2
        pytest.fail(f"cli.main did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _corrupt_model(src, dst, mutate):
    meta, arrays = io.read_blocks(src)
    mutate(meta, arrays)
    io.write_blocks(dst, meta, arrays)


def _set(name, index, value):
    return lambda meta, arrays: arrays[name].__setitem__(index, value)


def _set_first_leaf(name, value):
    """Sets array name at the forest's first leaf to value(leaf index)."""
    def mutate(meta, arrays):
        leaf = int(np.flatnonzero(arrays["feature"] < 0)[0])
        arrays[name][leaf] = value(leaf)
    return mutate


def _one_class_cnn(num_classes):
    """A cnn whose output layer has one class, with num_classes in its meta:
    its arrays pass the shape check, so only the count itself can be refused."""
    def mutate(meta, arrays):
        meta["num_classes"] = num_classes
        arrays["param_008"], arrays["param_009"] = arrays["param_008"][:, :1], arrays["param_009"][:1]
    return mutate


@pytest.mark.parametrize("which, mutate, message", [
    ("rfc", _set("right", 0, 0), "right child of node 0"),  # unchecked, predict cycles
    ("rfc", _set("feature", 0, 999), "feature index"),  # unchecked, an IndexError
    # unchecked, set_weights broadcasts the truncated array
    ("cnn", lambda m, a: a.__setitem__("param_000", a["param_000"][:1]), "param_000"),
    # unchecked, both translate to wrong text and exit 0
    ("rfc", _set("threshold", 0, float("nan")), "non-finite"),
    ("cnn", _set("param_000", 0, float("nan")), "finite"),
    # unchecked, both exit 0: a leaf that passes its rows on to the next node,
    ("rfc", _set_first_leaf("right", lambda leaf: leaf + 1), "not its own right child"),
    # or sends those at or below 0 back to an earlier node
    ("rfc", _set_first_leaf("threshold", lambda leaf: 0.0), "with a NaN threshold"),
    # the earlier layout, with a left array and -1 children on leaves
    ("rfc", lambda m, a: m.__setitem__("schema", "forest/2"), "schema 'forest/2'"),
    # refused only when the model is built, without the file's name
    ("cnn", _one_class_cnn(1), "num_classes must be an integer >= 2, got 1"),
    ("cnn", _one_class_cnn(True), "num_classes must be an integer >= 2, got True"),
], ids=["forest-child-cycle", "forest-feature-range", "cnn-truncated-weight",
        "forest-nan-threshold", "cnn-nan-weight", "forest-leaf-moves", "forest-leaf-threshold",
        "forest-v2-schema", "cnn-one-class", "cnn-true-classes"])
def test_translate_corrupt_model_exits_2(workspace, tmp_path, capsys, which, mutate, message):
    bad = tmp_path / f"{which}.blk"
    _corrupt_model(workspace / f"{which}.blk", bad, mutate)
    argv = translate_args(workspace, tmp_path / "x")
    argv[argv.index(f"--{which}") + 1] = str(bad)
    assert _main_within(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert str(bad) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("old, new", [
    (b'"dtype":"<f8"', b'"dtype":"<q8"'),  # a dtype numpy does not know
    (b'"dtype":"<f8"', b'"dtype":"<i0"'),
    (b'"dtype":"<f8"', b'"dtype":"<04"'),  # numpy evaluates the repeat count: a SyntaxError
    (b'"name":"param_000"', b'"nome":"param_000"'),  # a header without a name
], ids=["unknown-dtype", "zero-size-dtype", "leading-zero-count", "header-without-name"])
def test_translate_byte_corrupted_cnn_exits_2(workspace, tmp_path, capsys, old, new):
    bad = tmp_path / "cnn.blk"
    data = (workspace / "cnn.blk").read_bytes()
    assert old in data
    bad.write_bytes(data.replace(old, new, 1))
    argv = translate_args(workspace, tmp_path / "x")
    argv[argv.index("--cnn") + 1] = str(bad)
    assert _main_within(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "Traceback" not in err


def _eval_with_a_cnn_claiming_1e13_classes(workspace, tmp_path):
    bad = tmp_path / "cnn.blk"
    meta, arrays = io.read_blocks(workspace / "cnn.blk")
    io.write_blocks(bad, {**meta, "num_classes": 10**13}, arrays)
    return ["eval", "--rfc", workspace / "rfc.blk", "--cnn", bad,
            "--landmarks", workspace / "data" / "landmarks.csv",
            "--silhouettes", workspace / "data" / "silhouettes", "--report", tmp_path / "r.json"]


# Each size asks for hundreds of terabytes or more, which the allocator refuses at once.
@pytest.mark.parametrize("argv, message", [
    (_eval_with_a_cnn_claiming_1e13_classes,
     "param_008 has shape (128, 27) and dtype float64, expected (128, 10000000000000)"),
    (lambda ws, tmp: ["synthesize", "--text", "A", "--out", tmp / "out",
                      "--set", "datagen.atlas_size=10000000"], "Unable to allocate"),
], ids=["cnn-num-classes", "atlas-size"])
def test_oversized_count_exits_2_in_one_line(workspace, tmp_path, capsys, argv, message):
    assert cli.main([str(a) for a in argv(workspace, tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_translate_rejects_a_cnn_of_another_label_space(workspace, tmp_path, capsys):
    path = tmp_path / "five.blk"
    cnn.save_cnn(path, cnn.build_model(5, seed=0))
    argv = translate_args(workspace, tmp_path / "x")
    argv[argv.index("--cnn") + 1] = str(path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "label space" in err
