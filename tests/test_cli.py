import json
import signal

import pytest

from signpipe import cli, cnn, datagen, io

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


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


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


def test_synthesize_rejects_bad_text(tmp_path, capsys):
    code = cli.main(["synthesize", "--text", "HI!", "--out", str(tmp_path / "v")])
    assert code == 2
    assert "!" in capsys.readouterr().err


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
    def expire(signum, frame):
        raise TimeoutError(f"cli.main did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _corrupt_model(src, dst, mutate):
    meta, arrays = io.read_blocks(src)
    mutate(arrays)
    io.write_blocks(dst, meta, arrays)


def _set(name, index, value):
    return lambda arrays: arrays[name].__setitem__(index, value)


@pytest.mark.parametrize("which, mutate, message", [
    ("rfc", _set("right", 0, 0), "right child of node 0"),  # unchecked, predict cycles
    ("rfc", _set("feature", 0, 999), "feature index"),  # unchecked, an IndexError
    # unchecked, set_weights broadcasts the truncated array
    ("cnn", lambda a: a.__setitem__("param_000", a["param_000"][:1]), "param_000"),
    # unchecked, both translate to wrong text and exit 0
    ("rfc", _set("threshold", 0, float("nan")), "non-finite"),
    ("cnn", _set("param_000", 0, float("nan")), "finite"),
], ids=["forest-child-cycle", "forest-feature-range", "cnn-truncated-weight",
        "forest-nan-threshold", "cnn-nan-weight"])
def test_translate_corrupt_model_exits_2(workspace, tmp_path, capsys, which, mutate, message):
    bad = tmp_path / f"{which}.blk"
    _corrupt_model(workspace / f"{which}.blk", bad, mutate)
    argv = translate_args(workspace, tmp_path / "x")
    argv[argv.index(f"--{which}") + 1] = str(bad)
    assert _main_within(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("old, new", [
    (b'"dtype":"<f8"', b'"dtype":"<q8"'),  # a dtype numpy does not know
    (b'"dtype":"<f8"', b'"dtype":"<i0"'),
    (b'"name":"param_000"', b'"nome":"param_000"'),  # a header without a name
], ids=["unknown-dtype", "zero-size-dtype", "header-without-name"])
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


def test_translate_rejects_a_cnn_of_another_label_space(workspace, tmp_path, capsys):
    path = tmp_path / "five.blk"
    cnn.save_cnn(path, cnn.build_model(5, seed=0))
    argv = translate_args(workspace, tmp_path / "x")
    argv[argv.index("--cnn") + 1] = str(path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "label space" in err
