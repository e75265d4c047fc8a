import pytest

from signpipe import cli, cnn, config, datagen, ensemble, forest, textcorrect, videosynth


def test_defaults_load_without_file():
    cfg = config.load_config(None)
    assert cfg["seed"] == "0"
    assert cfg["rfc.n_estimators"] == "200"
    assert cfg["corrector"] == "offline"


def test_file_overlays_defaults(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("# comment line\nseed = 7\ncnn.max_epochs = 3\n", encoding="ascii")
    cfg = config.load_config(path)
    assert cfg["seed"] == "7"
    assert cfg["cnn.max_epochs"] == "3"
    assert cfg["rfc.n_estimators"] == "200"  # untouched default


def test_unknown_key_cites_line(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("seed = 1\nnot.a.key = 2\n", encoding="ascii")
    with pytest.raises(ValueError, match=r":2"):
        config.load_config(path)


def test_malformed_line_cites_line(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("seed 1\n", encoding="ascii")
    with pytest.raises(ValueError, match=r":1"):
        config.load_config(path)


def test_overrides():
    cfg = config.load_config(None)
    out = config.apply_overrides(cfg, ["seed=9", "ensemble.w_rfc=0.8"])
    assert out["seed"] == "9"
    assert out["ensemble.w_rfc"] == "0.8"
    assert cfg["seed"] == "0"  # original untouched
    with pytest.raises(ValueError):
        config.apply_overrides(cfg, ["nope=1"])
    with pytest.raises(ValueError):
        config.apply_overrides(cfg, ["seed"])


def test_typed_getters():
    cfg = config.load_config(None)
    assert config.get_int(cfg, "seed") == 0
    assert config.get_float(cfg, "ensemble.w_rfc") == 0.6
    assert config.get_bool(cfg, "rfc.bootstrap") is True
    assert config.get_optional_int(cfg, "rfc.max_depth") == 20
    cfg2 = config.apply_overrides(cfg, ["rfc.max_depth=none"])
    assert config.get_optional_int(cfg2, "rfc.max_depth") is None


def test_typed_getter_errors():
    cfg = config.apply_overrides(config.load_config(None), ["seed=abc"])
    with pytest.raises(ValueError):
        config.get_int(cfg, "seed")
    cfg = config.apply_overrides(config.load_config(None), ["rfc.bootstrap=maybe"])
    with pytest.raises(ValueError):
        config.get_bool(cfg, "rfc.bootstrap")


def test_documented_keys_cover_pipeline():
    cfg = config.load_config(None)
    for key in (
        "seed",
        "datagen.landmark_per_class",
        "datagen.silhouette_per_class",
        "datagen.spread",
        "datagen.atlas_size",
        "rfc.n_estimators",
        "rfc.max_depth",
        "rfc.min_samples_split",
        "rfc.min_samples_leaf",
        "rfc.bootstrap",
        "rfc.cv_folds",
        "cnn.learning_rate",
        "cnn.batch_size",
        "cnn.max_epochs",
        "cnn.patience",
        "ensemble.w_rfc",
        "decode.k",
        "corrector",
        "remote.endpoint",
        "remote.token_env",
        "remote.timeout_ms",
        "remote.max_retries",
        "remote.backoff_ms",
    ):
        assert key in cfg, key


def test_error_texts(tmp_path):
    # video.method is no key: flow is the only interpolation
    path = tmp_path / "cfg"
    cases = [
        ("seed 1\n", f"{path}:1: expected 'key = value', got 'seed 1'"),
        ("# c\n\nnope = 2\n", f"{path}:3: unknown config key 'nope'"),
        ("seed = 1\nvideo.method = flow\n", f"{path}:2: unknown config key 'video.method'"),
    ]
    for text, message in cases:
        path.write_text(text, encoding="ascii")
        with pytest.raises(ValueError) as exc:
            config.load_config(path)
        assert str(exc.value) == message
    cfg = config.load_config(None)
    for item, message in [("seed", "--set expects key=value, got 'seed'"),
                          (" nope = 1", "--set: unknown config key 'nope'"),
                          ("video.method=flow", "--set: unknown config key 'video.method'")]:
        with pytest.raises(ValueError) as exc:
            config.apply_overrides(cfg, [item])
        assert str(exc.value) == message


def test_dataclass_defaults_equal_config_defaults():
    """Each dataclass default is the config default as the CLI maps it."""
    cfg = config.load_config(None)
    assert cli._forest_hp(cfg) == forest.ForestHyperparams()
    train = cnn.TrainConfig()
    assert train.learning_rate == config.get_float(cfg, "cnn.learning_rate")
    assert train.batch_size == config.get_int(cfg, "cnn.batch_size")
    assert train.max_epochs == config.get_int(cfg, "cnn.max_epochs")
    assert train.patience == config.get_int(cfg, "cnn.patience")
    assert train.seed == config.get_int(cfg, "seed")
    assert ensemble.StreamDecodeConfig().k == config.get_int(cfg, "decode.k")
    remote = cli._remote_cfg(config.apply_overrides(cfg, ["remote.endpoint=http://x"]))
    assert remote == textcorrect.RemoteCorrectorConfig(endpoint="http://x")
    landmarks = datagen.LandmarkDatasetSpec()
    assert landmarks.per_class == config.get_int(cfg, "datagen.landmark_per_class")
    assert landmarks.spread == config.get_float(cfg, "datagen.spread")
    assert datagen.StreamSpec(text="A").spread == config.get_float(cfg, "datagen.spread")
    assert datagen.SilhouetteDatasetSpec().per_class == config.get_int(
        cfg, "datagen.silhouette_per_class")
    assert videosynth.ATLAS_SIZE == config.get_int(cfg, "datagen.atlas_size")
