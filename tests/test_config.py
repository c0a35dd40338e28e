"""Engine configuration files."""
import pytest

from memalign.config import (
    ConfigError,
    EngineConfig,
    default_config_text,
    load_config,
)


def test_defaults():
    cfg = EngineConfig()
    assert cfg.seed == 42
    assert cfg.align.batch_size == 32
    assert cfg.align.tau == 0.07
    assert cfg.align.mse_weight == 0.1
    assert cfg.distill.kl_weight == 0.5
    assert cfg.distill.kl_temperature == 2.0
    assert cfg.distill.ce_weight == 1.0
    assert [p.name for p in cfg.paradigms] == [
        "anchor-graph",
        "explicit-sim",
        "parametric-sim",
        "latent-sim",
    ]


def test_default_text_round_trips(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text(default_config_text(), encoding="utf-8")
    cfg = load_config(path)
    base = EngineConfig()
    assert cfg.seed == base.seed
    assert cfg.align == base.align
    assert cfg.distill == base.distill
    assert cfg.paradigms == base.paradigms


def test_hyperparameter_keys_verbatim():
    text = default_config_text()
    for key in (
        "Contrastive (InfoNCE) temperature = 0.07",
        "MSE loss (optional) = 0.1",
        "KL weight = 0.5",
        "KL temperature = 2.0",
        "CE weight = 1.0",
        "Per-device batch size = 4",
        "Warmup ratio = 0.1",
    ):
        assert key in text, key


def test_overrides_applied(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text(
        "[engine]\nseed = 7\nd_m = 32\n\n"
        "[alignment]\nEpochs = 3\nBatch size = 8\n\n"
        "[distillation]\nKL weight = 0.25\n"
    )
    cfg = load_config(path)
    assert cfg.seed == 7
    assert cfg.d_m == 32
    assert cfg.align.epochs == 3
    assert cfg.align.batch_size == 8
    assert cfg.distill.kl_weight == 0.25
    # untouched values stay at defaults
    assert cfg.align.tau == 0.07


def test_paradigm_section(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("[paradigms]\nanchor-graph = 32 5\ncustom = 16 9\n")
    cfg = load_config(path)
    assert [(p.name, p.d_t, p.encoder_seed) for p in cfg.paradigms] == [
        ("anchor-graph", 32, 5),
        ("custom", 16, 9),
    ]


@pytest.mark.parametrize(
    "body,match",
    [
        ("[engine]\nbogus = 1\n", "unknown configuration key"),
        ("[distillation]\nMax input length = 4096\n", "unknown configuration key"),
        ("[alignment]\nDemonstrations = 2500\n", "unknown configuration key 'Demonstrations'"),
        ("[mystery]\nx = 1\n", "unknown configuration section"),
        ("[engine]\nseed = seven\n", "invalid value"),
        ("[paradigms]\np = 16\n", "expects"),
        ("[alignment]\nBatch size = 0\n", "batch_size|need"),
        ("[paradigms]\nanchor-graph = 64 x\n", "^paradigm 'anchor-graph' expects"),
        ("[distillation]\nEpochs = 0\n", "distillation epochs"),
        ("[distillation]\nPer-device batch size = 0\n", "distillation epochs and batch size"),
        ("[alignment]\nEpochs = 0\n", "alignment epochs"),
        ("[alignment]\nHoldout = 1\n", "holdout must be 0 or at least 2"),
        ("[alignment]\nNegative sample size = 0\n", "negative sample size must be at least 1"),
        ("[alignment]\nLearning rate = 0\n", "alignment needs learning rate > 0"),
        ("[alignment]\nLearning rate = nan\n", "invalid value for 'Learning rate'"),
        ("[alignment]\nLearning rate = inf\n", "invalid value for 'Learning rate'"),
        ("[alignment]\nContrastive (InfoNCE) temperature = nan\n", "invalid value"),
        ("[alignment]\nMSE loss (optional) = nan\n", "invalid value"),
        ("[alignment]\nWeight decay = -0.01\n", "alignment needs learning rate > 0"),
        ("[alignment]\nWarmup ratio = 2.0\n", "alignment needs learning rate > 0"),
        ("[alignment]\nWarmup ratio = -0.5\n", "alignment needs learning rate > 0"),
        ("[distillation]\nLearning rate = -1e-5\n", "distillation needs learning rate > 0"),
        ("[distillation]\nWeight decay = -1\n", "distillation needs learning rate > 0"),
        ("[distillation]\nWarmup = 1.5\n", "distillation needs learning rate > 0"),
        ("[distillation]\nWarmup = -0.1\n", "distillation needs learning rate > 0"),
        ("[distillation]\nKL weight = -0.5\n", "KL and CE weights >= 0"),
        ("[distillation]\nCE weight = -1\n", "KL and CE weights >= 0"),
        ("[distillation]\nKL temperature = nan\n", "invalid value for 'KL temperature'"),
        ("[distillation]\nKL temperature = inf\n", "invalid value for 'KL temperature'"),
        ("[distillation]\nKL weight = inf\n", "invalid value for 'KL weight'"),
    ],
)
def test_bad_configs_rejected(tmp_path, body, match):
    path = tmp_path / "engine.cfg"
    path.write_text(body)
    with pytest.raises((ConfigError, ValueError), match=match):
        load_config(path)


def test_dimension_validation():
    with pytest.raises(ConfigError):
        EngineConfig(d_s=0)


def test_settings_the_pool_decides_are_left_to_the_run(tmp_path):
    """A file is checked only on what it decides by itself: whether a
    holdout or a negative sample size fits depends on the pool of the
    run, which ``size_alignment`` checks."""
    path = tmp_path / "engine.cfg"
    path.write_text("[alignment]\nNegative sample size = 5000\nHoldout = 10000\n")
    cfg = load_config(path)
    assert (cfg.align.negatives, cfg.align.holdout) == (5000, 10000)
    assert "Demonstrations" not in default_config_text()
