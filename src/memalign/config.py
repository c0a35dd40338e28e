"""Engine configuration: a line-oriented key-value file with section
headers.  Hyperparameter keys use their conventional long names; the
defaults below are the engine's normative defaults."""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .contrastive import AlignConfig
from .retriever import DistillConfig


class ConfigError(ValueError):
    pass


@dataclass
class ParadigmSpec:
    name: str
    d_t: int
    encoder_seed: int


@dataclass
class EngineConfig:
    d_s: int = 64  # unified memory space dimension
    d_c: int = 64  # content vector dimension
    d_q: int = 64  # query embedding dimension
    d_m: int = 128  # retriever recurrent width
    d_h: int = 2048  # alignment-module hidden width
    seed: int = 42
    paradigms: list[ParadigmSpec] = field(default_factory=list)
    align: AlignConfig = field(default_factory=AlignConfig)
    distill: DistillConfig = field(default_factory=DistillConfig)

    def __post_init__(self):
        for dim in (self.d_s, self.d_c, self.d_q, self.d_m, self.d_h):
            if dim < 1:
                raise ConfigError("all dimensions must be positive")
        if not self.paradigms:
            self.paradigms = default_paradigms(self.seed)


def default_paradigms(seed: int) -> list[ParadigmSpec]:
    return [
        ParadigmSpec("anchor-graph", 64, seed + 101),
        ParadigmSpec("explicit-sim", 48, seed + 202),
        ParadigmSpec("parametric-sim", 96, seed + 303),
        ParadigmSpec("latent-sim", 64, seed + 404),
    ]


_ALIGN_KEYS = {
    "Negative sample size": ("negatives", int),
    "Batch size": ("batch_size", int),
    "Epochs": ("epochs", int),
    "Learning rate": ("learning_rate", float),
    "Weight decay": ("weight_decay", float),
    "Warmup ratio": ("warmup_ratio", float),
    "Contrastive (InfoNCE) temperature": ("tau", float),
    "MSE loss (optional)": ("mse_weight", float),
    "Holdout": ("holdout", int),
    "Seed": ("seed", int),
}

_DISTILL_KEYS = {
    "Per-device batch size": ("batch_size", int),
    "Epochs": ("epochs", int),
    "Learning rate": ("learning_rate", float),
    "Weight decay": ("weight_decay", float),
    "Warmup": ("warmup_ratio", float),
    "Max output length": ("max_output_tokens", int),
    "KL weight": ("kl_weight", float),
    "KL temperature": ("kl_temperature", float),
    "CE weight": ("ce_weight", float),
    "Teacher smoothing": ("teacher_epsilon", float),
    "Seed": ("seed", int),
}

_ENGINE_KEYS = {
    "D_s": ("d_s", int),
    "d_c": ("d_c", int),
    "d_q": ("d_q", int),
    "d_m": ("d_m", int),
    "d_h": ("d_h", int),
    "seed": ("seed", int),
}


def default_config_text() -> str:
    """Canonical config file for the default engine."""
    cfg = EngineConfig()
    lines = ["[engine]"]
    for key, (attr, _) in _ENGINE_KEYS.items():
        lines.append(f"{key} = {getattr(cfg, attr)}")
    lines.append("")
    lines.append("[paradigms]")
    for spec in cfg.paradigms:
        lines.append(f"{spec.name} = {spec.d_t} {spec.encoder_seed}")
    lines.append("")
    lines.append("[alignment]")
    for key, (attr, _) in _ALIGN_KEYS.items():
        lines.append(f"{key} = {getattr(cfg.align, attr)}")
    lines.append("")
    lines.append("[distillation]")
    for key, (attr, _) in _DISTILL_KEYS.items():
        lines.append(f"{key} = {getattr(cfg.distill, attr)}")
    lines.append("")
    return "\n".join(lines)


def _apply_section(section, keymap, target) -> None:
    for key, raw in section.items():
        if key not in keymap:
            raise ConfigError(f"unknown configuration key {key!r}")
        attr, cast = keymap[key]
        try:
            value = cast(raw)
            if cast is float and not math.isfinite(value):
                raise ValueError(raw)
            setattr(target, attr, value)
        except ValueError as exc:
            raise ConfigError(f"invalid value for {key!r}: {raw!r}") from exc


def load_config(path: str | Path) -> EngineConfig:
    parser = configparser.ConfigParser(delimiters=("=",), interpolation=None)
    parser.optionxform = str  # keys are case- and space-sensitive
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc

    cfg = EngineConfig()
    for section_name in parser.sections():
        section = parser[section_name]
        if section_name == "engine":
            _apply_section(section, _ENGINE_KEYS, cfg)
        elif section_name == "alignment":
            _apply_section(section, _ALIGN_KEYS, cfg.align)
        elif section_name == "distillation":
            _apply_section(section, _DISTILL_KEYS, cfg.distill)
        elif section_name == "paradigms":
            cfg.paradigms = []
            for name, raw in section.items():
                try:
                    d_t, encoder_seed = map(int, raw.split())
                except ValueError:
                    raise ConfigError(
                        f"paradigm {name!r} expects '<d_t> <encoder_seed>'"
                    ) from None
                cfg.paradigms.append(ParadigmSpec(name, d_t, encoder_seed))
        else:
            raise ConfigError(f"unknown configuration section {section_name!r}")
    # re-validate after field overrides
    cfg.align.__post_init__()
    cfg.distill.__post_init__()
    cfg.__post_init__()
    return cfg
