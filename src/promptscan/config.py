"""Flat dotted-key configuration files with strict round-tripping.

The format is deliberately dumb: one ``section.field=value`` per line,
``#`` comments, no nesting, no quoting. Every key must name a known
field (typos are errors, not silently ignored defaults), every value
must parse as the field's type, and serialize-then-parse reproduces the
config exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError, ParseError
from .losses import LossWeights
from .network import ModelConfig


@dataclass
class TrainConfig:
    steps: int = 500
    batch: int = 4
    patch: int = 32
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    log_every: int = 1
    ckpt_every: int = 100

    def validate(self) -> None:
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if self.batch < 1:
            raise ConfigError("batch must be at least 1")
        if self.patch < 8:
            raise ConfigError("patch must be at least 8")
        if not math.isfinite(self.lr) or self.lr < 0:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        for name in ("beta1", "beta2"):
            v = getattr(self, name)
            if not 0 <= v < 1:
                raise ConfigError(f"{name} must lie in [0, 1), got {v}")
        if not math.isfinite(self.eps) or self.eps <= 0:
            raise ConfigError(f"eps must be finite and positive, got {self.eps}")
        for name in ("log_every", "ckpt_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossWeights = field(default_factory=LossWeights)
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> None:
        self.model.validate()
        self.loss.validate()
        self.train.validate()
        if self.train.patch % self.model.scale != 0:
            raise ConfigError(
                f"patch {self.train.patch} must divide by scale {self.model.scale}"
            )
        if self.train.patch // self.model.scale < 8:
            raise ConfigError(
                f"patch {self.train.patch} gives a sub-8 input at scale {self.model.scale}"
            )


_SECTIONS = {"model": ModelConfig, "loss": LossWeights, "train": TrainConfig}
_TYPES = {"int": int, "float": float, "str": str}


def _field_types(cls) -> dict:
    out = {}
    for f in fields(cls):
        t = f.type if isinstance(f.type, str) else f.type.__name__
        if t in _TYPES:
            out[f.name] = _TYPES[t]
    return out


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse dotted key=value lines into a RunConfig.

    Raises ParseError naming the offending line for unknown keys, type
    mismatches, and out-of-range values. Missing keys take defaults.
    """
    values: dict = {name: {} for name in _SECTIONS}
    key_lines: dict = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{source} line {ln}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if "." not in key:
            raise ParseError(f"{source} line {ln}: key {key!r} is not section.field")
        section, fname = key.split(".", 1)
        if section not in _SECTIONS:
            raise ParseError(f"{source} line {ln}: unknown section {section!r}")
        ftypes = _field_types(_SECTIONS[section])
        if fname not in ftypes:
            raise ParseError(f"{source} line {ln}: unknown key {key!r}")
        if key in key_lines:
            raise ParseError(f"{source} line {ln}: duplicate key {key!r}")
        try:
            values[section][fname] = ftypes[fname](val)
        except ValueError:
            raise ParseError(
                f"{source} line {ln}: value {val!r} is not a valid "
                f"{ftypes[fname].__name__} for {key}"
            ) from None
        key_lines[key] = ln

    cfg = RunConfig(
        model=ModelConfig(**values["model"]),
        loss=LossWeights(**values["loss"]),
        train=TrainConfig(**values["train"]),
    )
    try:
        cfg.validate()
    except ConfigError as e:
        # every validation message starts with the field it rejects:
        # point at the line that set that field, when one did
        fname = str(e).split(" ", 1)[0]
        for key, ln in key_lines.items():
            if key.split(".", 1)[1] == fname:
                raise ParseError(f"{source} line {ln}: {e}") from None
        raise ParseError(f"{source}: {e}") from None
    return cfg


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=str(path))


def _format_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def format_config(cfg: RunConfig) -> str:
    """Canonical text form: sections and fields in sorted order."""
    objs = {"model": cfg.model, "loss": cfg.loss, "train": cfg.train}
    lines = []
    for section in sorted(_SECTIONS):
        obj = objs[section]
        for fname in sorted(_field_types(_SECTIONS[section])):
            lines.append(f"{section}.{fname}={_format_value(getattr(obj, fname))}")
    return "\n".join(lines) + "\n"


def format_model_config(model: ModelConfig) -> str:
    """Canonical text for just the model section (stored in checkpoints)."""
    lines = [
        f"model.{fname}={_format_value(getattr(model, fname))}"
        for fname in sorted(_field_types(ModelConfig))
    ]
    return "\n".join(lines) + "\n"


def parse_model_config(text: str, source: str = "<checkpoint>") -> ModelConfig:
    cfg = parse_config(text, source=source)
    return cfg.model
