"""Run configuration: every knob with validated defaults.

Configs load from JSON key-value documents. Unknown keys are rejected
and the fully resolved config (defaults applied) is echoed into the run
report.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
from dataclasses import dataclass

from .data import GENERATORS, NOISE_MODES
from .errors import ConfigError, undecodable
from .geometry import SAMPLERS


def _is_number(value) -> bool:
    """A JSON number: an int or a float, never a boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(name: str, value) -> int:
    """A JSON integer that fits in int64, the width numpy sizes and seeds take."""
    if (not _is_number(value) or (isinstance(value, float) and not value.is_integer())
            or not -2 ** 63 <= value < 2 ** 63):
        raise ConfigError(f"{name} must be a 64-bit integer, got {value!r}")
    return int(value)


def _finite_float(name: str, value) -> float:
    try:
        if _is_number(value) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


@dataclass
class RunConfig:
    # dataset
    generator: str = "gaussian-blobs"
    n_train: int = 2000
    n_test: int = 1000
    n_classes: int = 4
    input_dim: int = 8
    separation: float = 3.0
    # label noise
    noise_mode: str = "symmetric"
    noise_rate: float = 0.4
    # model shape
    hidden_dims: tuple[int, ...] = (64, 8)
    projection_dim: int = 32
    # losses and selection
    gce_q: float = 0.7
    tau_clean: float = 0.5
    window: int = 3
    tau_rej: float = 2.5
    tau_auto: bool = True
    tau_auto_scale: float = 1.0
    energy_temperature: float = 1.0
    sharpen_temperature: float = 0.5
    mixup_alpha: float = 4.0
    contrast_temperature: float = 0.5
    n_aug: int = 2
    n_cand_factor: int = 10
    n_cand_cap: int = 10000
    lambda_u: float = 45.0
    lambda_u_ramp_epochs: int = 16
    lambda_reg: float = 1.0
    lambda_cl: float = 1.0
    lambda_energy: float = 0.1
    # optimization
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 64
    warmup_epochs: int = 10
    total_epochs: int = 40
    sampler: str = "uniform"
    seed: int = 1
    # ablation switches
    disable_vos: bool = False
    single_network: bool = False
    # augmentation
    weak_jitter: float = 0.05
    strong_scale_low: float = 0.8
    strong_scale_high: float = 1.25
    strong_dropout: float = 0.1
    # OOD evaluation sets
    ood_n: int = 1000
    ood_far_gap: float = 4.0
    ood_near_radius_factor: float = 1.5
    ood_near_spread: float = 0.25
    # optional dumps
    dump_selection: bool = False
    dump_geometry: bool = False
    export_features: bool = False

    def __post_init__(self):
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        self.validate()

    def validate(self) -> None:
        checks = [
            (0 <= self.seed < 2 ** 63, "seed must lie in [0, 2**63)"),
            (self.generator in GENERATORS, f"generator must be one of {GENERATORS}"),
            (self.noise_mode in NOISE_MODES, f"noise_mode must be one of {NOISE_MODES}"),
            (self.sampler in SAMPLERS, f"sampler must be one of {SAMPLERS}"),
            (self.n_train >= self.n_classes, "n_train must cover every class"),
            (self.n_test >= self.n_classes, "n_test must cover every class"),
            (self.n_classes >= 2, "need at least two classes"),
            (self.input_dim >= 2, "input_dim must be >= 2"),
            (self.generator != "two-moons-kd" or self.n_classes == 2,
             "two-moons-kd is a two-class generator"),
            (self.generator != "gaussian-blobs" or self.n_classes <= 2 * self.input_dim,
             "gaussian-blobs supports at most 2 * input_dim classes"),
            (self.separation > 0, "separation must be positive"),
            (0.0 <= self.noise_rate < 1.0, "noise_rate must lie in [0, 1)"),
            (len(self.hidden_dims) >= 1 and all(h >= 1 for h in self.hidden_dims),
             "hidden_dims must be nonempty positive widths"),
            (self.projection_dim >= 2, "projection_dim must be >= 2"),
            (0.0 < self.gce_q <= 1.0, "gce_q must lie in (0, 1]"),
            (0.0 < self.tau_clean < 1.0, "tau_clean must lie in (0, 1)"),
            (self.window >= 1, "window must be >= 1"),
            (self.tau_rej >= 0.0, "tau_rej must be nonnegative"),
            (self.tau_auto_scale > 0.0, "tau_auto_scale must be positive"),
            (self.energy_temperature > 0, "energy_temperature must be positive"),
            (self.sharpen_temperature > 0, "sharpen_temperature must be positive"),
            (self.mixup_alpha > 0, "mixup_alpha must be positive"),
            (self.contrast_temperature > 0, "contrast_temperature must be positive"),
            (self.n_aug >= 1, "n_aug must be >= 1"),
            (self.n_cand_factor >= 1, "n_cand_factor must be >= 1"),
            (self.n_cand_cap >= 1, "n_cand_cap must be >= 1"),
            (self.lambda_u >= 0 and self.lambda_reg >= 0 and self.lambda_cl >= 0
             and self.lambda_energy >= 0, "loss weights must be nonnegative"),
            (self.lambda_u_ramp_epochs >= 1, "lambda_u_ramp_epochs must be >= 1"),
            (self.lr > 0, "lr must be positive"),
            (0.0 <= self.momentum < 1.0, "momentum must lie in [0, 1)"),
            (self.weight_decay >= 0, "weight_decay must be nonnegative"),
            (self.batch_size >= 2, "batch_size must be >= 2"),
            (self.warmup_epochs >= 0, "warmup_epochs must be nonnegative"),
            (self.total_epochs >= self.warmup_epochs,
             "total_epochs must include the warm-up epochs"),
            (self.weak_jitter >= 0, "weak_jitter must be nonnegative"),
            (0 < self.strong_scale_low <= self.strong_scale_high,
             "strong scale range must be positive and ordered"),
            (0.0 <= self.strong_dropout < 1.0, "strong_dropout must lie in [0, 1)"),
            (self.ood_n >= 1, "ood_n must be positive"),
            (self.ood_far_gap >= 0, "ood_far_gap must be nonnegative"),
            (self.ood_near_radius_factor > 0, "ood_near_radius_factor must be positive"),
            (self.ood_near_spread >= 0, "ood_near_spread must be nonnegative"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        # the largest candidate array an epoch can draw must be one numpy can size
        if min(self.n_cand_factor * self.n_train, self.n_cand_cap) * self.hidden_dims[-1] * 8 \
                >= 2 ** 63:
            raise ConfigError("min(n_cand_factor * n_train, n_cand_cap) candidates of width "
                              "hidden_dims[-1] exceed numpy's largest array")
        if self.noise_mode == "asymmetric" and self.noise_rate > 0.5:
            logging.getLogger(__name__).warning(
                "asymmetric noise rate %.2f > 0.5: the flipped class becomes the majority",
                self.noise_rate)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        typed = {}
        for f in dataclasses.fields(cls):
            if f.name not in raw:
                continue
            value = raw[f.name]
            if f.name == "hidden_dims":
                if not isinstance(value, list):
                    raise ConfigError(f"hidden_dims must be a list of integers, got {value!r}")
                typed[f.name] = tuple(_integer(f.name, v) for v in value)
            elif isinstance(f.default, bool):
                if not isinstance(value, bool):
                    raise ConfigError(f"{f.name} must be a boolean")
                typed[f.name] = value
            elif isinstance(f.default, int):
                typed[f.name] = _integer(f.name, value)
            elif isinstance(f.default, float):
                typed[f.name] = _finite_float(f.name, value)
            else:
                typed[f.name] = value
        return cls(**typed)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise undecodable(path, exc) from exc
        if not isinstance(raw, dict):
            raise ConfigError("config document must be a JSON object")
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["hidden_dims"] = list(self.hidden_dims)
        return out

    def replace(self, **kwargs) -> "RunConfig":
        return dataclasses.replace(self, **kwargs)
