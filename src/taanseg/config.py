"""Pipeline configuration: every tunable of the processing chain with its
documented default. Loadable from JSON (unknown keys rejected); CLI flags
override file values. TAANSEG_CONFIG names a default config file.
"""

import dataclasses
import json
import os

from .errors import DataError, open_utf8

ENV_VAR = "TAANSEG_CONFIG"


@dataclasses.dataclass
class PipelineConfig:
    # pitch tracking
    f0_min_hz: float = 80.0
    f0_max_hz: float = 600.0
    f0_grid_cents: float = 10.0
    harmonic_tol_cents: float = 30.0
    n_harmonics: int = 10
    voicing_factor: float = 3.0
    # vocal activity
    vocal_min_run_s: float = 0.2
    vocal_max_gap_s: float = 0.1
    # features
    feature_gap_frac: float = 0.2
    smooth_window_s: float = 5.0
    norm_var_floor: float = 1e-12
    # MLP
    mlp_hidden: int = 300
    mlp_lr: float = 0.05
    mlp_epochs: int = 200
    mlp_batch: int = 32
    mlp_seed: int = 0
    class_balance: bool = True
    taan_threshold: float = 0.5
    # CNN
    cnn_epochs: int = 60
    cnn_lr0: float = 0.1
    cnn_halve_every: int = 10
    cnn_batch: int = 32
    cnn_seed: int = 0
    conv_activation: str = "sigmoid"
    # segmentation
    novelty_half_width_s: float = 5.0
    gaussian_taper: bool = True
    pick_neighborhood_s: float = 5.0
    pick_rel_threshold: float = 0.3
    group_vocal_gap_s: float = 20.0
    group_instr_gap_s: float = 50.0

    def validate(self):
        if not 0 < self.f0_min_hz < self.f0_max_hz:
            raise DataError("need 0 < f0_min_hz < f0_max_hz")
        for name in ("f0_grid_cents", "harmonic_tol_cents", "voicing_factor",
                     "vocal_min_run_s", "vocal_max_gap_s", "smooth_window_s",
                     "mlp_lr", "cnn_lr0", "novelty_half_width_s",
                     "pick_neighborhood_s"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive")
        for name in ("n_harmonics", "mlp_hidden", "mlp_batch", "cnn_batch",
                     "cnn_halve_every"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")
        for name in ("mlp_epochs", "cnn_epochs"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")
        if not 0.0 <= self.taan_threshold <= 1.0:
            raise DataError("taan_threshold must be in [0, 1]")
        if not 0.0 <= self.feature_gap_frac < 1.0:
            raise DataError("feature_gap_frac must be in [0, 1)")
        if not 0.0 <= self.pick_rel_threshold <= 1.0:
            raise DataError("pick_rel_threshold must be in [0, 1]")
        if self.conv_activation not in ("sigmoid", "tanh", "relu"):
            raise DataError("conv_activation must be sigmoid/tanh/relu")
        if self.group_vocal_gap_s < 0 or self.group_instr_gap_s < 0:
            raise DataError("grouping gaps must be non-negative")
        return self


def load_config(path=None):
    """Config from JSON file, the TAANSEG_CONFIG env var, or defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    cfg = PipelineConfig()
    if path is None:
        return cfg.validate()
    with open_utf8(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise DataError(f"{path}: config must be a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}
    unknown = set(data) - set(types)
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        if not fits_type(value, types[key]):
            raise DataError(f"{path}: config value {key}={value!r} is not "
                            f"of type {types[key].__name__}")
        setattr(cfg, key, value)
    return cfg.validate()


def fits_type(value, kind):
    """Whether a JSON value fits a field type: an int also fits a float
    field, but a bool fits only a bool field."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)
