"""Pipeline configuration: every tunable of the processing chain with its
documented default. Loadable from JSON (unknown keys rejected): the
`--config` file, else the file TAANSEG_CONFIG names, else the defaults.
"""

import dataclasses
import json
import math
import os
import sys

from .errors import DataError, open_text
from .vocal import HARMONIC_CEILING_HZ

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
    # segmentation
    novelty_half_width_s: float = 5.0
    gaussian_taper: bool = True
    pick_neighborhood_s: float = 5.0
    pick_rel_threshold: float = 0.3
    group_vocal_gap_s: float = 20.0
    group_instr_gap_s: float = 50.0

    def validate(self):
        """DataError naming the field unless every value is in range. Beyond
        signs and unit intervals: 8000/1024 <= f0_min_hz < f0_max_hz <= 4000
        (one DFT bin, and the Nyquist frequency, at 8 kHz), f0_grid_cents
        >= 1, harmonic_tol_cents <= 600, mlp_hidden <= 4096, n_harmonics <=
        ceil(HARMONIC_CEILING_HZ / f0_min_hz): higher ones are never used."""
        if not 8000 / 1024 <= self.f0_min_hz < self.f0_max_hz <= 4000:
            raise DataError("need 7.8125 <= f0_min_hz < f0_max_hz <= 4000")
        for name in ("harmonic_tol_cents", "voicing_factor",
                     "vocal_min_run_s", "vocal_max_gap_s", "smooth_window_s",
                     "mlp_lr", "cnn_lr0", "novelty_half_width_s",
                     "pick_neighborhood_s"):
            if getattr(self, name) <= 0:
                raise DataError(f"{name} must be positive")
        for name in ("f0_grid_cents", "n_harmonics", "mlp_hidden", "mlp_batch",
                     "cnn_batch", "cnn_halve_every"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")
        caps = {"harmonic_tol_cents": 600, "mlp_hidden": 4096,
                "n_harmonics": math.ceil(HARMONIC_CEILING_HZ / self.f0_min_hz)}
        for name, cap in caps.items():
            if getattr(self, name) > cap:
                raise DataError(f"{name} must be <= {cap}")
        for name in ("mlp_epochs", "cnn_epochs"):
            if getattr(self, name) < 0:
                raise DataError(f"{name} must be >= 0")
        if not 0.0 <= self.taan_threshold <= 1.0:
            raise DataError("taan_threshold must be in [0, 1]")
        if not 0.0 <= self.feature_gap_frac < 1.0:
            raise DataError("feature_gap_frac must be in [0, 1)")
        if not 0.0 <= self.pick_rel_threshold <= 1.0:
            raise DataError("pick_rel_threshold must be in [0, 1]")
        if self.group_vocal_gap_s < 0 or self.group_instr_gap_s < 0:
            raise DataError("grouping gaps must be non-negative")
        return self


def load_config(path=None):
    """Config from JSON file, the TAANSEG_CONFIG env var, or defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None:
        return PipelineConfig().validate()
    with open_text(path) as fh:
        data = json.load(fh)
    fields = dataclasses.fields(PipelineConfig)
    check_object(path, "config", data, {f.name: f.type for f in fields}, ())
    try:
        return PipelineConfig(**data).validate()
    except DataError as exc:
        raise DataError(str(exc), path=path) from None


def check_object(path, where, obj, types, required):
    """DataError unless obj is a JSON object with every required key and
    only keys of `types`, each holding a value of its type: an int also
    fits a float field, a bool only a bool field, and floats are finite."""
    if not isinstance(obj, dict):
        raise DataError(f"{where} must be a JSON object", path=path)
    for key in required:
        if key not in obj:
            raise DataError(f"{where} has no {key!r} key", path=path)
    unknown = set(obj) - set(types)
    if unknown:
        raise DataError(f"unknown {where} keys: {sorted(unknown)}", path=path)
    for key, value in obj.items():
        kind = types[key]
        fits = (isinstance(value, bool) == (kind is bool) and
                isinstance(value, (int, float) if kind is float else kind)
                and (kind is not float or abs(value) <= sys.float_info.max))
        if not fits:
            want = ("a finite number" if kind is float
                    else f"of type {kind.__name__}")
            raise DataError(f"{where} key {key!r}: {value!r} is not {want}",
                            path=path)
