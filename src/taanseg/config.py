"""Pipeline configuration: every tunable of the processing chain with its
documented default and range. Loadable from JSON (unknown keys rejected):
the `--config` file, else the file TAANSEG_CONFIG names, else the defaults.
"""

import dataclasses
import json
import math
import operator
import os
import sys

from .dsp import ANALYSIS_HZ, N_DFT
from .errors import DataError, open_text
from .vocal import HARMONIC_CEILING_HZ

ENV_VAR = "TAANSEG_CONFIG"
# the bounds a field's range may set, each named as its `operator` test
BOUNDS = {"gt": ">", "ge": ">=", "lt": "<", "le": "<="}


def _f(default, **bounds):
    """A field with its default and its range: `gt=0, le=600` is (0, 600]."""
    return dataclasses.field(default=default, metadata=bounds)


@dataclasses.dataclass
class PipelineConfig:
    # pitch tracking: F0 from one DFT bin to the grid's Nyquist frequency, 9
    # octaves: a grid step past their 10800 cents leaves f0_min_hz alone
    f0_min_hz: float = _f(80.0, ge=ANALYSIS_HZ / N_DFT, le=ANALYSIS_HZ // 2)
    f0_max_hz: float = _f(600.0, ge=ANALYSIS_HZ / N_DFT, le=ANALYSIS_HZ // 2)
    f0_grid_cents: float = _f(10.0, ge=1, le=10800)
    harmonic_tol_cents: float = _f(30.0, gt=0, le=600)
    n_harmonics: int = _f(10, ge=1)
    # so that its product with the harmonic weight sum (< 8) stays finite
    voicing_factor: float = _f(3.0, gt=0, le=1e300)
    # vocal activity
    vocal_min_run_s: float = _f(0.2, gt=0)
    vocal_max_gap_s: float = _f(0.1, gt=0)
    # features
    feature_gap_frac: float = _f(0.2, ge=0, lt=1)
    smooth_window_s: float = _f(5.0, gt=0)
    norm_var_floor: float = _f(1e-12, ge=0)
    # MLP
    mlp_hidden: int = _f(300, ge=1, le=4096)
    mlp_lr: float = _f(0.05, gt=0)
    mlp_epochs: int = _f(200, ge=0)
    mlp_batch: int = _f(32, ge=1)
    mlp_seed: int = _f(0, ge=0)
    class_balance: bool = True
    taan_threshold: float = _f(0.5, ge=0, le=1)
    # CNN
    cnn_epochs: int = _f(60, ge=0)
    cnn_lr0: float = _f(0.1, gt=0)
    cnn_halve_every: int = _f(10, ge=1)
    cnn_batch: int = _f(32, ge=1)
    cnn_seed: int = _f(0, ge=0)
    # segmentation
    novelty_half_width_s: float = _f(5.0, gt=0)
    gaussian_taper: bool = True
    pick_neighborhood_s: float = _f(5.0, gt=0)
    pick_rel_threshold: float = _f(0.3, ge=0, le=1)
    group_vocal_gap_s: float = _f(20.0, ge=0)
    group_instr_gap_s: float = _f(50.0, ge=0)

    def validate(self):
        """DataError naming the first field out of its range, else unless
        f0_min_hz < f0_max_hz and n_harmonics <= ceil(HARMONIC_CEILING_HZ /
        f0_min_hz), as higher harmonics are never used."""
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            for key, bound in f.metadata.items():
                if not getattr(operator, key)(value, bound):
                    raise DataError(f"{f.name} must be {BOUNDS[key]} {bound}, "
                                    f"not {value!r}")
        if self.f0_min_hz >= self.f0_max_hz:
            raise DataError(f"f0_min_hz must be < f0_max_hz "
                            f"({self.f0_max_hz!r}), not {self.f0_min_hz!r}")
        cap = math.ceil(HARMONIC_CEILING_HZ / self.f0_min_hz)
        if self.n_harmonics > cap:
            raise DataError(f"n_harmonics must be <= {cap}, "
                            f"not {self.n_harmonics!r}")
        return self


def load_config(path=None):
    """Config from JSON file, the TAANSEG_CONFIG env var, or defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None:
        return PipelineConfig().validate()
    with open_text(path) as fh:
        data = json.load(fh)
    types = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}
    check_object(path, "config", data, types, ())
    data = {k: float(v) if types[k] is float else v for k, v in data.items()}
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
