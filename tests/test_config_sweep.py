"""The exit-code contract for every config value, generated from the range
table of `taanseg.config.PipelineConfig`.

Each numeric field is set, one at a time, to each finite bound of its
range and one step either side of it, and to a fixed set of extreme
values. Every command that reads the field then runs on a short synthetic
concert. Each run exits 0 or 2, and a value out of its range exits 2 with
one `error:` line that names the field.

Tier-1 runs a fixed sample of the cases. Run every case with

    PYTHONPATH=src python tests/test_config_sweep.py
"""

import contextlib
import dataclasses
import inspect
import io
import json
import math
import operator
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taanseg import (cli, cnn, features, mlp, segmentation, synth, textgrid,
                     vocal, wavio)
from taanseg.config import BOUNDS, PipelineConfig

FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}
# short training runs. An epoch count is swept up to 7 only: mlp_epochs
# 2**63 trains for hours without a fault, and the config sets no cap on it
BASE = {"mlp_epochs": 2, "cnn_epochs": 1}
MAX_EPOCHS = 7
EXTREMES = (0, 1, -1, 1e-300, 1e308, 2**31, 2**63, 0.5)


def in_range(field, value):
    return all(getattr(operator, key)(value, bound)
               for key, bound in field.metadata.items())


def sweep_values(field):
    """Each bound of the field's range and one step either side of it (1
    for an int field, one float for a float field), then EXTREMES: no
    floats for an int field, and no epoch count above MAX_EPOCHS."""
    values = []
    for bound in field.metadata.values():
        if field.type is int:
            values += [bound - 1, bound, bound + 1]
        else:
            values += [math.nextafter(bound, -math.inf), bound,
                       math.nextafter(bound, math.inf)]
    values += [v for v in EXTREMES if field.type is float or type(v) is int]
    if field.name.endswith("_epochs"):
        values = [v for v in values if v <= MAX_EPOCHS]
    return list(dict.fromkeys(values))


CASES = [(name, value) for name, f in FIELDS.items() if f.type is not bool
         for value in sweep_values(f)]


def _main(argv):
    """(exit code, stderr lines) of one command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue().splitlines()


class Sweep:
    """A 35 s concert (the default test sections at 2.5 s each) with its
    truth, features and an MLP and a CNN model trained under BASE; the
    command lines of the sweep, and the config fields each one reads."""

    def __init__(self, root):
        script = synth.default_test_script()
        clip, truth, _ = synth.synth_concert(synth.ConcertScript(
            [dataclasses.replace(s, duration_s=2.5) for s in script.sections],
            seed=7))
        wav, labels = root / "concert.wav", root / "truth.tsv"
        feats = root / "features.csv"
        mlp, cnn = root / "mlp.tseg", root / "cnn.tseg"
        wavio.write_wav(clip, wav)
        textgrid.write_sections(truth, labels)
        self.config = root / "config.json"
        self.config.write_text(json.dumps(BASE))
        for argv in (["features", "--audio", wav, "--out", feats],
                     ["train-mlp", "--features", feats, "--labels", labels,
                      "--out", mlp],
                     ["train-cnn", "--audio", wav, "--labels", labels,
                      "--out", cnn]):
            assert _main(["--config", self.config, *argv]) == (0, [])
        out = root / "out"
        self.commands = {
            "features": ["features", "--audio", wav, "--out", out],
            "segment-mlp": ["segment", "--audio", wav, "--model", mlp,
                            "--out", out],
            "segment-cnn": ["segment", "--audio", wav, "--model", cnn,
                            "--out", out],
            "train-mlp": ["train-mlp", "--features", feats, "--labels",
                          labels, "--out", out],
            "train-cnn": ["train-cnn", "--audio", wav, "--labels", labels,
                          "--out", out],
            # reads no field: the posteriors need no threshold
            "classify-features": ["classify", "--features", feats,
                                  "--model", mlp, "--out", out],
        }
        self.reads = {name: self._fields_read(argv)
                      for name, argv in self.commands.items()}

    def _fields_read(self, argv):
        read = set()

        class Recorder(PipelineConfig):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        with mock.patch.object(cli, "load_config",
                               lambda path: Recorder(**BASE)):
            assert _main(argv) == (0, [])
        return read & set(FIELDS)

    def check(self, name, value):
        """Run every command that reads field `name` with it set to value."""
        self.config.write_text(json.dumps({**BASE, name: value}))
        rejected = f"error: {self.config}: "
        for command, argv in self.commands.items():
            if name not in self.reads[command]:
                continue
            code, lines = _main(["--config", self.config, *argv])
            case = (command, name, value, code, lines)
            assert code in (0, 2), case
            if not in_range(FIELDS[name], value):
                assert code == 2 and len(lines) == 1, case
                assert lines[0].startswith(rejected), case
            if any(line.startswith(rejected) for line in lines):
                assert name in lines[-1], case


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return Sweep(tmp_path_factory.mktemp("sweep"))


def test_every_numeric_field_has_a_range():
    for f in FIELDS.values():
        assert f.type in (bool, int, float), f.name
        assert bool(f.metadata) == (f.type is not bool), f.name
        assert set(f.metadata) <= set(BOUNDS), f.name
        assert in_range(f, f.default), f.name


# (stage function, keyword, config field) for every keyword default that
# repeats a PipelineConfig default: the library's own defaults
STAGE_DEFAULTS = [
    (vocal.detect_f0_baseline, "f_min", "f0_min_hz"),
    (vocal.detect_f0_baseline, "f_max", "f0_max_hz"),
    (vocal.detect_f0_baseline, "voicing_factor", "voicing_factor"),
    (vocal.detect_f0_baseline, "grid_cents", "f0_grid_cents"),
    (vocal.detect_f0_baseline, "tol_cents", "harmonic_tol_cents"),
    (vocal.detect_f0_baseline, "n_harmonics", "n_harmonics"),
    (vocal.harmonic_energy, "tol_cents", "harmonic_tol_cents"),
    (vocal.harmonic_energy, "n_harmonics", "n_harmonics"),
    (vocal.detect_vocal_activity, "min_run_s", "vocal_min_run_s"),
    (vocal.detect_vocal_activity, "max_gap_s", "vocal_max_gap_s"),
    (features.raw_features, "max_gap_frac", "feature_gap_frac"),
    (features.smooth_and_normalize, "smooth_s", "smooth_window_s"),
    (features.smooth_and_normalize, "var_floor", "norm_var_floor"),
    (segmentation.novelty, "half_width_s", "novelty_half_width_s"),
    (segmentation.novelty, "gaussian_taper", "gaussian_taper"),
    (segmentation.pick_boundaries, "neighborhood_s", "pick_neighborhood_s"),
    (segmentation.pick_boundaries, "rel_threshold", "pick_rel_threshold"),
    (segmentation.group_sections, "vocal_gap_s", "group_vocal_gap_s"),
    (segmentation.group_sections, "instr_gap_s", "group_instr_gap_s"),
    (mlp.mlp_train, "lr", "mlp_lr"),
    (mlp.mlp_train, "epochs", "mlp_epochs"),
    (mlp.mlp_train, "batch", "mlp_batch"),
    (mlp.mlp_train, "seed", "mlp_seed"),
    (mlp.mlp_train, "class_balance", "class_balance"),
    (cnn.cnn_train, "epochs", "cnn_epochs"),
    (cnn.cnn_train, "lr0", "cnn_lr0"),
    (cnn.cnn_train, "halve_every", "cnn_halve_every"),
    (cnn.cnn_train, "batch", "cnn_batch"),
    (cnn.cnn_train, "seed", "cnn_seed"),
    (mlp.classify_frames, "threshold", "taan_threshold"),
]


@pytest.mark.parametrize(
    "func, keyword, name", STAGE_DEFAULTS,
    ids=[f"{f.__name__}-{k}" for f, k, _ in STAGE_DEFAULTS])
def test_stage_default_equals_config_default(func, keyword, name):
    default = inspect.signature(func).parameters[keyword].default
    assert default == FIELDS[name].default


def test_every_field_is_read_by_a_command(sweep):
    assert set().union(*sweep.reads.values()) == set(FIELDS)


@pytest.mark.parametrize("name, value", [
    ("mlp_seed", -1), ("cnn_seed", -1), ("f0_grid_cents", 2**63),
    ("f0_grid_cents", 10800.000000000002), ("mlp_hidden", 4097)])
def test_out_of_range_exits_2_naming_the_field(sweep, name, value):
    assert not in_range(FIELDS[name], value)
    sweep.check(name, value)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(case=st.sampled_from(CASES))
def test_sampled_values_exit_0_or_2(sweep, case):
    sweep.check(*case)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        sweep = Sweep(Path(root))
        for k, case in enumerate(CASES, 1):
            print(f"{k}/{len(CASES)} {case[0]} = {case[1]!r}", flush=True)
            sweep.check(*case)
