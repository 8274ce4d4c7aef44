"""End-to-end tests of the command-line interface, exercised through
`main(argv)` with small synthetic inputs."""

import json
import re
import shutil
import struct
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from textgrid_forms import short_form

from taanseg import cnn
from taanseg import features as feat_mod
from taanseg import bootstrap, pipeline, pool, vocal, wavio
from taanseg.bootstrap import read_frame_labels
from taanseg.cli import main
from taanseg.cnn import (PATCH_BINS, SHAPE_CHAIN, cnn_init, frame_features,
                         make_patches)
from taanseg.dsp import AudioClip, log_spectrogram, resample
from taanseg.errors import InternalError
from taanseg.features import StyleFeatureSeq
from taanseg.modelio import (MAGIC, VERSION, load_model, save_model,
                             write_matrix_csv)
from taanseg.segmentation import (Section, SectionTimeline, read_timeline,
                                  write_timeline)
from taanseg.synth import (ConcertScript, SectionSpec, script_to_json,
                           synth_concert)
from taanseg.textgrid import read_sections, write_sections


@pytest.fixture(scope="module")
def small_concert(tmp_path_factory):
    """A 100 s concert rendered through the CLI, with truth artifacts."""
    root = tmp_path_factory.mktemp("concert")
    script = ConcertScript(
        sections=[
            SectionSpec("instrumental", 15.0),
            SectionSpec("taan", 30.0, f0_hz=220.0, mod_rate_hz=6.0),
            SectionSpec("steady-vocal", 25.0, f0_hz=196.0),
            SectionSpec("taan", 30.0, f0_hz=247.0, mod_rate_hz=7.0),
        ],
        seed=5,
    )
    script_path = root / "script.json"
    script_to_json(script, script_path)
    wav = root / "concert.wav"
    timeline = root / "truth.tsv"
    labels = root / "labels.tsv"
    rc = main(["synth", "--script", str(script_path), "--out-wav", str(wav),
               "--out-timeline", str(timeline), "--out-labels", str(labels)])
    assert rc == 0
    return {"root": root, "script": script_path, "wav": wav,
            "timeline": timeline, "labels": labels}


@pytest.fixture(scope="module")
def track_csv(small_concert):
    out = small_concert["root"] / "track.csv"
    assert main(["tracks", "--audio", str(small_concert["wav"]),
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def features_csv(small_concert, track_csv):
    out = small_concert["root"] / "features.csv"
    assert main(["features", "--track", str(track_csv),
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def mlp_model(small_concert, features_csv, tmp_path_factory):
    root = tmp_path_factory.mktemp("mlp")
    cfg = root / "cfg.json"
    cfg.write_text('{"mlp_epochs": 60, "mlp_hidden": 20}')
    out = root / "model.tseg"
    rc = main(["--config", str(cfg), "train-mlp",
               "--features", str(features_csv),
               "--labels", str(small_concert["labels"]),
               "--out", str(out)])
    assert rc == 0
    return out


class TestSynth:
    def test_outputs_exist(self, small_concert):
        assert small_concert["wav"].stat().st_size > 44
        tl = read_timeline(small_concert["timeline"])
        assert [s.label for s in tl] == [
            "instrumental", "taan", "non-taan", "taan"]
        _, labels = read_frame_labels(small_concert["labels"])
        assert len(labels) == 100

    def test_deterministic_output(self, small_concert, tmp_path):
        wav2 = tmp_path / "again.wav"
        rc = main(["synth", "--script", str(small_concert["script"]),
                   "--out-wav", str(wav2)])
        assert rc == 0
        assert wav2.read_bytes() == small_concert["wav"].read_bytes()

    def test_seed_override_changes_audio(self, small_concert, tmp_path):
        wav2 = tmp_path / "other.wav"
        rc = main(["synth", "--script", str(small_concert["script"]),
                   "--seed", "9", "--out-wav", str(wav2)])
        assert rc == 0
        assert wav2.read_bytes() != small_concert["wav"].read_bytes()


class TestTracksAndFeatures:
    def test_track_columns(self, track_csv):
        header = track_csv.read_text().splitlines()[0]
        assert header == "time_s,f0_hz,energy_db,voiced"

    def test_features_readable(self, features_csv):
        seq = feat_mod.read_features(features_csv)
        assert seq.features.shape[1] == 3
        assert seq.vocal_mask.any()

    def test_features_needs_one_source(self, features_csv, tmp_path):
        rc = main(["features", "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestTrainAndClassify:
    def test_model_saved(self, mlp_model):
        model = load_model(mlp_model)
        assert model.w1.shape == (3, 20)

    def test_classify_writes_posteriors(self, mlp_model, features_csv,
                                        tmp_path):
        out = tmp_path / "post.csv"
        rc = main(["classify", "--model", str(mlp_model),
                   "--features", str(features_csv), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "frame_s,p_taan,vocal"
        vals = [ln.split(",") for ln in lines[1:]]
        finite = [float(v[1]) for v in vals if v[1] != "nan"]
        assert finite and all(0.0 <= p <= 1.0 for p in finite)

    def test_classify_audio_matches_features_then_classify(
            self, small_concert, mlp_model, tmp_path):
        feats = tmp_path / "feat.csv"
        assert main(["features", "--audio", str(small_concert["wav"]),
                     "--out", str(feats)]) == 0
        outs = {}
        for source, path in (("--features", feats),
                             ("--audio", small_concert["wav"])):
            outs[source] = tmp_path / f"post{source}.csv"
            assert main(["classify", "--model", str(mlp_model), source,
                         str(path), "--out", str(outs[source])]) == 0
        assert outs["--audio"].read_bytes() == outs["--features"].read_bytes()

    @pytest.mark.parametrize("kind, sources", [
        ("mlp", []), ("mlp", ["--features", "--audio"]),
        ("cnn", ["--features"])])
    def test_classify_usage(self, small_concert, mlp_model, features_csv,
                            tmp_path, kind, sources):
        model = mlp_model
        if kind == "cnn":
            model = tmp_path / "cnn.tseg"
            save_model(cnn_init(seed=0), model)
        paths = {"--features": features_csv, "--audio": small_concert["wav"]}
        argv = ["classify", "--model", str(model), "--out",
                str(tmp_path / "p.csv")]
        for source in sources:
            argv += [source, str(paths[source])]
        assert main(argv) == 1

    def test_segment_end_to_end(self, small_concert, mlp_model, tmp_path):
        out = tmp_path / "detected.tsv"
        rc = main(["segment", "--audio", str(small_concert["wav"]),
                   "--model", str(mlp_model), "--out", str(out)])
        assert rc == 0
        tl = read_timeline(out)
        assert len(tl) >= 1
        assert tl.span()[0] == 0.0
        # the same run written as a TextGrid reads back as the same sections
        grid = tmp_path / "detected.TextGrid"
        assert main(["segment", "--audio", str(small_concert["wav"]),
                     "--model", str(mlp_model), "--out", str(grid)]) == 0
        assert grid.read_text().startswith('File type = "ooTextFile"')
        assert read_sections(grid) == read_sections(out) == tl

    def test_one_class_truth_same_error_from_both_trainers(
            self, small_concert, features_csv, tmp_path, capsys):
        truth = tmp_path / "all_taan.tsv"
        truth.write_text("0.0\t600.0\ttaan\n")
        errs = []
        for command, source, path in (
                ("train-mlp", "--features", features_csv),
                ("train-cnn", "--audio", small_concert["wav"])):
            assert main([command, source, str(path), "--labels", str(truth),
                         "--out", str(tmp_path / f"{command}.tseg")]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == ("error: training labels must be 0 and "
                                      "1, both present, got [1]\n")

    def test_unpaired_training_args(self, features_csv, small_concert,
                                    tmp_path):
        rc = main(["train-mlp", "--features", str(features_csv),
                   "--labels", str(small_concert["labels"]),
                   "--labels", str(small_concert["labels"]),
                   "--out", str(tmp_path / "m.tseg")])
        assert rc == 1


class TestEvaluate:
    def test_identical_timelines(self, small_concert, capsys):
        rc = main(["evaluate", "--detected", str(small_concert["timeline"]),
                   "--truth", str(small_concert["timeline"]), "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact"] == 2
        assert report["missed"] == 0 and report["false_alarm"] == 0

    def test_table_output(self, small_concert, capsys):
        rc = main(["evaluate", "--detected", str(small_concert["timeline"]),
                   "--truth", str(small_concert["timeline"])])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Exact detection" in out

    def test_boundary_deviation(self, small_concert, tmp_path, capsys):
        truth = read_timeline(small_concert["timeline"])
        shifted = SectionTimeline([
            Section(s.start_s + 1.0, s.end_s - 0.5, s.label) if s.label == "taan"
            else s for s in truth])
        detected = tmp_path / "detected.tsv"
        write_timeline(shifted, detected)
        args = ["evaluate", "--detected", str(detected),
                "--truth", str(small_concert["timeline"])]
        assert main(args) == 0
        assert ("Boundary deviation  onset mean 1.00 s, max 1.00 s; "
                "offset mean 0.50 s, max 0.50 s") in capsys.readouterr().out
        assert main(args + ["--json"]) == 0
        dev = json.loads(capsys.readouterr().out)["boundary_deviation"]
        assert dev["empty"] is False
        assert dev["max_onset"] == pytest.approx(1.0)
        assert dev["mean_offset"] == pytest.approx(0.5)

    def test_no_exact_matches(self, small_concert, tmp_path, capsys):
        detected = tmp_path / "detected.tsv"
        write_timeline(SectionTimeline([Section(0.0, 100.0, "non-taan")]),
                       detected)
        args = ["evaluate", "--detected", str(detected),
                "--truth", str(small_concert["timeline"])]
        assert main(args) == 0
        assert "Boundary deviation  no exact matches" in capsys.readouterr().out
        assert main(args + ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["boundary_deviation"] == {"empty": True}


@pytest.fixture(scope="module")
def truth_files(small_concert):
    """The small concert's truth in every format the truth reader takes."""
    root = small_concert["root"]
    grid = root / "truth.TextGrid"
    write_sections(read_timeline(small_concert["timeline"]), grid)
    utf16 = root / "truth16.TextGrid"
    utf16.write_bytes(grid.read_text("utf-8").encode("utf-16"))
    short = root / "truth_short.TextGrid"
    short.write_text(short_form(grid.read_text("utf-8")), encoding="utf-8")
    return {"timeline": small_concert["timeline"],
            "labels": small_concert["labels"], "textgrid": grid,
            "utf16": utf16, "short": short}


def tiers_grid(truth_files, tmp_path, tiers):
    """The truth TextGrid with its one interval tier written `tiers` times."""
    text = truth_files["textgrid"].read_text("utf-8")
    head, _, body = text.partition("item []:\n")
    path = tmp_path / f"{tiers}.TextGrid"
    path.write_text(head.replace("size = 1", f"size = {tiers}", 1)
                    + "item []:\n" + body * tiers, encoding="utf-8")
    return path


class TestTruthFormats:
    """Training and evaluation read a timeline TSV, a frame-label TSV or a
    long- or short-form TextGrid through one reader."""

    FORMATS = ["timeline", "textgrid", "utf16", "short"]

    @pytest.mark.parametrize("command, config", [
        ("train-mlp", '{"mlp_epochs": 20, "mlp_hidden": 20}'),
        ("train-cnn", '{"cnn_epochs": 1}')])
    def test_same_model_from_every_format(self, small_concert, features_csv,
                                          truth_files, tmp_path, command,
                                          config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        source = (["--features", str(features_csv)] if command == "train-mlp"
                  else ["--audio", str(small_concert["wav"])])

        def train(kind):
            out = tmp_path / f"{kind}.tseg"
            assert main(["--config", str(cfg), command, *source, "--labels",
                         str(truth_files[kind]), "--out", str(out)]) == 0
            return out.read_bytes(), Path(f"{out}.json").read_bytes()

        want = train("labels")
        for kind in self.FORMATS:
            assert train(kind) == want, kind

    @pytest.mark.parametrize("flag", ["--json", None])
    def test_evaluate_prints_the_same_report(self, small_concert,
                                             truth_files, capsys, flag):
        detected = small_concert["root"] / "truth.tsv"
        reports = []
        for kind in [*self.FORMATS, "labels"]:
            argv = ["evaluate", "--detected", str(detected),
                    "--truth", str(truth_files[kind])]
            assert main(argv + ([flag] if flag else [])) == 0
            reports.append(capsys.readouterr().out)
        assert ('"exact": 2' if flag else "Exact detection     2") in reports[0]
        assert reports == [reports[0]] * len(reports)

    def test_textgrid_as_detected(self, truth_files, capsys):
        assert main(["evaluate", "--detected", str(truth_files["utf16"]),
                     "--truth", str(truth_files["timeline"]), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["exact"] == 2

    @pytest.mark.parametrize("tiers", [0, 2])
    def test_textgrid_needs_one_interval_tier(self, truth_files, features_csv,
                                              tmp_path, capsys, tiers):
        grid = tiers_grid(truth_files, tmp_path, tiers)
        for argv in (["evaluate", "--detected", str(truth_files["timeline"]),
                      "--truth", str(grid)],
                     ["train-mlp", "--features", str(features_csv),
                      "--labels", str(grid), "--out", str(tmp_path / "m")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"{grid}: {tiers} interval tiers, not one" in err

    @pytest.mark.parametrize("label", ["Taan", "taan ", "akar taan", ""])
    def test_unknown_frame_label(self, small_concert, features_csv, tmp_path,
                                 capsys, label):
        lines = small_concert["labels"].read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if line.endswith("\ttaan"))
        lines[k] = lines[k].split("\t")[0] + "\t" + label
        bad = tmp_path / "labels.tsv"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["train-mlp", "--features", str(features_csv),
                   "--labels", str(bad), "--out", str(tmp_path / "m.tseg")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}:{k + 1}: unknown label {label!r}" in err
        assert not (tmp_path / "m.tseg").exists()

    def test_unknown_timeline_label(self, small_concert, tmp_path, capsys):
        bad = tmp_path / "truth.tsv"
        bad.write_text("0.0\t10.0\ttaan\n10.0\t20.0\talap\n")
        rc = main(["evaluate", "--detected", str(small_concert["timeline"]),
                   "--truth", str(bad)])
        assert rc == 2
        assert f"{bad}:2: unknown label 'alap'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train-mlp", "train-cnn", "evaluate"])
    def test_empty_truth_file(self, small_concert, features_csv, tmp_path,
                              capsys, command):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        argv = {"train-mlp": ["--features", str(features_csv), "--labels"],
                "train-cnn": ["--audio", str(small_concert["wav"]),
                              "--labels"],
                "evaluate": ["--detected", str(small_concert["timeline"]),
                             "--truth"]}[command]
        out = [] if command == "evaluate" else ["--out", str(tmp_path / "m")]
        assert main([command, *argv, str(empty), *out]) == 2
        err = capsys.readouterr().err
        assert f"{empty}: no sections" in err and "internal" not in err

    def test_overlapping_timeline_names_the_file(self, small_concert,
                                                 tmp_path, capsys):
        bad = tmp_path / "truth.tsv"
        bad.write_text("0.0\t10.0\ttaan\n5.0\t20.0\tnon-taan\n")
        rc = main(["evaluate", "--detected", str(small_concert["timeline"]),
                   "--truth", str(bad)])
        assert rc == 2
        assert f"{bad}: sections overlap" in capsys.readouterr().err


class TestFrameLabelTimes:
    """Row k of a frame-label truth file is the second [k, k+1), so its
    time must be k: other times are bad data at their line."""

    @pytest.mark.parametrize("times, line", [([0, 2, 4], 2),
                                             ([5, 6, 7], 1)])
    @pytest.mark.parametrize("command", ["evaluate", "train-mlp"])
    def test_row_not_at_its_second(self, small_concert, features_csv,
                                   tmp_path, capsys, times, line, command):
        bad = tmp_path / "labels.tsv"
        bad.write_text("".join(f"{t}.0\ttaan\n" for t in times))
        argv = {"evaluate": ["evaluate", "--detected",
                             str(small_concert["timeline"]), "--truth"],
                "train-mlp": ["train-mlp", "--features", str(features_csv),
                              "--out", str(tmp_path / "m.tseg"),
                              "--labels"]}[command]
        assert main([*argv, str(bad)]) == 2
        assert (f"{bad}:{line}: frame {line - 1} at {times[line - 1]}.0 s, "
                f"not {line - 1} s") in capsys.readouterr().err
        assert not (tmp_path / "m.tseg").exists()

    def test_train_cnn_reads_each_truth_after_its_audio(
            self, small_concert, tmp_path, capsys):
        """A bad first truth fails before the second WAV is read."""
        bad = tmp_path / "labels.tsv"
        bad.write_text("0.0\ttaan\n2.0\ttaan\n")
        rc = main(["train-cnn", "--audio", str(small_concert["wav"]),
                   "--labels", str(bad),
                   "--audio", str(tmp_path / "missing.wav"),
                   "--labels", str(small_concert["labels"]),
                   "--out", str(tmp_path / "cnn.tseg")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}:2: frame 1" in err and "missing.wav" not in err


class TestTrainCnnMemory:
    def test_only_the_training_patches_stay_alive(self, small_concert,
                                                  tmp_path, monkeypatch):
        """When training starts, each concert's spectrogram and patch array
        are gone: what is traced is the concatenated patches, not two
        spectrograms, two patch arrays and their concatenation."""
        clip, _, labels = synth_concert(ConcertScript(
            [SectionSpec("taan", 30.0), SectionSpec("steady-vocal", 30.0)],
            seed=2))
        wavio.write_wav(clip, tmp_path / "b.wav")
        (tmp_path / "b.tsv").write_text(
            "".join(f"{k}.0\t{lab}\n" for k, lab in enumerate(labels)))
        seen = {}

        def train(patches, labels, band_stats, **kwargs):
            seen["traced"] = tracemalloc.get_traced_memory()[0]
            seen["patches"] = patches.nbytes
            return cnn.cnn_init(0)

        monkeypatch.setattr(cnn, "cnn_train", train)
        tracemalloc.start()
        try:
            rc = main(["train-cnn", "--audio", str(small_concert["wav"]),
                       "--labels", str(small_concert["labels"]),
                       "--audio", str(tmp_path / "b.wav"),
                       "--labels", str(tmp_path / "b.tsv"),
                       "--out", str(tmp_path / "cnn.tseg")])
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert seen["patches"] == (99 + 59) * PATCH_BINS * 50 * 4   # float32
        assert seen["traced"] < 1.25 * seen["patches"]


class TestTrainCnnDivergence:
    def test_stderr_is_the_one_error_line(self, small_concert, tmp_path,
                                          capsys):
        """float32 overflows on the pool's threads before the first
        non-finite epoch loss stops training; no warning is printed."""
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({"cnn_epochs": 3, "cnn_lr0": 1e300}))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            rc = main(["--config", str(cfg), "train-cnn", "--audio",
                       str(small_concert["wav"]), "--labels",
                       str(small_concert["labels"]), "--out",
                       str(tmp_path / "cnn.tseg")])
        assert rc == 2
        assert [str(w.message) for w in seen] == []
        assert capsys.readouterr().err == (
            "error: training diverged: non-finite loss\n")
        assert not (tmp_path / "cnn.tseg").exists()


class TestTrainCnnBlockFailure:
    @pytest.mark.parametrize("stage", ["_conv_stack_forward",
                                       "_stage1_block_grads"])
    def test_internal_error_in_one_block_is_exit_3(
            self, small_concert, tmp_path, monkeypatch, capsys, stage):
        """A block that fails on a worker thread fails the command with
        exit 3, and no worker thread is left behind."""
        real, calls = getattr(cnn, stage), []

        def second_block_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise InternalError("block 2")
            return real(*args, **kwargs)

        monkeypatch.setattr(cnn, stage, second_block_fails)
        monkeypatch.setattr(pool, "WORKERS", 2)
        before = threading.active_count()
        rc = main(["train-cnn", "--audio", str(small_concert["wav"]),
                   "--labels", str(small_concert["labels"]),
                   "--out", str(tmp_path / "cnn.tseg")])
        assert rc == 3
        assert capsys.readouterr().err == (
            "internal error: InternalError: block 2\n")
        assert threading.active_count() == before
        assert not (tmp_path / "cnn.tseg").exists()


class TestInspectCnn:
    def test_channel_map_exports(self, small_concert, tmp_path):
        model_path = tmp_path / "cnn.tseg"
        save_model(cnn_init(seed=0), model_path)
        csv_path = tmp_path / "map.csv"
        pgm_path = tmp_path / "map.pgm"
        rc = main(["inspect-cnn", "--model", str(model_path),
                   "--audio", str(small_concert["wav"]),
                   "--second", "1", "--channel", "4",
                   "--out-csv", str(csv_path), "--out-pgm", str(pgm_path)])
        assert rc == 0
        cmap = np.loadtxt(csv_path, delimiter=",")
        assert cmap.shape == (21, 10)
        assert pgm_path.read_bytes().startswith(b"P5\n10 21\n255\n")

    @pytest.mark.parametrize("second", ["-1", "5000"])
    def test_second_out_of_range(self, small_concert, tmp_path, second):
        model_path = tmp_path / "cnn.tseg"
        save_model(cnn_init(seed=0), model_path)
        rc = main(["inspect-cnn", "--model", str(model_path),
                   "--audio", str(small_concert["wav"]),
                   "--second", second])
        assert rc == 1

    @pytest.mark.parametrize("rate", [8000, 16000, 44100])
    def test_map_equals_whole_clip_oracle(self, small_concert, tmp_path,
                                          rate):
        """The command's map is row --second of the library's maps of the
        whole clip's patches, at the first and the last second; one past
        the last is a usage error."""
        wav = small_concert["wav"]
        if rate != 8000:
            rng = np.random.default_rng(rate)
            wav = tmp_path / "noise.wav"
            wavio.write_wav(AudioClip(rng.uniform(-0.5, 0.5, 12 * rate + 77),
                                      rate), wav)
        model = cnn_init(seed=2)
        rng = np.random.default_rng(3)
        model.band_mean = rng.normal(-3.0, 1.0, size=PATCH_BINS)
        model.band_std = rng.uniform(0.5, 2.0, size=PATCH_BINS)
        model_path = tmp_path / "cnn.tseg"
        save_model(model, model_path)
        model = load_model(model_path)
        spec = log_spectrogram(resample(wavio.read_wav(wav), 8000),
                               win_s=0.04, hop_s=0.02, n_dft=1024)
        patches, _ = make_patches(spec, (model.band_mean, model.band_std))
        maps = frame_features(model, patches).reshape(
            (len(patches),) + SHAPE_CHAIN[4])
        for second in (0, len(patches) - 1):
            for channel in (0, 9):
                write_matrix_csv(maps[second, channel], tmp_path / "want.csv")
                rc = main(["inspect-cnn", "--model", str(model_path),
                           "--audio", str(wav), "--second", str(second),
                           "--channel", str(channel),
                           "--out-csv", str(tmp_path / "got.csv")])
                assert rc == 0
                assert ((tmp_path / "got.csv").read_bytes()
                        == (tmp_path / "want.csv").read_bytes())
        assert main(["inspect-cnn", "--model", str(model_path),
                     "--audio", str(wav),
                     "--second", str(len(patches))]) == 1

    def test_mlp_model_rejected(self, small_concert, mlp_model, tmp_path):
        rc = main(["inspect-cnn", "--model", str(mlp_model),
                   "--audio", str(small_concert["wav"])])
        assert rc == 2

    def test_audio_shorter_than_a_patch(self, half_second_wav, tmp_path,
                                        capsys):
        # bad data, with `classify --audio`'s message, not a usage error
        # naming the empty range 0..-1
        model_path = tmp_path / "cnn.tseg"
        save_model(cnn_init(seed=0), model_path)
        rc = main(["inspect-cnn", "--model", str(model_path),
                   "--audio", str(half_second_wav)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: no 1 s spectrogram patch: audio too short\n")

    @pytest.mark.parametrize("channel", ["-1", "10", "12"])
    def test_channel_out_of_range(self, small_concert, tmp_path, capsys,
                                  channel):
        # a usage error, as an out-of-range --second is
        model_path = tmp_path / "cnn.tseg"
        save_model(cnn_init(seed=0), model_path)
        rc = main(["inspect-cnn", "--model", str(model_path),
                   "--audio", str(small_concert["wav"]),
                   "--channel", channel])
        assert rc == 1
        assert "usage error: argument --channel" in capsys.readouterr().err


class TestBootstrapLabels:
    def _two_clusters(self, tmp_path, n):
        """argv of bootstrap-labels on two clusters of n frames each, two
        frames of each seeded."""
        rng = np.random.default_rng(0)
        feats = np.vstack([
            rng.normal(loc=[-1.5, -1.5, 0.0], scale=0.3, size=(n, 3)),
            rng.normal(loc=[1.5, 1.5, 0.0], scale=0.3, size=(n, 3)),
        ])
        seq = StyleFeatureSeq(features=feats,
                              vocal_mask=np.ones(2 * n, dtype=bool),
                              raw=feats.copy())
        feat_path = tmp_path / "features.csv"
        feat_mod.write_features(seq, feat_path)
        seed_path = tmp_path / "seed.tsv"
        seed_path.write_text(
            "0.0\tnon-taan\n1.0\tnon-taan\n40.0\ttaan\n41.0\ttaan\n")
        return ["bootstrap-labels", "--features", str(feat_path),
                "--seed-labels", str(seed_path),
                "--out", str(tmp_path / "labels.tsv")]

    def test_recovers_clusters(self, tmp_path):
        n = 40
        rc = main(self._two_clusters(tmp_path, n))
        assert rc == 0
        _, labels = read_frame_labels(tmp_path / "labels.tsv")
        assert labels[:n].count("non-taan") >= 0.9 * n
        assert labels[n:].count("taan") >= 0.9 * n

    def test_no_fixpoint_is_one_warning_line(self, tmp_path, capsys,
                                             monkeypatch):
        run = bootstrap.bootstrap_labels
        monkeypatch.setattr(bootstrap, "bootstrap_labels",
                            lambda x, seed: (run(x, seed)[0], 50, False))
        assert main(self._two_clusters(tmp_path, 40)) == 0
        err = capsys.readouterr().err
        assert err == "warning: no fixpoint after 50 rounds\n"

    @pytest.mark.parametrize("rows, where, message", [
        # 30.6 s and 31.4 s would both seed frame 31
        ([(30.6, "taan"), (31.4, "non-taan")], ":3:",
         "time 30.6 s is not a whole second >= 0"),
        ([(31.0, "taan"), (31.0, "non-taan")], ":4:",
         "a second row at 31.0 s"),
        ([(-0.4, "taan")], ":3:", "time -0.4 s is not a whole second >= 0"),
        ([(7.0, "instrumental")], ":",
         "seed labels must contain exactly 2 classes, not ['instrumental', "
         "'non-taan', 'taan']")],
        ids=["fraction", "repeat", "negative", "three-classes"])
    def test_seed_file_fault_names_the_file(self, features_csv, tmp_path,
                                            capsys, rows, where, message):
        seeds = tmp_path / "seeds.tsv"
        seeds.write_text("".join(f"{t}\t{lab}\n" for t, lab in [
            (0.0, "taan"), (1.0, "taan"), *rows, (3.0, "non-taan"),
            (4.0, "non-taan")]))
        out = tmp_path / "out.tsv"
        rc = main(["bootstrap-labels", "--features", str(features_csv),
                   "--seed-labels", str(seeds), "--out", str(out)])
        assert rc == 2
        assert f"{seeds}{where} {message}" in capsys.readouterr().err
        assert not out.exists()


class TestConfigValues:
    def test_int_for_float_field_gives_the_same_features(
            self, small_concert, tmp_path):
        out = []
        for value in ("100", "100.0"):
            cfg = tmp_path / f"cfg_{value}.json"
            cfg.write_text(f'{{"f0_min_hz": {value}}}')
            out.append(tmp_path / f"features_{value}.csv")
            assert main(["--config", str(cfg), "features", "--audio",
                         str(small_concert["wav"]),
                         "--out", str(out[-1])]) == 0
        assert out[0].read_bytes() == out[1].read_bytes()


class TestExitCodes:
    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_unknown_flag(self):
        assert main(["synth", "--bogus", "x", "--out-wav", "y.wav"]) == 1

    def test_missing_input_file(self, tmp_path):
        rc = main(["tracks", "--audio", str(tmp_path / "absent.wav"),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2

    def test_bad_config(self, small_concert, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"no_such_knob": 1}')
        rc = main(["--config", str(cfg), "synth",
                   "--out-wav", str(tmp_path / "x.wav")])
        assert rc == 2

    def test_segment_with_cnn_model(self, small_concert, tmp_path):
        model_path = tmp_path / "cnn.tseg"
        save_model(cnn_init(seed=0), model_path)
        out = tmp_path / "t.tsv"
        rc = main(["segment", "--audio", str(small_concert["wav"]),
                   "--model", str(model_path), "--out", str(out)])
        assert rc == 0
        tl = read_timeline(out)
        assert len(tl) >= 1
        assert tl.span()[0] == 0.0


    def test_unexpected_exception_is_exit_3(self, small_concert, tmp_path,
                                            monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(pipeline, "segment_audio", broken)
        model_path = tmp_path / "cnn.tseg"
        save_model(cnn_init(seed=0), model_path)
        rc = main(["segment", "--audio", str(small_concert["wav"]),
                   "--model", str(model_path),
                   "--out", str(tmp_path / "t.tsv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: boom\n"


def point_tier_grid(truth_files, tmp_path):
    """The truth TextGrid with a point tier after its interval tier."""
    text = truth_files["textgrid"].read_text("utf-8")
    path = tmp_path / "points.TextGrid"
    path.write_text(text.replace("size = 1", "size = 2", 1) + "\n".join([
        "    item [2]:", '        class = "TextTier"', '        name = "beats"',
        "        xmin = 0.0", "        xmax = 100.0", "        points: size = 1",
        "        points [1]:", "            number = 5.0",
        '            mark = "sam"', ""]), encoding="utf-8")
    return path


class TestLibraryWarnings:
    """A warning raised while a command runs, on any thread, is one
    `warning: <message>` line on stderr, also when the command fails."""

    def test_textgrid_point_tier(self, truth_files, tmp_path, capsys):
        grid = point_tier_grid(truth_files, tmp_path)
        assert main(["evaluate", "--detected", str(truth_files["timeline"]),
                     "--truth", str(grid), "--json"]) == 0
        out, err = capsys.readouterr()
        assert err == f"warning: {grid}: point tier 'beats' skipped\n"
        assert json.loads(out)["exact"] == 2

    def test_overflow_on_a_pool_thread(self, small_concert, mlp_model,
                                       tmp_path, capsys, monkeypatch):
        def overflow_unvoiced(mags, best_sum, scale):
            np.full(1, 1e308) * 10.0
            return np.zeros(len(best_sum), dtype=bool)

        # every tracked block overflows on a worker, and nothing is voiced
        monkeypatch.setattr(vocal, "_voiced", overflow_unvoiced)
        rc = main(["segment", "--audio", str(small_concert["wav"]),
                   "--model", str(mlp_model),
                   "--out", str(tmp_path / "t.tsv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "warning: overflow encountered in multiply\n"
            "error: no vocal frames: nothing to normalize\n")


SECONDS_FIELDS = ["vocal_min_run_s", "vocal_max_gap_s", "smooth_window_s",
                  "novelty_half_width_s", "pick_neighborhood_s",
                  "group_vocal_gap_s", "group_instr_gap_s"]


class TestSecondsFields:
    """Every config field measured in seconds becomes frames by the one
    capped rule: an extreme value is data (exit 0 or 2), never a bug. No
    voiced run lasts 1e308 s, so nothing is vocal; every gap between vocal
    runs is shorter, so all are absorbed."""

    EXIT = {("vocal_min_run_s", 1e308): (2,), ("vocal_max_gap_s", 1e308): (0,)}

    @pytest.mark.parametrize("value", [1e308, 1e-300])
    @pytest.mark.parametrize("name", SECONDS_FIELDS)
    def test_segment_exit_code(self, small_concert, mlp_model, tmp_path,
                               capsys, name, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: value}))
        rc = main(["--config", str(cfg), "segment", "--audio",
                   str(small_concert["wav"]), "--model", str(mlp_model),
                   "--out", str(tmp_path / "t.tsv")])
        assert rc in self.EXIT.get((name, value), (0, 2)), (
            capsys.readouterr().err)


@pytest.fixture
def half_second_wav(tmp_path):
    """A 0.5 s 8 kHz tone: shorter than one 1 s CNN patch."""
    wav = tmp_path / "short.wav"
    t = np.arange(4000) / 8000.0
    wavio.write_wav(AudioClip(0.5 * np.sin(2 * np.pi * 220.0 * t), 8000), wav)
    return wav


def model_file(path, header):
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<HI", VERSION, len(blob)) + blob)
    return path


class TestReaderCrashes:
    """Malformed inputs that once escaped as Python errors exit with 2."""

    def test_cnn_classify_audio_shorter_than_a_patch(self, half_second_wav,
                                                     tmp_path, capsys):
        model_path = tmp_path / "cnn.tseg"
        save_model(cnn_init(seed=0), model_path)
        rc = main(["classify", "--model", str(model_path),
                   "--audio", str(half_second_wav),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        assert "too short" in capsys.readouterr().err

    @pytest.mark.parametrize("header", [
        {"layers": []},                                 # no kind
        {"kind": "mlp"},                                # no layers
        {"kind": "mlp", "layers": {}},
        {"kind": "mlp", "layers": []},                  # no arrays
        {"kind": "mlp", "layers": [{"shape": [1]}]},
        {"kind": "mlp", "layers": [{"name": "w1", "shape": [-1]}]},
        {"kind": "mlp", "layers": [{"name": "w1", "shape": [2 ** 40]}]},
        {"kind": "cnn", "layers": ["conv1_w"]},
        [],
    ])
    def test_model_header_structure(self, features_csv, tmp_path, capsys,
                                    header):
        model_path = model_file(tmp_path / "bad.tseg", header)
        rc = main(["classify", "--model", str(model_path),
                   "--features", str(features_csv),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        assert str(model_path) in capsys.readouterr().err

    def test_wav_fmt_chunk_too_short(self, tmp_path, capsys):
        fmt = struct.pack("<HHI", 1, 1, 8000)
        chunks = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                  + b"data" + struct.pack("<I", 4) + bytes(4))
        wav = tmp_path / "short_fmt.wav"
        wav.write_bytes(b"RIFF" + struct.pack("<I", len(chunks)) + chunks)
        rc = main(["tracks", "--audio", str(wav),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "fmt chunk" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("{}", "'sections'"),
        ('{"sections": [{"style": "taan", "duration_s": 5.0, "tempo": 1}]}',
         "'tempo'"),
        ('{"sections": [{"style": "taan", "duration_s": "x"}]}',
         "'duration_s'"),
        ('[{"style": "taan", "duration_s": 5.0}]', "JSON object"),
        # checked before any sample is drawn or rendered
        ('{"sample_rate": -8000, "sections": [{"style": "taan", '
         '"duration_s": 5.0}]}', "sample_rate -8000 not in accepted set"),
        ('{"sample_rate": 12345, "sections": [{"style": "taan", '
         '"duration_s": 1800.0}]}', "sample_rate 12345 not in accepted set"),
        ('{"sections": [{"style": "steady-vocal", "duration_s": 5.0, '
         '"f0_hz": 0}]}', "section 0: f0_hz 0 is not finite and > 0"),
        ('{"sections": [{"style": "taan", "duration_s": 5.0, '
         '"f0_hz": -220}]}', "section 0: f0_hz -220 is not finite and > 0"),
    ], ids=["no-sections", "unknown-section-key", "duration-not-number",
            "top-level-list", "negative-rate", "unaccepted-rate", "zero-f0",
            "negative-f0"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_synth_script_contract(self, tmp_path, capsys, text, key):
        script = tmp_path / "script.json"
        script.write_text(text)
        rc = main(["synth", "--script", str(script),
                   "--out-wav", str(tmp_path / "x.wav")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{script}: " in err and key in err

    @pytest.mark.parametrize("fmt, payload, stated, message", [
        ((1, 1, 8000, 16000, 2, 16), bytes(8001), None,
         "not a whole number of 16-bit samples"),
        ((3, 1, 8000, 32000, 4, 32), bytes(8002), None,
         "not a whole number of 32-bit samples"),
        ((1, 0, 8000, 16000, 2, 16), bytes(8000), None, "0 channels"),
        ((1, 1, 8000, 16000, 2, 16), bytes(8000), 16000,
         "states 16000 bytes but only 8000 follow"),
    ], ids=["pcm16-odd-bytes", "float32-partial-sample", "zero-channels",
            "data-past-end-of-file"])
    def test_wav_data_chunk_contract(self, tmp_path, capsys, fmt, payload,
                                     stated, message):
        fmt_body = struct.pack("<HHIIHH", *fmt)
        size = len(payload) if stated is None else stated
        chunks = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_body))
                  + fmt_body + b"data" + struct.pack("<I", size) + payload)
        wav = tmp_path / "bad.wav"
        wav.write_bytes(b"RIFF" + struct.pack("<I", len(chunks)) + chunks)
        rc = main(["tracks", "--audio", str(wav),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{wav}: " in err and message in err

    @pytest.mark.parametrize("content", [
        b"TSEG\x01",                                   # cut after the magic
        b"TSEG" + struct.pack("<HI", 1, 2) + b"\xff{",  # header not UTF-8
    ])
    def test_model_truncated_or_garbled(self, features_csv, tmp_path, content):
        model_path = tmp_path / "cut.tseg"
        model_path.write_bytes(content)
        rc = main(["classify", "--model", str(model_path),
                   "--features", str(features_csv),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2

    def test_features_non_numeric_cell(self, tmp_path, capsys):
        feat = tmp_path / "features.csv"
        feat.write_text("frame_s,mod_rate,mod_energy,energy_zcr,vocal\n"
                        "0.0,1.0,2.0,3.0,1\n"
                        "1.0,fast,2.0,3.0,1\n")
        rc = main(["bootstrap-labels", "--features", str(feat),
                   "--seed-labels", str(tmp_path / "seed.tsv"),
                   "--out", str(tmp_path / "labels.tsv")])
        assert rc == 2
        assert f"{feat}:3:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"f0_min_hz": "low"}', '[]', '7'])
    def test_config_wrong_typed_value(self, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main(["--config", str(cfg), "synth",
                   "--out-wav", str(tmp_path / "x.wav")])
        assert rc == 2

    @pytest.mark.parametrize("text", [
        '{"n_harmonics": 2.5}', '{"n_harmonics": true}',
        '{"class_balance": 1}', '{"conv_activation": 3}',
        '{"f0_max_hz": "600"}'])
    def test_config_value_not_of_field_type(self, half_second_wav, tmp_path,
                                            capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main(["--config", str(cfg), "tracks",
                   "--audio", str(half_second_wav),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert json.loads(text).popitem()[0] in capsys.readouterr().err

    def test_float_wav_with_non_finite_sample(self, tmp_path, capsys):
        for value in (np.nan, np.inf, -np.inf):
            samples = np.zeros(8000, dtype="<f4")
            samples[100] = value
            payload = samples.tobytes()
            fmt = struct.pack("<HHIIHH", 3, 1, 8000, 32000, 4, 32)
            chunks = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                      + b"data" + struct.pack("<I", len(payload)) + payload)
            wav = tmp_path / "float.wav"
            wav.write_bytes(b"RIFF" + struct.pack("<I", len(chunks)) + chunks)
            rc = main(["tracks", "--audio", str(wav),
                       "--out", str(tmp_path / "t.csv")])
            assert rc == 2
            assert f"{wav}: non-finite sample" in capsys.readouterr().err


class TestNonFiniteInputs:
    """Non-finite times and config floats, and JSON syntax errors, exit 2
    with the file's location instead of a traceback."""

    def test_evaluate_nan_end_time(self, small_concert, tmp_path, capsys):
        truth = tmp_path / "truth.tsv"
        truth.write_text("0.0\t200.0\tnon-taan\n200.0\tnan\ttaan\n")
        rc = main(["evaluate", "--detected", str(small_concert["timeline"]),
                   "--truth", str(truth)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{truth}:2: end_s is not finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("time, message", [
        ("nan", ":3: time_s is not finite"), ("1e300", "out of range")])
    def test_bootstrap_seed_time(self, features_csv, tmp_path, capsys, time,
                                 message):
        seeds = tmp_path / "seeds.tsv"
        seeds.write_text(f"0.0\ttaan\n1.0\ttaan\n{time}\tnon-taan\n"
                         "3.0\tnon-taan\n4.0\tnon-taan\n")
        rc = main(["bootstrap-labels", "--features", str(features_csv),
                   "--seed-labels", str(seeds),
                   "--out", str(tmp_path / "out.tsv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ('{"f0_grid_cents": NaN}', "'f0_grid_cents': nan is not a finite"),
        ('{"voicing_factor": NaN}', "'voicing_factor': nan is not a finite"),
        ('{"conv_activation": "relu"}', "unknown config keys"),
        ('{"mlp_hidden": 50,\n}', ":2: bad JSON"),
        pytest.param('{"mlp_hidden": ' + "1" * 5000 + '}',
                     "value out of range", id="int-over-digit-limit"),
        # values that passed the range checks and then exited 3 in the
        # tracker (an F0 grid or harmonic stack too large to allocate, or a
        # float overflow) or in train-mlp (mlp_hidden); the config is
        # checked before any command runs
        ('{"f0_grid_cents": 1e-300}', ": f0_grid_cents must be >= 1"),
        ('{"f0_min_hz": 1e-320}', ": f0_min_hz must be >= 7.8125"),
        ('{"harmonic_tol_cents": 1e300}', ": harmonic_tol_cents must be <="),
        ('{"n_harmonics": 1000000000000}', ": n_harmonics must be <= 63"),
        ('{"mlp_hidden": 1000000000000}', ": mlp_hidden must be <= 4096"),
        # its product with the harmonic weight sum overflowed, and `tracks`
        # exited 0 with numpy's overflow warning and nothing voiced
        ('{"voicing_factor": 1e308}', ": voicing_factor must be <= 1e+300")])
    def test_config(self, half_second_wav, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        rc = main(["--config", str(cfg), "tracks",
                   "--audio", str(half_second_wav),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{cfg}" in err and message in err and "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name, index, value", [
        ("fc_w", (0, 0), np.nan), ("band_std", (5,), 0.0),
        ("conv1_w", (0, 0, 3, 3), 1e300)],
        ids=["nan-fc_w", "zero-band_std", "conv1_w-over-float32"])
    def test_classify_audio_with_broken_cnn(self, small_concert, tmp_path,
                                            capsys, name, index, value):
        # such a model loaded and classify exited 0 with NaN posteriors
        model = cnn_init(seed=0)
        getattr(model, name)[index] = value
        model_path = tmp_path / "cnn.tseg"
        save_model(model, model_path)
        rc = main(["classify", "--audio", str(small_concert["wav"]),
                   "--model", str(model_path),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{model_path}" in err and name in err
        assert not (tmp_path / "p.csv").exists()

NOT_UTF8 = b"0.0\t1.0\tta\xffan\n"


class TestNotUtf8:
    """Every UTF-8 text reader turns undecodable bytes into exit 2 with the
    file's path, not a UnicodeDecodeError traceback."""

    @pytest.mark.parametrize("argv", [
        ["features", "--track", "{bad}", "--out", "{out}"],
        ["evaluate", "--detected", "{bad}", "--truth", "{truth}"],
        ["classify", "--model", "{model}", "--features", "{bad}",
         "--out", "{out}"],
        ["bootstrap-labels", "--features", "{features}",
         "--seed-labels", "{bad}", "--out", "{out}"],
        ["--config", "{bad}", "synth", "--out-wav", "{out}"],
        ["synth", "--script", "{bad}", "--out-wav", "{out}"],
    ], ids=["track-csv", "timeline-tsv", "feature-csv", "frame-label-tsv",
            "config-json", "synth-script-json"])
    def test_reader(self, small_concert, features_csv, mlp_model, tmp_path,
                    capsys, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(NOT_UTF8)
        paths = {"bad": bad, "out": tmp_path / "out", "model": mlp_model,
                 "truth": small_concert["timeline"], "features": features_csv}
        rc = main([a.format(**paths) for a in argv])
        assert rc == 2
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err

    def test_model_sidecar(self, features_csv, mlp_model, tmp_path, capsys):
        model = tmp_path / "model.tseg"
        model.write_bytes(mlp_model.read_bytes())
        sidecar = tmp_path / "model.tseg.json"
        sidecar.write_bytes(NOT_UTF8)
        rc = main(["classify", "--model", str(model),
                   "--features", str(features_csv),
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 2
        assert f"{sidecar}: not UTF-8 text" in capsys.readouterr().err


def wav_file(path, fmt_body, payload):
    """Write a RIFF/WAVE file of one fmt chunk and one data chunk."""
    chunks = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
              + b"data" + struct.pack("<I", len(payload)) + payload)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(chunks)) + chunks)
    return path


def fmt_body(code, bits, channels=2, sr=44100, extension=None):
    """A 16-byte fmt body, followed by `extension` when given."""
    align = channels * bits // 8
    body = struct.pack("<HHIIHH", code, channels, sr, sr * align, align, bits)
    return body if extension is None else body + extension


def extension(sub_code, bits, tail=wavio._GUID_TAIL):
    """The 22-byte WAVE_FORMAT_EXTENSIBLE extension, with its size field:
    valid bits, a front-left/front-right channel mask and the sub-format
    GUID."""
    return (struct.pack("<HHI", 22, bits, 3)
            + struct.pack("<H", sub_code) + tail)


class TestExtensibleWav:
    """A WAVE_FORMAT_EXTENSIBLE file carrying 16-bit PCM or 32-bit float
    tracks bit-identically to the same audio in a plain fmt chunk."""

    @staticmethod
    def stereo(seconds=3.0, sr=44100):
        t = np.arange(int(seconds * sr)) / sr
        voice = sum(np.sin(2 * np.pi * h * 196.0 * t) / h for h in range(1, 7))
        noise = 0.01 * np.random.default_rng(8).standard_normal((len(t), 2))
        return np.column_stack((0.25 * voice, 0.2 * voice)) / 2.5 + noise

    @pytest.mark.parametrize("code, bits", [(1, 16), (3, 32)],
                             ids=["pcm16", "float32"])
    def test_tracks_as_plain_format(self, tmp_path, code, bits):
        x = self.stereo()
        if code == 1:
            payload = np.round(x * 32767).astype("<i2").tobytes()
        else:
            payload = x.astype("<f4").tobytes()
        tracks = []
        for name, body in (
                ("plain", fmt_body(code, bits)),
                ("ext", fmt_body(wavio.WAVE_FORMAT_EXTENSIBLE, bits,
                                 extension=extension(code, bits)))):
            wav = wav_file(tmp_path / f"{name}.wav", body, payload)
            out = tmp_path / f"{name}.csv"
            assert main(["tracks", "--audio", str(wav), "--out", str(out)]) == 0
            tracks.append(out.read_bytes())
        assert tracks[0] == tracks[1]
        assert b",1\n" in tracks[0]   # some frames are voiced

    @pytest.mark.parametrize("ext, message", [
        (extension(2, 16), "unsupported extensible sub-format"),
        (extension(1, 16, tail=bytes(14)), "unsupported extensible sub-format"),
        (extension(1, 16)[:10], "lacks its 22-byte extension"),
        (struct.pack("<H", 0), "lacks its 22-byte extension"),
    ], ids=["adpcm-guid", "foreign-guid", "truncated", "no-extension"])
    def test_bad_extension(self, tmp_path, capsys, ext, message):
        wav = wav_file(tmp_path / "bad.wav",
                       fmt_body(wavio.WAVE_FORMAT_EXTENSIBLE, 16,
                                extension=ext), bytes(4000))
        rc = main(["tracks", "--audio", str(wav),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{wav}: " in err and message in err


README = Path(__file__).resolve().parent.parent / "README.md"


class TestReadme:
    def test_library_example_runs(self, small_concert, mlp_model, tmp_path,
                                  monkeypatch, capsys):
        # the README's only python block, run verbatim next to the two
        # files it names
        blocks = re.findall(r"```python\n(.*?)```",
                            README.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1
        shutil.copy(small_concert["wav"], tmp_path / "concert.wav")
        shutil.copy(mlp_model, tmp_path / "mlp.tseg")
        monkeypatch.chdir(tmp_path)
        exec(compile(blocks[0], str(README), "exec"), {})
        rows = [line.split() for line in
                capsys.readouterr().out.splitlines()]
        assert rows
        for row in rows:
            start, end = map(float, row)
            assert 0.0 <= start < end <= 100.0
