"""End-to-end tests of the command-line interface, exercised through
`main(argv)` with small synthetic inputs."""

import json
import struct

import numpy as np
import pytest

from taanseg import features as feat_mod
from taanseg import wavio
from taanseg.bootstrap import read_frame_labels
from taanseg.cli import main
from taanseg.cnn import cnn_init
from taanseg.dsp import AudioClip
from taanseg.features import StyleFeatureSeq
from taanseg.modelio import MAGIC, VERSION, load_model, save_model
from taanseg.segmentation import (Section, SectionTimeline, read_timeline,
                                  write_timeline)
from taanseg.synth import ConcertScript, SectionSpec, script_to_json


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

    def test_segment_end_to_end(self, small_concert, mlp_model, tmp_path):
        out = tmp_path / "detected.tsv"
        rc = main(["segment", "--audio", str(small_concert["wav"]),
                   "--model", str(mlp_model), "--out", str(out)])
        assert rc == 0
        tl = read_timeline(out)
        assert len(tl) >= 1
        assert tl.span()[0] == 0.0

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

    def test_second_out_of_range(self, small_concert, tmp_path):
        model_path = tmp_path / "cnn.tseg"
        save_model(cnn_init(seed=0), model_path)
        rc = main(["inspect-cnn", "--model", str(model_path),
                   "--audio", str(small_concert["wav"]),
                   "--second", "5000"])
        assert rc == 1

    def test_mlp_model_rejected(self, small_concert, mlp_model, tmp_path):
        rc = main(["inspect-cnn", "--model", str(mlp_model),
                   "--audio", str(small_concert["wav"])])
        assert rc == 2


class TestBootstrapLabels:
    def test_recovers_clusters(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 40
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
        out = tmp_path / "labels.tsv"
        rc = main(["bootstrap-labels", "--features", str(feat_path),
                   "--seed-labels", str(seed_path), "--out", str(out)])
        assert rc == 0
        _, labels = read_frame_labels(out)
        assert labels[:n].count("non-taan") >= 0.9 * n
        assert labels[n:].count("taan") >= 0.9 * n


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

    def test_segment_with_cnn_model(self, small_concert, tmp_path, capsys):
        model_path = tmp_path / "cnn.tseg"
        save_model(cnn_init(seed=0), model_path)
        rc = main(["segment", "--audio", str(small_concert["wav"]),
                   "--model", str(model_path),
                   "--out", str(tmp_path / "t.tsv")])
        assert rc == 2
        assert "classify --audio" in capsys.readouterr().err


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
    ], ids=["no-sections", "unknown-section-key", "duration-not-number",
            "top-level-list"])
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
