"""Tests for WAV reading/writing, TextGrid parsing/emission, the binary
model container, matrix exports, and pipeline configuration loading."""

import json
import struct

import numpy as np
import pytest

from taanseg.cnn import cnn_init
from taanseg.config import ENV_VAR, PipelineConfig, load_config
from taanseg.dsp import AudioClip
from taanseg.errors import (
    DataError,
    FormatError,
    ParseError,
    UnsupportedFormatError,
)
from taanseg.mlp import mlp_init
from taanseg.modelio import load_model, save_model, write_matrix_csv, write_pgm
from taanseg.segmentation import Section, SectionTimeline
from taanseg.textgrid import (
    Interval,
    IntervalTier,
    TextGridDoc,
    emit_textgrid,
    parse_textgrid,
    tier_to_timeline,
    timeline_to_doc,
)
from taanseg.wavio import read_wav, write_wav


class TestWav:
    def test_round_trip(self, tmp_path):
        t = np.arange(8000) / 8000.0
        clip = AudioClip(0.5 * np.sin(2 * np.pi * 220 * t), 8000)
        path = tmp_path / "tone.wav"
        write_wav(clip, path)
        back = read_wav(path)
        assert back.sample_rate == 8000
        assert len(back.samples) == len(clip.samples)
        assert np.max(np.abs(back.samples - clip.samples)) < 1.0 / 32768

    def test_pcm16_scaling(self, tmp_path):
        path = tmp_path / "scale.wav"
        write_wav(AudioClip(np.array([0.0, 0.5, -0.5]), 8000), path)
        raw = path.read_bytes()
        ints = np.frombuffer(raw[44:], dtype="<i2")
        assert list(ints) == [0, 16384, -16384]

    def test_clipping(self, tmp_path):
        path = tmp_path / "clip.wav"
        write_wav(AudioClip(np.array([1.5, -1.5]), 8000), path)
        ints = np.frombuffer(path.read_bytes()[44:], dtype="<i2")
        assert list(ints) == [32767, -32768]

    def test_float32_read(self, tmp_path):
        samples = np.array([0.25, -0.75, 0.0], dtype="<f4")
        payload = samples.tobytes()
        path = tmp_path / "float.wav"
        with open(path, "wb") as fh:
            fh.write(b"RIFF")
            fh.write(struct.pack("<I", 36 + len(payload)))
            fh.write(b"WAVEfmt ")
            fh.write(struct.pack("<IHHIIHH", 16, 3, 1, 8000, 32000, 4, 32))
            fh.write(b"data")
            fh.write(struct.pack("<I", len(payload)))
            fh.write(payload)
        clip = read_wav(path)
        assert np.allclose(clip.samples, [0.25, -0.75, 0.0])

    def test_stereo_averaged(self, tmp_path):
        frames = np.array([100, 300, -200, 400], dtype="<i2")  # L R L R
        payload = frames.tobytes()
        path = tmp_path / "stereo.wav"
        with open(path, "wb") as fh:
            fh.write(b"RIFF")
            fh.write(struct.pack("<I", 36 + len(payload)))
            fh.write(b"WAVEfmt ")
            fh.write(struct.pack("<IHHIIHH", 16, 1, 2, 8000, 32000, 4, 16))
            fh.write(b"data")
            fh.write(struct.pack("<I", len(payload)))
            fh.write(payload)
        clip = read_wav(path)
        assert np.allclose(clip.samples * 32768.0, [200.0, 100.0])

    def test_unsupported_encoding(self, tmp_path):
        path = tmp_path / "alaw.wav"
        with open(path, "wb") as fh:
            fh.write(b"RIFF")
            fh.write(struct.pack("<I", 36))
            fh.write(b"WAVEfmt ")
            fh.write(struct.pack("<IHHIIHH", 16, 6, 1, 8000, 8000, 1, 8))
            fh.write(b"data")
            fh.write(struct.pack("<I", 0))
        with pytest.raises(UnsupportedFormatError):
            read_wav(path)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(ParseError):
            read_wav(path)


def _doc():
    return TextGridDoc(
        xmin=0.0, xmax=60.0,
        tiers=[IntervalTier(
            name="sections", xmin=0.0, xmax=60.0,
            intervals=[
                Interval(0.0, 20.0, ""),
                Interval(20.0, 45.0, "akar taan"),
                Interval(45.0, 60.0, "alap"),
            ],
        )],
    )


class TestTextGrid:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "grid.TextGrid"
        emit_textgrid(_doc(), path)
        back = parse_textgrid(path)
        assert back == _doc()

    def test_quote_escaping(self, tmp_path):
        doc = _doc()
        doc.tiers[0].intervals[2].text = 'said "taan" twice'
        path = tmp_path / "quotes.TextGrid"
        emit_textgrid(doc, path)
        assert parse_textgrid(path) == doc

    def test_utf16_input(self, tmp_path):
        path8 = tmp_path / "utf8.TextGrid"
        emit_textgrid(_doc(), path8)
        path16 = tmp_path / "utf16.TextGrid"
        path16.write_bytes(path8.read_text("utf-8").encode("utf-16"))
        assert parse_textgrid(path16) == _doc()

    def test_point_tier_skipped_with_warning(self, tmp_path):
        path = tmp_path / "points.TextGrid"
        emit_textgrid(_doc(), path)
        text = path.read_text("utf-8").replace("size = 1", "size = 2")
        text += "\n".join([
            "    item [2]:",
            '        class = "TextTier"',
            '        name = "beats"',
            "        xmin = 0.0",
            "        xmax = 60.0",
            "        points: size = 1",
            "        points [1]:",
            "            number = 5.0",
            '            mark = "sam"',
            "",
        ])
        path.write_text(text, encoding="utf-8")
        with pytest.warns(UserWarning, match="point tier"):
            doc = parse_textgrid(path)
        assert len(doc.tiers) == 1

    def test_overlapping_intervals_rejected(self, tmp_path):
        doc = _doc()
        doc.tiers[0].intervals[1] = Interval(15.0, 45.0, "taan")
        path = tmp_path / "overlap.TextGrid"
        emit_textgrid(doc, path)
        with pytest.raises(DataError):
            parse_textgrid(path)

    def test_short_form_rejected(self, tmp_path):
        path = tmp_path / "short.TextGrid"
        path.write_text(
            'File type = "ooTextFile"\n"TextGrid"\n0\n60\n<exists>\n1\n',
            encoding="utf-8",
        )
        with pytest.raises(ParseError):
            parse_textgrid(path)

    @pytest.mark.parametrize("raw", [
        b'File type = "ooTextFile"\n\xff\n',          # not UTF-8
        b'\xef\xbb\xbfFile type = "ooTextFile"\n\xff\n',  # BOM, then not
        b'\xff\xfeF\x00i',                             # cut UTF-16
    ], ids=["utf-8", "utf-8-bom", "utf-16-cut"])
    def test_undecodable_text_rejected(self, tmp_path, raw):
        path = tmp_path / "bad.TextGrid"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match="undecodable text") as info:
            parse_textgrid(path)
        assert info.value.path == path

    def test_tier_to_timeline_label_mapping(self):
        tl = tier_to_timeline(_doc().tiers[0])
        assert [s.label for s in tl] == ["instrumental", "taan", "non-taan"]

    def test_timeline_round_trip(self):
        tl = SectionTimeline([
            Section(0.0, 30.0, "taan"),
            Section(30.0, 50.0, "non-taan"),
            Section(50.0, 70.0, "instrumental"),
        ])
        back = tier_to_timeline(timeline_to_doc(tl).tiers[0])
        assert back.sections == tl.sections


class TestModelContainer:
    def test_mlp_bit_exact_round_trip(self, tmp_path):
        model = mlp_init(300, seed=5)
        model.meta["note"] = "unit"
        path = tmp_path / "mlp.tseg"
        save_model(model, path)
        back = load_model(path)
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(back, name), getattr(model, name))
        assert back.meta["note"] == "unit"

    def test_cnn_bit_exact_round_trip(self, tmp_path):
        model = cnn_init(seed=2)
        path = tmp_path / "cnn.tseg"
        save_model(model, path)
        back = load_model(path)
        for name in ("conv1_w", "conv1_b", "conv2_w", "conv2_b",
                     "fc_w", "fc_b", "out_w", "out_b",
                     "band_mean", "band_std"):
            assert np.array_equal(getattr(back, name), getattr(model, name))

    def test_magic_and_sidecar(self, tmp_path):
        path = tmp_path / "m.tseg"
        save_model(mlp_init(4, seed=0), path)
        assert path.read_bytes()[:4] == b"TSEG"
        sidecar = json.loads((tmp_path / "m.tseg.json").read_text())
        assert sidecar["seed"] == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tseg"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError):
            load_model(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.tseg"
        save_model(mlp_init(4, seed=0), path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_model(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.tseg"
        save_model(mlp_init(4, seed=0), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(ParseError):
            load_model(path)

    def test_unserializable_object(self, tmp_path):
        with pytest.raises(FormatError):
            save_model({"not": "a model"}, tmp_path / "x.tseg")


class TestMatrixExports:
    def test_pgm_header_and_scaling(self, tmp_path):
        path = tmp_path / "map.pgm"
        write_pgm(np.array([[0.0, 1.0], [2.0, 4.0]]), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        pix = np.frombuffer(raw[len(b"P5\n2 2\n255\n") :], dtype=np.uint8)
        assert pix[0] == 0 and pix[3] == 255

    def test_pgm_constant_matrix(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_pgm(np.full((3, 3), 7.0), path)
        pix = np.frombuffer(path.read_bytes()[len(b"P5\n3 3\n255\n") :],
                            dtype=np.uint8)
        assert np.all(pix == 0)

    def test_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        m = np.array([[1.5, -2.0], [0.0, 3.25]])
        write_matrix_csv(m, path)
        assert np.allclose(np.loadtxt(path, delimiter=","), m)


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg == PipelineConfig()
        assert cfg.mlp_hidden == 300
        assert cfg.novelty_half_width_s == 5.0

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"mlp_hidden": 50, "taan_threshold": 0.6}')
        cfg = load_config(path)
        assert cfg.mlp_hidden == 50
        assert cfg.taan_threshold == 0.6
        assert cfg.f0_min_hz == 80.0

    def test_int_for_float_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"f0_min_hz": 100, "taan_threshold": 1, '
                        '"class_balance": false, "conv_activation": "relu"}')
        cfg = load_config(path)
        assert cfg.f0_min_hz == 100 and cfg.taan_threshold == 1
        assert cfg.class_balance is False and cfg.conv_activation == "relu"

    @pytest.mark.parametrize("text", ['{"mlp_hidden": 50.0}',
                                      '{"mlp_epochs": false}',
                                      '{"taan_threshold": true}',
                                      '{"gaussian_taper": 0}',
                                      '{"conv_activation": null}'])
    def test_wrong_type_names_key(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(DataError, match=next(iter(json.loads(text)))):
            load_config(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"mpl_hidden": 50}')
        with pytest.raises(DataError, match="unknown config keys"):
            load_config(path)

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"f0_min_hz": 700.0}')
        with pytest.raises(DataError):
            load_config(path)

    def test_env_var(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text('{"mlp_epochs": 7}')
        monkeypatch.setenv(ENV_VAR, str(path))
        assert load_config().mlp_epochs == 7

    def test_explicit_path_beats_env(self, tmp_path, monkeypatch):
        env_path = tmp_path / "env.json"
        env_path.write_text('{"mlp_epochs": 7}')
        arg_path = tmp_path / "arg.json"
        arg_path.write_text('{"mlp_epochs": 9}')
        monkeypatch.setenv(ENV_VAR, str(env_path))
        assert load_config(arg_path).mlp_epochs == 9
