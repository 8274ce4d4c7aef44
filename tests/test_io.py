"""Tests for WAV reading/writing, TextGrid parsing/emission, the binary
model container, matrix exports, and pipeline configuration loading."""

import dataclasses
import json
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from textgrid_forms import short_form

from taanseg import wavio
from taanseg.cnn import (PATCH_BINS, PATCH_FRAMES, cnn_init, cnn_posteriors,
                         cnn_train)
from taanseg.config import ENV_VAR, PipelineConfig, load_config
from taanseg.dsp import AudioClip
from taanseg.errors import (
    DataError,
    FormatError,
    InvalidArgumentError,
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
    read_sections,
    tier_to_timeline,
    timeline_to_doc,
    write_sections,
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

    @staticmethod
    def _oneshot_bytes(clip):
        """The one-shot writer the chunked one replaced, as the oracle."""
        ints = np.clip(np.round(clip.samples * 32768.0), -32768,
                       32767).astype("<i2")
        payload, sr = ints.tobytes(), clip.sample_rate
        return b"".join([
            b"RIFF", struct.pack("<I", 36 + len(payload)), b"WAVEfmt ",
            struct.pack("<IHHIIHH", 16, 1, 1, sr, sr * 2, 2, 16), b"data",
            struct.pack("<I", len(payload)), payload])

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 2 * 64 + 3])
    def test_chunks_write_the_oneshot_bytes(self, tmp_path, monkeypatch, n):
        # full scale and beyond, the rounding ties at +/- 0.5 and 1.5 LSB,
        # then noise past +/- 1 so that every chunk clips
        monkeypatch.setattr(wavio, "WRITE_CHUNK", 64)
        special = np.array([1.0, -1.0, 1.0 - 2**-16, -1.0 - 2**-16, 1.5,
                            -1.5, 0.5 / 32768, -0.5 / 32768, 1.5 / 32768,
                            -1.5 / 32768, 0.0, -0.0])
        noise = np.random.default_rng(n).uniform(-1.2, 1.2, size=n)
        clip = AudioClip(np.concatenate((special, noise))[:n], 8000)
        path = tmp_path / "chunks.wav"
        write_wav(clip, path)
        assert path.read_bytes() == self._oneshot_bytes(clip)

    def test_memory_is_bounded_by_the_chunk(self, tmp_path):
        # a float64 buffer and its int16 copy, 10 bytes a sample; the
        # one-shot writer held about twice the clip
        clip = AudioClip(np.random.default_rng(0).uniform(
            -1.0, 1.0, size=20 * wavio.WRITE_CHUNK + 5), 8000)
        tracemalloc.start()
        try:
            write_wav(clip, tmp_path / "long.wav")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * wavio.WRITE_CHUNK
        assert (tmp_path / "long.wav").read_bytes() == \
            self._oneshot_bytes(clip)

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
        with pytest.raises(UnsupportedFormatError) as info:
            read_wav(path)
        assert info.value.path == path

    def test_unsupported_sample_rate_names_the_file(self, tmp_path):
        path = tmp_path / "odd_rate.wav"
        write_wav(AudioClip(np.zeros(100), 8000), path)
        raw = bytearray(path.read_bytes())
        raw[24:28] = struct.pack("<I", 12345)
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedFormatError,
                           match=f"^{re.escape(str(path))}: sample rate 12345"):
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


# names and labels with quotes, `=`, `?`, brackets, or nothing
LABEL_TEXT = st.text('a "=?<>[]:.e-1ā', max_size=8)

# a long-form point tier of two points, with an `item [k]:` line
POINT_TIER = "\n".join([
    "    item [0]:", '        class = "TextTier"', '        name = "beats"',
    "        xmin = 0", "        xmax = 1", "        points: size = 2",
    "        points [1]:", "            number = 0.5",
    '            mark = "sa "" ni"', "        points [2]:",
    "            number = 1", '            mark = ""', ""])


@st.composite
def textgrid_docs(draw):
    """Docs of up to 3 interval tiers over [x, x + 1000] with LABEL_TEXT
    names and labels."""
    xmin = draw(st.floats(-1e6, 1e6))
    tiers = []
    for _ in range(draw(st.integers(0, 3))):
        cuts = sorted(draw(st.sets(st.integers(0, 2000), min_size=2,
                                   max_size=6)))
        tiers.append(IntervalTier(draw(LABEL_TEXT), xmin, xmin + 1000.0, [
            Interval(xmin + 0.37 * a, xmin + 0.37 * b, draw(LABEL_TEXT))
            for a, b in zip(cuts, cuts[1:])]))
    return TextGridDoc(xmin, xmin + 1000.0, tiers)


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

    @staticmethod
    def _with_point_tier(tmp_path):
        path = tmp_path / "points.TextGrid"
        emit_textgrid(_doc(), path)
        text = path.read_text("utf-8").replace("size = 1", "size = 2", 1)
        return text + "\n".join([
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

    def test_point_tier_skipped_with_warning(self, tmp_path):
        path = tmp_path / "points.TextGrid"
        path.write_text(self._with_point_tier(tmp_path), encoding="utf-8")
        with pytest.warns(UserWarning, match="point tier"):
            doc = parse_textgrid(path)
        assert len(doc.tiers) == 1

    # each count's line in the long form, and in the short form if short
    @pytest.mark.parametrize("key,line,short", [
        pytest.param(key, line, short,
                     id=("short-" if short else "") + f"{key}-{line}")
        for key, line, short in [
            ("size", 7, False), ("intervals: size", 14, False),
            ("points: size", 32, False), ("size", 7, True),
            ("intervals: size", 12, True), ("points: size", 26, True)]])
    @pytest.mark.parametrize("count", ["1e9992", "-1", "1.5", "-1e9992"])
    def test_count_that_is_not_a_count(self, tmp_path, key, line, short,
                                       count):
        # 1e9992 reads as infinity, which int() cannot convert
        text = self._with_point_tier(tmp_path)
        text = (short_form(text) if short else text).splitlines()
        assert re.fullmatch(r"\d+" if short else rf"\s*{key} = \d+",
                            text[line - 1])
        text[line - 1] = count if short else f"{key} = {count}"
        path = tmp_path / "count.TextGrid"
        path.write_text("\n".join(text), encoding="utf-8")
        with pytest.raises(ParseError, match="not a count") as info:
            parse_textgrid(path)
        assert (info.value.path, info.value.line) == (path, line)

    @pytest.mark.parametrize("line, text", [
        (4, "xmax = 0.0"), (4, "xmin = 0.0 junk"), (4, "xmin = 0.0.0"),
        (4, "xmin = inf"), (4, "xmin = nan"), (6, "tiers? 1"),
        (6, "tiers? <exists> x"), (7, "intervals: size = 1"),
        (10, 'klass = "IntervalTier"'), (10, 'class = "IntervalTier" x'),
        (11, 'name = "a"b"'), (11, "name = sections"),
        (14, 'intervals: size = "3"'), (16, "xmin = 0.0 0.0"),
        (18, 'text = "" ""'), (18, "mark = \"\"")])
    def test_value_line_fault(self, tmp_path, line, text):
        """A wrong key, a value of the wrong kind, or text after the value
        is a ParseError at its line."""
        lines = self._with_point_tier(tmp_path).splitlines()
        lines[line - 1] = text
        path = tmp_path / "fault.TextGrid"
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ParseError, match="expected `") as info:
            parse_textgrid(path)
        assert (info.value.path, info.value.line) == (path, line)

    @pytest.mark.parametrize("short", [False, True])
    def test_cut_file_ends_at_its_last_line(self, tmp_path, short):
        text = self._with_point_tier(tmp_path)
        lines = (short_form(text) if short else text).splitlines()[:-3]
        path = tmp_path / "cut.TextGrid"
        path.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
        with pytest.raises(ParseError, match="end of file") as info:
            parse_textgrid(path)
        assert info.value.line == len(lines) + 1

    def test_overlapping_intervals_rejected(self, tmp_path):
        doc = _doc()
        doc.tiers[0].intervals[1] = Interval(15.0, 45.0, "taan")
        path = tmp_path / "overlap.TextGrid"
        emit_textgrid(doc, path)
        with pytest.raises(DataError) as info:
            parse_textgrid(path)
        assert info.value.path == path

    def test_short_form_reads_as_its_long_form(self, tmp_path):
        path = tmp_path / "short.TextGrid"
        path.write_text(short_form(self._with_point_tier(tmp_path)),
                        encoding="utf-16")
        assert path.read_text("utf-16").splitlines()[3:8] == [
            "0.0", "60.0", "<exists>", "2", '"IntervalTier"']
        with pytest.warns(UserWarning, match="point tier 'beats' skipped"):
            assert parse_textgrid(path) == _doc()

    @settings(deadline=None, max_examples=60, derandomize=True,
              database=None)
    @given(doc=textgrid_docs(), points=st.integers(0, 3))
    def test_short_form_parses_to_the_doc(self, tmp_path_factory, doc,
                                          points):
        """With a point tier after `points` interval tiers (none if there
        are fewer), the long and the short form parse to the emitted doc."""
        path = tmp_path_factory.mktemp("forms") / "grid.TextGrid"
        emit_textgrid(doc, path)
        text = path.read_text("utf-8")
        if points <= len(doc.tiers):
            head, *items = re.split(r"(?m)^(?=    item \[\d+\]:)", text)
            items.insert(points, POINT_TIER)
            text = re.sub(r"(?m)^size = \d+$", f"size = {len(items)}",
                          "".join([head, *items]))
        for form in (text, short_form(text)):
            path.write_text(form, encoding="utf-8")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert parse_textgrid(path) == doc

    @pytest.mark.parametrize("raw", [
        b'File type = "ooTextFile"\n\xff\n',          # not UTF-8
        b'\xef\xbb\xbfFile type = "ooTextFile"\n\xff\n',  # BOM, then not
        b'\xff\xfeF\x00i',                             # cut UTF-16
    ], ids=["utf-8", "utf-8-bom", "utf-16-cut"])
    def test_undecodable_text_rejected(self, tmp_path, raw):
        path = tmp_path / "bad.TextGrid"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match="not UTF-(8|16) text") as info:
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


class TestReadSections:
    """The truth reader tells a TextGrid, a timeline TSV and a frame-label
    TSV apart by content, whatever the file is called."""

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16"])
    def test_frame_labels_merge_into_sections(self, tmp_path, encoding):
        path = tmp_path / "truth.TextGrid"
        path.write_text("0.0\tinstrumental\n1.0\ttaan\n2.0\ttaan\n"
                        "3.0\tnon-taan\n", encoding=encoding)
        assert read_sections(path).sections == [
            Section(0.0, 1.0, "instrumental"), Section(1.0, 3.0, "taan"),
            Section(3.0, 4.0, "non-taan")]

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16"])
    def test_timeline(self, tmp_path, encoding):
        path = tmp_path / "truth.TextGrid"
        path.write_text("0.5\t20.25\ttaan\n30.0\t40.0\tnon-taan\n",
                        encoding=encoding)
        assert read_sections(path).sections == [
            Section(0.5, 20.25, "taan"), Section(30.0, 40.0, "non-taan")]

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16"])
    def test_textgrid(self, tmp_path, encoding):
        path8 = tmp_path / "grid"
        emit_textgrid(_doc(), path8)
        path = tmp_path / "truth.tsv"
        path.write_bytes(path8.read_text("utf-8").encode(encoding))
        assert read_sections(path) == tier_to_timeline(_doc().tiers[0])

    @pytest.mark.parametrize("name, grid", [
        ("t.TextGrid", True), ("t.TEXTGRID", True), ("t.tsv", False),
        ("t.TextGrid.tsv", False)])
    def test_write_sections_by_suffix(self, tmp_path, name, grid):
        tl = SectionTimeline([Section(0.0, 12.5, "instrumental"),
                              Section(12.5, 40.1, "taan")])
        path = tmp_path / name
        write_sections(tl, path)
        assert path.read_text().startswith("File type") == grid
        assert read_sections(path) == tl

    @pytest.mark.parametrize("name", ["t.TextGrid", "t.tsv"])
    def test_empty_timeline_is_not_written(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(InvalidArgumentError, match="no sections to write"):
            write_sections(SectionTimeline([]), path)
        assert not path.exists()

    def test_not_utf8_tsv_keeps_its_message(self, tmp_path):
        path = tmp_path / "truth.tsv"
        path.write_bytes(b"0.0\t1.0\tta\xffan\n")
        with pytest.raises(ParseError, match="not UTF-8 text"):
            read_sections(path)


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

    def test_cnn_posteriors_survive_the_round_trip(self, tmp_path):
        # a trained model keeps float64 weights, stored as <f8; the float32
        # conv stack casts the same weights before and after the file
        rng = np.random.default_rng(3)
        patches = rng.normal(size=(12, PATCH_BINS, PATCH_FRAMES))
        stats = (rng.normal(size=PATCH_BINS),
                 rng.uniform(0.5, 2.0, size=PATCH_BINS))
        model = cnn_train(patches, np.arange(12) % 2, stats, epochs=1,
                          batch=4)
        assert all(getattr(model, name).dtype == np.float64
                   for name in ("conv1_w", "conv2_w", "fc_w", "out_w"))
        path = tmp_path / "cnn.tseg"
        save_model(model, path)
        np.testing.assert_array_equal(cnn_posteriors(load_model(path), patches),
                                      cnn_posteriors(model, patches))

    @pytest.mark.parametrize("kind,name,shape", [
        ("cnn", "conv1_w", (10, 1, 5, 5)), ("cnn", "fc_w", (2100, 299)),
        ("cnn", "band_std", (93,)), ("mlp", "b1", (4,)),
        ("mlp", "w1", (3, 5, 1)), ("mlp", "w2", (5, 3)), ("mlp", "b2", (3,))])
    def test_arrays_that_do_not_fit_together(self, tmp_path, kind, name,
                                             shape):
        # found by fuzzing: such a file loaded, and classifying with it
        # failed inside the model (exit 3), not at the file (exit 2)
        model = cnn_init(seed=0) if kind == "cnn" else mlp_init(5, seed=0)
        setattr(model, name, np.zeros(shape))
        path = tmp_path / "m.tseg"
        save_model(model, path)
        with pytest.raises(ParseError, match=f"wrong shape: .*{name}"):
            load_model(path)
        # the model class itself rejects the same arrays
        with pytest.raises(InvalidArgumentError,
                           match=f"wrong shape: .*{name}"):
            dataclasses.replace(model)

    @pytest.mark.parametrize("kind, name, index, value, message", [
        ("cnn", "fc_w", (0, 0), np.nan, "non-finite values in fc_w"),
        ("cnn", "conv1_b", (3,), np.inf, "non-finite values in conv1_b"),
        ("mlp", "w2", (0, 1), -np.inf, "non-finite values in w2"),
        ("cnn", "band_std", (5,), 0.0, "band_std entries must be positive"),
        ("cnn", "band_std", (0,), -1.0, "band_std entries must be positive"),
        ("cnn", "conv1_w", (0, 0, 3, 3), 1e300, "conv1_w beyond float32"),
        ("cnn", "conv2_b", (9,), -1e39, "conv2_b beyond float32"),
    ], ids=["nan-fc_w", "inf-conv1_b", "inf-mlp-w2", "zero-band_std",
            "negative-band_std", "conv1_w-over-float32", "conv2_b-over-float32"])
    def test_values_the_model_cannot_run_with(self, tmp_path, kind, name,
                                              index, value, message):
        # such a file loaded, and the model gave NaN posteriors or numpy
        # warnings (a float32 cast to inf, a division by zero)
        model = cnn_init(seed=0) if kind == "cnn" else mlp_init(5, seed=0)
        getattr(model, name)[index] = value
        path = tmp_path / "m.tseg"
        save_model(model, path)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "
                           + message):
            load_model(path)
        # the model class itself rejects the same arrays
        with pytest.raises(InvalidArgumentError, match=f"^{message}"):
            dataclasses.replace(model)

    @pytest.mark.parametrize("kind, layers", [
        ("mlp", [("w1", "dense", [3, 5]), ("b1", "bias", [5]),
                 ("w2", "dense", [5, 2]), ("b2", "bias", [2])]),
        ("cnn", [("conv1_w", "conv", [10, 1, 7, 7]), ("conv1_b", "bias", [10]),
                 ("conv2_w", "conv", [10, 10, 3, 3]), ("conv2_b", "bias", [10]),
                 ("fc_w", "dense", [2100, 300]), ("fc_b", "bias", [300]),
                 ("out_w", "dense", [300, 2]), ("out_b", "bias", [2]),
                 ("band_mean", "stat", [94]), ("band_std", "stat", [94])]),
    ])
    def test_header_names_types_and_shapes(self, tmp_path, kind, layers):
        path = tmp_path / "m.tseg"
        save_model(cnn_init(seed=0) if kind == "cnn" else mlp_init(5, seed=0),
                   path)
        raw = path.read_bytes()
        hlen = struct.unpack("<I", raw[6:10])[0]
        header = json.loads(raw[10 : 10 + hlen])
        assert header["kind"] == kind
        assert [(layer["name"], layer["type"], layer["shape"])
                for layer in header["layers"]] == layers

    def test_float32_max_conv_weight_loads(self, tmp_path):
        model = cnn_init(seed=0)
        model.conv1_w[0, 0, 0, 0] = np.finfo(np.float32).max
        path = tmp_path / "m.tseg"
        save_model(model, path)
        assert load_model(path).conv1_w[0, 0, 0, 0] == model.conv1_w[0, 0, 0, 0]

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
        with pytest.raises(FormatError) as info:
            load_model(path)
        assert info.value.path == path

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
        assert np.array_equal(np.loadtxt(path, delimiter=","), m)

    def test_csv_is_a_headerless_table_of_reprs(self, tmp_path):
        # a float32 channel map reads back exactly, each cell its repr
        path = tmp_path / "m.csv"
        m = np.random.default_rng(0).normal(size=(21, 10)).astype(np.float32)
        m[0, :3] = (0.1, -0.0, 1e-40)
        write_matrix_csv(m, path)
        assert np.array_equal(np.loadtxt(path, delimiter=",", ndmin=2), m)
        first = path.read_text().splitlines()[0].split(",")
        assert first[:3] == [repr(float(v)) for v in m[0, :3]]


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
                        '"class_balance": false}')
        cfg = load_config(path)
        assert cfg.f0_min_hz == 100 and cfg.taan_threshold == 1
        assert {type(cfg.f0_min_hz), type(cfg.taan_threshold)} == {float}
        assert cfg.class_balance is False

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
        with pytest.raises(DataError, match="unknown config keys") as info:
            load_config(path)
        assert info.value.path == path

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"f0_min_hz": 700.0}')
        with pytest.raises(DataError) as info:
            load_config(path)
        assert str(info.value) == (f"{path}: f0_min_hz must be < f0_max_hz "
                                   "(600.0), not 700.0")

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
