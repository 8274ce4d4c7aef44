"""The delimited-table module and the five formats that go through it:
track CSV, feature CSV, posterior CSV, timeline TSV and frame-label TSV."""

import math

import numpy as np
import pytest

from taanseg import table
from taanseg.bootstrap import (bootstrap_labels, read_frame_labels,
                               write_frame_labels)
from taanseg.config import load_config
from taanseg.errors import (DataError, FormatError, InvalidArgumentError,
                            ParseError)
from taanseg.features import StyleFeatureSeq, read_features, write_features
from taanseg.segmentation import (Section, SectionTimeline, read_timeline,
                                  write_timeline)
from taanseg.synth import script_from_json
from taanseg.vocal import PitchEnergyTrack, ingest_track, write_track

FEATURE_HEADER = "frame_s,mod_rate,mod_energy,energy_zcr,vocal\n"
TRACK_HEADER = "time_s,f0_hz,energy_db,voiced\n"


def write(tmp_path, text, name="t.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def raises_at(cls, path, line, fn):
    with pytest.raises(cls) as info:
        fn(path)
    assert type(info.value) is cls
    assert info.value.line == line
    assert f"{path}:{line}: " in str(info.value)


class TestTable:
    PAIRS = table.Table([("x", "f8"), ("n", "i8"), ("name", "O")])

    def test_round_trip_is_bit_identical(self, tmp_path):
        x = np.array([0.1, -0.0, 1e-310, np.nan, 1.0 / 3.0, -2.5e300])
        n = np.arange(len(x)) - 2
        names = ["a", "b c", "", "d", "e", "f"]
        path = tmp_path / "t.csv"
        self.PAIRS.write(path, (x, n, names))
        rows = self.PAIRS.read(path)
        assert rows["x"].tobytes() == x.tobytes()
        assert rows["n"].tolist() == n.tolist()
        assert rows["name"].tolist() == names

    def test_rows_past_one_write_chunk(self, tmp_path):
        x = np.random.default_rng(0).standard_normal(table.WRITE_CHUNK + 3)
        path = tmp_path / "t.csv"
        self.PAIRS.write(path, (x, x > 0, ["a"] * len(x)))
        rows = self.PAIRS.read(path)
        assert rows["x"].tobytes() == x.tobytes()
        assert rows["n"].tolist() == (x > 0).astype(int).tolist()

    def test_header_only_and_trailing_empty_lines(self, tmp_path):
        for text in ("x,n,name\n", "x,n,name\n\n \n", "x,n,name\n1,2,a\n\n"):
            rows = self.PAIRS.read(write(tmp_path, text))
            assert len(rows) == text.count(",a")

    def test_first_bad_line_wins_over_an_earlier_empty_line(self, tmp_path):
        path = write(tmp_path, "x,n,name\n1,2,a\n\n3,x,b\n")
        raises_at(ParseError, path, 4, self.PAIRS.read)

    def test_check_names_the_first_failing_row(self, tmp_path):
        path = write(tmp_path, "x,n,name\n1,2,a\ninf,2,b\nnan,2,c\n")
        finite_x = table.Table(self.PAIRS.dtype.descr, check=table.finite("x"))
        raises_at(ParseError, path, 3, finite_x.read)


class TestFeatureCsv:
    def test_bad_header_is_format_error(self, tmp_path):
        path = write(tmp_path, "frame_s,mod_rate\n0.0,1.0\n")
        with pytest.raises(FormatError, match="unexpected header") as info:
            read_features(path)
        assert info.value.path == path

    @pytest.mark.parametrize("body", ["0.0,1.0,2.0,3.0\n",
                                      "0.0,1.0,2.0,3.0,1,9\n", "\n"])
    def test_wrong_column_count_is_parse_error_at_its_line(self, tmp_path,
                                                          body):
        path = write(tmp_path, FEATURE_HEADER + "0.0,1.0,2.0,3.0,1\n" + body
                     + "2.0,1.0,2.0,3.0,1\n")
        cls = FormatError if body == "\n" else ParseError
        raises_at(cls, path, 3, read_features)

    def test_trailing_empty_lines_accepted(self, tmp_path):
        path = write(tmp_path, FEATURE_HEADER + "0.0,1.0,2.0,3.0,1\n"
                     "1.0,nan,nan,nan,0\n\n\n")
        seq = read_features(path)
        assert seq.features.shape == (2, 3)
        assert seq.vocal_mask.tolist() == [True, False]

    def test_non_numeric_frame_s_rejected(self, tmp_path):
        path = write(tmp_path, FEATURE_HEADER + "0.0,1.0,2.0,3.0,1\n"
                     "later,1.0,2.0,3.0,1\n")
        raises_at(ParseError, path, 3, read_features)

    @pytest.mark.parametrize("row", ["1.0,nan,2.0,3.0,1", "1.0,1.0,inf,3.0,1"])
    def test_vocal_frame_needs_finite_features(self, tmp_path, row):
        path = write(tmp_path, FEATURE_HEADER + "0.0,nan,nan,nan,0\n" + row
                     + "\n")
        raises_at(ParseError, path, 3, read_features)

    def test_round_trip_with_nan_rows(self, tmp_path):
        feats = np.array([[0.5, -1.25, 3.0], [np.nan] * 3, [1e-3, 2.0, -0.0]])
        seq = StyleFeatureSeq(feats, np.array([True, False, True]))
        path = tmp_path / "f.csv"
        write_features(seq, path)
        back = read_features(path)
        assert back.features.tobytes() == feats.tobytes()
        assert back.vocal_mask.tolist() == [True, False, True]


class TestTsvTables:
    TIMELINE = "0.0\t10.0\ttaan\n10.0\t20.0\tnon-taan\n"
    LABELS = "0.0\ttaan\n1.0\tnon-taan\n"

    @pytest.mark.parametrize("reader, text", [
        (read_timeline, TIMELINE), (read_frame_labels, LABELS)])
    def test_empty_line_inside_the_body(self, tmp_path, reader, text):
        first, second = text.splitlines(keepends=True)
        raises_at(FormatError, write(tmp_path, first + "\n" + second), 2,
                  reader)
        reader(write(tmp_path, text + "\n\n"))

    @pytest.mark.parametrize("line", ["10.0\tnan\tnon-taan",
                                      "inf\t20.0\tnon-taan",
                                      "10.0\t1e999\tnon-taan"])
    def test_non_finite_timeline_bound(self, tmp_path, line):
        path = write(tmp_path, "0.0\t10.0\ttaan\n" + line + "\n")
        raises_at(ParseError, path, 2, read_timeline)

    @pytest.mark.parametrize("time", ["nan", "-inf"])
    def test_non_finite_label_time(self, tmp_path, time):
        path = write(tmp_path, f"0.0\ttaan\n{time}\tnon-taan\n")
        raises_at(ParseError, path, 2, read_frame_labels)

    @pytest.mark.parametrize("label", ["taan\tx", "taan\nx", "taan\rx"])
    def test_label_breaking_the_format_is_not_written(self, tmp_path, label):
        path = tmp_path / "labels.tsv"
        with pytest.raises(InvalidArgumentError,
                           match="delimiter or a line break"):
            write_frame_labels([label, "non-taan"], path)
        assert not path.exists()

    def test_timeline_rejects_non_finite_bounds(self):
        for start, end in ((0.0, math.nan), (math.nan, 1.0), (0.0, math.inf)):
            with pytest.raises(InvalidArgumentError,
                               match="non-finite length"):
                SectionTimeline([Section(start, end, "taan")])

    def test_empty_timeline_round_trip(self, tmp_path):
        path = tmp_path / "t.tsv"
        write_timeline(SectionTimeline([]), path)
        assert path.read_text() == "" and len(read_timeline(path)) == 0


class TestTrackCsv:
    def test_nan_time_is_off_the_grid(self, tmp_path):
        path = write(tmp_path, TRACK_HEADER + "0.00,220.0,-3.0,1\n"
                     "nan,220.0,-3.0,1\n")
        raises_at(FormatError, path, 3, ingest_track)

    def test_written_bytes(self, tmp_path):
        track = PitchEnergyTrack(np.array([220.0, 0.0]),
                                 np.array([-3.5, -120.0]),
                                 np.array([True, False]))
        path = tmp_path / "t.csv"
        write_track(track, path)
        assert path.read_text() == (TRACK_HEADER + "0.00,220.0,-3.5,1\n"
                                    "0.01,0.0,-120.0,0\n")


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
class TestEncodings:
    """A copy of a text input saved with a UTF-8 byte-order mark, or as
    UTF-16 (which always has one), reads back equal to the UTF-8 file."""

    def copy(self, path, encoding):
        other = path.with_name(f"{encoding}-{path.name}")
        other.write_bytes(path.read_text("utf-8").encode(encoding))
        return other

    def test_track_csv(self, tmp_path, encoding):
        track = PitchEnergyTrack(np.array([220.0, 0.0, 221.5]),
                                 np.array([-3.5, -120.0, -4.0]),
                                 np.array([True, False, True]))
        path = tmp_path / "t.csv"
        write_track(track, path)
        back = ingest_track(self.copy(path, encoding))
        for name in ("f0_hz", "energy_db", "voiced"):
            assert (getattr(back, name).tobytes()
                    == getattr(track, name).tobytes())

    def test_feature_csv(self, tmp_path, encoding):
        feats = np.array([[0.5, -1.25, 3.0], [np.nan] * 3, [1e-3, 2.0, -0.0]])
        path = tmp_path / "f.csv"
        write_features(StyleFeatureSeq(feats, np.array([True, False, True])),
                       path)
        back = read_features(self.copy(path, encoding))
        assert back.features.tobytes() == feats.tobytes()
        assert back.vocal_mask.tolist() == [True, False, True]

    def test_config_json(self, tmp_path, encoding):
        path = write(tmp_path, '{"mlp_hidden": 50, "taan_threshold": 0.6}',
                     "cfg.json")
        assert load_config(self.copy(path, encoding)) == load_config(path)


class TestBootstrapInputs:
    @pytest.mark.parametrize("index", [10**300, -1, 40])
    def test_out_of_range_before_the_int64_array(self, index):
        x = np.random.default_rng(0).standard_normal((40, 2))
        with pytest.raises(InvalidArgumentError, match="out of range"):
            bootstrap_labels(x, {0: 0, 1: 0, 2: 1, 3: 1, index: 1})


    def test_covariance_overflow(self):
        x = np.random.default_rng(0).standard_normal((40, 2))
        x[5, 0] = 1e300
        with (pytest.raises(InvalidArgumentError, match="overflows"),
              np.errstate(over="ignore")):
            bootstrap_labels(x, {0: 0, 1: 0, 2: 1, 3: 1})


class TestJsonInputs:
    @pytest.mark.parametrize("text", ['{"voicing_factor": NaN}',
                                      '{"f0_grid_cents": Infinity}',
                                      '{"mlp_lr": -Infinity}',
                                      '{"cnn_lr0": 1%s}' % ("0" * 400)])
    def test_config_floats_must_be_finite(self, tmp_path, text):
        key = text.split('"')[1]
        with pytest.raises(DataError, match=f"'{key}'.*finite number"):
            load_config(write(tmp_path, text, "cfg.json"))

    def test_conv_activation_is_an_unknown_key(self, tmp_path):
        path = write(tmp_path, '{"conv_activation": "sigmoid"}', "cfg.json")
        with pytest.raises(DataError, match="unknown config keys"):
            load_config(path)

    @pytest.mark.parametrize("reader", [load_config, script_from_json])
    def test_syntax_error_is_parse_error_with_line(self, tmp_path, reader):
        path = write(tmp_path, '{\n  "seed": 1,\n  oops\n}', "x.json")
        raises_at(ParseError, path, 3, reader)
