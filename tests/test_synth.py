"""Tests for the deterministic synthetic-concert generator."""

import numpy as np
import pytest

from taanseg.errors import InvalidArgumentError, ResourceLimitError
from taanseg.synth import (
    CONTOUR_HOP_S,
    ConcertScript,
    SectionSpec,
    default_test_script,
    script_from_json,
    script_to_json,
    synth_concert,
    synth_pitch_contour,
)


class TestSectionSpec:
    def test_taan_rate_bounds(self):
        SectionSpec("taan", 30.0, mod_rate_hz=5.0)
        SectionSpec("taan", 30.0, mod_rate_hz=10.0)
        with pytest.raises(InvalidArgumentError):
            SectionSpec("taan", 30.0, mod_rate_hz=4.0)
        with pytest.raises(InvalidArgumentError):
            SectionSpec("taan", 30.0, mod_rate_hz=12.0)

    def test_unknown_style(self):
        with pytest.raises(InvalidArgumentError):
            SectionSpec("chorus", 30.0)

    def test_non_positive_duration(self):
        with pytest.raises(InvalidArgumentError):
            SectionSpec("taan", 0.0)


class TestPitchContour:
    def test_steady_zero_depth_is_constant(self):
        spec = SectionSpec("steady-vocal", 10.0, f0_hz=220.0,
                           mod_depth_cents=0.0)
        cents = synth_pitch_contour(spec)
        base = 1200.0 * np.log2(220.0 / 55.0)
        assert np.allclose(cents, base)

    def test_steady_jitter_bounded(self):
        spec = SectionSpec("steady-vocal", 10.0, f0_hz=220.0,
                           mod_depth_cents=150.0)
        cents = synth_pitch_contour(spec, np.random.default_rng(0))
        base = 1200.0 * np.log2(220.0 / 55.0)
        assert np.all(np.abs(cents - base) <= 10.0)

    def test_taan_dominant_modulation_bin(self):
        spec = SectionSpec("taan", 10.0, f0_hz=220.0, mod_rate_hz=6.0,
                           mod_depth_cents=150.0)
        cents = synth_pitch_contour(spec, np.random.default_rng(1))
        # remove the triangle ramp by differencing against a taan with
        # zero FM depth, then find the dominant DFT bin of one second
        flat = synth_pitch_contour(
            SectionSpec("taan", 10.0, f0_hz=220.0, mod_rate_hz=6.0,
                        mod_depth_cents=0.0),
            np.random.default_rng(1),
        )
        fm = (cents - flat)[:128]
        mag = np.abs(np.fft.rfft(fm * np.hanning(128)))
        peak_hz = np.argmax(mag[1:]) + 1
        # 128 samples at 100 Hz -> 0.78125 Hz per bin
        assert peak_hz * 100.0 / 128 == pytest.approx(6.0, abs=0.8)

    def test_taan_triangle_span(self):
        spec = SectionSpec("taan", 20.0, f0_hz=220.0, mod_depth_cents=0.0)
        cents = synth_pitch_contour(spec, np.random.default_rng(0))
        assert cents.max() - cents.min() == pytest.approx(700.0, abs=1.0)

    def test_glide_is_slow(self):
        spec = SectionSpec("glide-vocal", 20.0, f0_hz=220.0,
                           mod_rate_hz=0.5, mod_depth_cents=200.0)
        cents = synth_pitch_contour(spec, np.random.default_rng(2))
        c = cents - cents.mean()
        n = len(c)
        mag2 = np.abs(np.fft.rfft(c)) ** 2
        freqs = np.fft.rfftfreq(n, d=CONTOUR_HOP_S)
        fast = mag2[freqs > 3.0].sum()
        assert fast < 0.1 * mag2.sum()

    def test_instrumental_has_no_contour(self):
        assert synth_pitch_contour(SectionSpec("instrumental", 10.0)) is None

    def test_contour_length(self):
        cents = synth_pitch_contour(SectionSpec("steady-vocal", 3.5))
        assert len(cents) == 350


class TestSynthConcert:
    @pytest.mark.parametrize("script", [
        ConcertScript(sections=[]),
        ConcertScript(sections=[SectionSpec("instrumental", 1.0)], seed=-1),
    ], ids=["no-sections", "negative-seed"])
    def test_rejects_unrenderable_script(self, script):
        with pytest.raises(InvalidArgumentError):
            synth_concert(script)

    def test_deterministic(self):
        a, _, _ = synth_concert(default_test_script(seed=7))
        b, _, _ = synth_concert(default_test_script(seed=7))
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_audio(self):
        a, _, _ = synth_concert(default_test_script(seed=7))
        b, _, _ = synth_concert(default_test_script(seed=8))
        assert not np.array_equal(a.samples, b.samples)

    def test_timeline_tiles_duration(self):
        script = default_test_script()
        clip, timeline, labels = synth_concert(script)
        assert timeline.span() == (0.0, 600.0)
        assert len(clip.samples) == 600 * 8000
        assert len(labels) == 600
        starts = [s.start_s for s in timeline]
        ends = [s.end_s for s in timeline]
        assert starts[1:] == ends[:-1]

    def test_labels_follow_sections(self):
        script = ConcertScript([
            SectionSpec("instrumental", 3.0),
            SectionSpec("taan", 5.0),
            SectionSpec("steady-vocal", 2.0),
        ])
        _, _, labels = synth_concert(script)
        assert labels == (["instrumental"] * 3 + ["taan"] * 5
                          + ["non-taan"] * 2)

    def test_amplitude_bounded(self):
        clip, _, _ = synth_concert(ConcertScript([
            SectionSpec("taan", 10.0, am_depth_db=6.0)]))
        assert np.abs(clip.samples).max() <= 0.9 + 1e-12

    def test_duration_cap(self):
        script = ConcertScript([SectionSpec("instrumental", 1801.0)])
        with pytest.raises(ResourceLimitError):
            synth_concert(script)

    def test_default_script_taans(self):
        script = default_test_script()
        _, timeline, _ = synth_concert(script)
        taans = timeline.taan_sections()
        assert len(taans) == 6
        # every gap between consecutive taans is wide enough that the
        # grouping rules keep the sections apart
        for a, b in zip(taans[:-1], taans[1:]):
            assert b.start_s - a.end_s > 20.0


class TestScriptIo:
    def test_round_trip(self, tmp_path):
        script = default_test_script(seed=3)
        path = tmp_path / "script.json"
        script_to_json(script, path)
        back = script_from_json(path)
        assert back.seed == 3
        assert back.sample_rate == script.sample_rate
        assert back.sections == script.sections

    def test_defaults_when_absent(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(
            '{"sections": [{"style": "instrumental", "duration_s": 5.0}]}'
        )
        script = script_from_json(path)
        assert script.seed == 0 and script.sample_rate == 8000
