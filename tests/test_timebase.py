"""The one time base: pitch tracks at vocal.TRACK_HOP_S (10 ms) and
feature, posterior and frame-label rows at 1 s, which no object or call
sets for itself; the one rule, dsp.seconds_to_frames, that turns a
duration into a count of frames; and the one analysis grid both models
frame their audio on."""

import dataclasses
import math

import numpy as np
import pytest

from taanseg import cnn, dsp, features, pipeline, vocal
from taanseg.bootstrap import write_frame_labels
from taanseg.config import PipelineConfig
from taanseg.dsp import AudioClip, seconds_to_frames
from taanseg.errors import InvalidArgumentError
from taanseg.features import StyleFeatureSeq
from taanseg.mlp import PosteriorSeq
from taanseg.segmentation import Section, SectionTimeline
from taanseg.vocal import PitchEnergyTrack, detect_vocal_activity


class TestSecondsToFrames:
    @pytest.mark.parametrize("seconds, period, cap, frames", [
        (5.0, 1.0, 100, 5), (5.0, 0.5, 100, 10), (0.2, 0.01, 100, 20),
        (0.0, 1.0, 100, 0), (1e-300, 0.01, 100, 0), (2.5, 1.0, 100, 2),
        (3.5, 1.0, 100, 4), (50.0, 1.0, 7, 7), (1e308, 0.01, 7, 7),
        (1e300, 1e-10, 7, 7)])
    def test_rounded_and_capped(self, seconds, period, cap, frames):
        n = seconds_to_frames("w", seconds, period, cap)
        assert n == frames and type(n) is int

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf])
    def test_bad_period(self, period):
        with pytest.raises(InvalidArgumentError,
                           match=f"frame_s {period} is not finite and > 0"):
            seconds_to_frames("w", 1.0, period, 10)

    @pytest.mark.parametrize("seconds", [-1.0, math.nan, math.inf])
    def test_bad_seconds(self, seconds):
        with pytest.raises(InvalidArgumentError,
                           match=f"w {seconds} is not finite and >= 0"):
            seconds_to_frames("w", seconds, 1.0, 10)


def voiced_track(voiced):
    f0 = np.where(voiced, 220.0, 0.0)
    return PitchEnergyTrack(f0, np.where(voiced, -20.0, -120.0), f0 > 0)


class TestVocalActivityCaps:
    """A run lasts at most n samples and an inner gap at most n - 2, so the
    caps of n + 1 and n change no mask; durations past them used to
    overflow int(round(...))."""

    VOICED = np.r_[np.zeros(10), np.ones(40), np.zeros(30), np.ones(60),
                   np.zeros(10)].astype(bool)

    @pytest.mark.parametrize("min_run_s, qualifies", [
        (1.5, True), (1.51, False), (1e3, False), (1e308, False)])
    def test_run_longer_than_the_track(self, min_run_s, qualifies):
        # a 150-sample run qualifies for 1.5 s, and for nothing longer
        mask = detect_vocal_activity(voiced_track(np.ones(150, bool)),
                                     min_run_s)
        assert np.array_equal(mask, np.full(150, qualifies))

    @pytest.mark.parametrize("max_gap_s", [1.5, 1e3, 1e308])
    def test_gap_longer_than_the_track(self, max_gap_s):
        mask = detect_vocal_activity(voiced_track(self.VOICED),
                                     max_gap_s=max_gap_s)
        assert np.array_equal(mask, np.r_[np.zeros(10), np.ones(130),
                                          np.zeros(10)].astype(bool))

    @pytest.mark.parametrize("kwargs, name", [
        ({"min_run_s": -0.1}, "min_run_s"), ({"max_gap_s": math.nan},
                                             "max_gap_s")])
    def test_bad_duration(self, kwargs, name):
        with pytest.raises(InvalidArgumentError, match=name):
            detect_vocal_activity(voiced_track(self.VOICED), **kwargs)


class TestNoTimeBaseKnob:
    """The time base is fixed: no object or call takes its own."""

    def test_track(self):
        with pytest.raises(TypeError):
            PitchEnergyTrack(np.zeros(3), np.zeros(3), np.zeros(3, bool),
                             hop_s=0.02)

    def test_features(self):
        with pytest.raises(TypeError):
            StyleFeatureSeq(np.zeros((3, 3)), np.ones(3, bool), frame_s=0.5)

    def test_posteriors(self):
        with pytest.raises(TypeError):
            PosteriorSeq(np.zeros(3), np.ones(3, bool), frame_s=0.5)
        assert PosteriorSeq(np.zeros(3), np.ones(3, bool)).frame_s == 1.0

    def test_frame_labels(self, tmp_path):
        timeline = SectionTimeline([Section(0.0, 4.0, "taan")])
        with pytest.raises(TypeError):
            timeline.frame_labels(4, 2.0)
        with pytest.raises(TypeError):
            write_frame_labels(["taan"], tmp_path / "l.tsv", frame_s=2.0)


class TestAnalysisGrid:
    """Both models read dsp.ANALYSIS_HZ audio in dsp.WIN_S windows through
    a dsp.N_DFT-point DFT, the tracker at vocal.TRACK_HOP_S and the CNN at
    every other tracker frame; the feature windows and the config's F0
    range derive from the same declarations."""

    def test_both_models_frame_on_the_grid(self, monkeypatch):
        calls, real = [], dsp._framing

        def spy(clip, win_s, hop_s, n_dft):
            calls.append((clip.sample_rate, win_s, hop_s, n_dft))
            return real(clip, win_s, hop_s, n_dft)

        monkeypatch.setattr(dsp, "_framing", spy)
        clip = AudioClip(np.random.default_rng(0).uniform(-0.5, 0.5, 48000),
                         16000)
        pipeline.extract_track(clip)
        cnn.patch_spectrogram(clip)
        grid = (dsp.ANALYSIS_HZ, dsp.WIN_S, dsp.N_DFT)
        assert [(sr, win, n_dft) for sr, win, _, n_dft in calls] == [grid] * 2
        assert [hop for _, _, hop, _ in calls] == [vocal.TRACK_HOP_S,
                                                   cnn.PATCH_HOP_S]

    def test_hops_and_windows(self):
        assert cnn.PATCH_HOP_S == 2 * vocal.TRACK_HOP_S
        assert cnn.PATCH_FRAMES * cnn.PATCH_HOP_S == 1.0
        assert features.WIN_LEN * vocal.TRACK_HOP_S == 1.0
        assert features.HOP_LEN * vocal.TRACK_HOP_S == features.RAW_HOP_S
        assert features.FRAME_HOPS * features.RAW_HOP_S == 1.0
        assert features.MOD_BIN_HZ * features.MOD_DFT * vocal.TRACK_HOP_S == 1
        assert (cnn.PATCH_FRAMES, features.WIN_LEN, features.HOP_LEN,
                features.RAW_HOP_S, features.MOD_BIN_HZ) == (
                    50, 100, 50, 0.5, 0.78125)

    @pytest.mark.parametrize("name", ["f0_min_hz", "f0_max_hz"])
    def test_f0_range_is_one_bin_to_nyquist(self, name):
        field = {f.name: f for f in dataclasses.fields(PipelineConfig)}[name]
        assert dict(field.metadata) == {"ge": dsp.ANALYSIS_HZ / dsp.N_DFT,
                                        "le": dsp.ANALYSIS_HZ / 2}
