"""The one time base: pitch tracks at vocal.TRACK_HOP_S (10 ms) and
feature, posterior and frame-label rows at 1 s, which no object or call
sets for itself; and the one rule, dsp.seconds_to_frames, that turns a
duration into a count of frames."""

import math

import numpy as np
import pytest

from taanseg.bootstrap import write_frame_labels
from taanseg.dsp import seconds_to_frames
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
