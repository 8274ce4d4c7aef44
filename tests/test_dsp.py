import math
import warnings

import numpy as np
import pytest

from taanseg import pipeline, wavio
from taanseg.dsp import (
    AudioClip,
    LOG_FLOOR,
    LogSpectrogram,
    hamming_window,
    log_spectrogram,
    resample,
)
from taanseg.errors import (
    EmptyInputError,
    InvalidArgumentError,
    UnsupportedOperationError,
)


def tone(freq, sr, dur=1.0, amp=0.5):
    t = np.arange(int(sr * dur)) / sr
    return AudioClip(samples=amp * np.sin(2 * np.pi * freq * t), sample_rate=sr)


class TestHammingWindow:
    def test_endpoints_and_center(self):
        w = hamming_window(3)
        assert w == pytest.approx([0.08, 1.0, 0.08], abs=1e-12)

    def test_symmetry(self):
        w = hamming_window(5)
        assert w[1] == pytest.approx(w[3], abs=1e-15)
        w = hamming_window(320)
        assert np.allclose(w, w[::-1])

    def test_sum_matches_direct_summation(self):
        # independent oracle: plain python summation of the closed form
        expected = sum(
            0.54 - 0.46 * math.cos(2 * math.pi * k / 319) for k in range(320)
        )
        assert hamming_window(320).sum() == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(172.34, abs=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(InvalidArgumentError):
            hamming_window(1)


class TestLogSpectrogram:
    @pytest.mark.parametrize("field", ["bin_hz", "hop_s"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_grid_must_be_finite_and_positive(self, field, bad):
        grid = {"bin_hz": 8000 / 1024, "hop_s": 0.02, field: bad}
        with pytest.raises(InvalidArgumentError, match="bin_hz and hop_s"):
            LogSpectrogram(np.zeros((94, 100)), **grid)

    @pytest.mark.parametrize("shape", [(), (100,), (94, 100, 1)])
    def test_values_must_be_2d(self, shape):
        with pytest.raises(InvalidArgumentError, match="2-D values"):
            LogSpectrogram(np.zeros(shape), 8000 / 1024, 0.02)

    def test_silence_is_log_floor(self):
        clip = AudioClip(samples=np.zeros(8000), sample_rate=8000)
        spec = log_spectrogram(clip, 0.04, 0.02, 1024)
        assert np.all(spec.values == np.log(LOG_FLOOR))

    def test_tone_argmax_bin(self):
        spec = log_spectrogram(tone(400, 8000), 0.04, 0.02, 1024)
        # closed form: bin = round(f / bin_hz) = round(400 / 7.8125)
        assert np.all(np.argmax(spec.values, axis=0) == 51)

    def test_frame_count(self):
        clip = AudioClip(samples=np.zeros(16000), sample_rate=8000)
        spec = log_spectrogram(clip, 0.04, 0.02, 1024)
        # floor((16000 - 320) / 160) + 1
        assert spec.n_frames == 99
        assert spec.n_bins == 513

    def test_too_short_clip(self):
        clip = AudioClip(samples=np.zeros(100), sample_rate=8000)
        with pytest.raises(EmptyInputError):
            log_spectrogram(clip, 0.04, 0.02, 1024)

    def test_window_exceeding_dft_rejected(self):
        with pytest.raises(InvalidArgumentError):
            log_spectrogram(tone(400, 8000), 0.2, 0.02, 1024)

    def test_deterministic(self):
        clip = tone(333, 8000)
        a = log_spectrogram(clip, 0.04, 0.02, 1024)
        b = log_spectrogram(clip, 0.04, 0.02, 1024)
        assert np.array_equal(a.values, b.values)

    def test_tone_argmax_within_one_bin_property(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            f = rng.uniform(100, 3000)
            spec = log_spectrogram(tone(f, 8000), 0.04, 0.02, 1024)
            expect = round(f / spec.bin_hz)
            assert np.all(np.abs(np.argmax(spec.values, axis=0) - expect) <= 1)

    def test_parseval(self):
        # full-length single frame; undo the analysis window first
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.5, 0.5, 1024)
        w = hamming_window(1024)
        clip = AudioClip(samples=x / w, sample_rate=8000)
        spec = log_spectrogram(clip, 1024 / 8000, 1024 / 8000, 1024)
        mag = np.exp(spec.values[:, 0])
        spectral = (mag[0] ** 2 + 2 * np.sum(mag[1:-1] ** 2) + mag[-1] ** 2) / 1024
        time_e = np.sum(x**2)
        assert spectral == pytest.approx(time_e, rel=1e-6)


class TestResample:
    def test_identity(self):
        clip = tone(1000, 8000)
        out = resample(clip, 8000)
        assert out.sample_rate == 8000
        assert np.array_equal(out.samples, clip.samples)

    def test_tone_survives(self):
        clip = tone(1000, 44100)
        out = resample(clip, 8000)
        spec = log_spectrogram(out, 0.04, 0.02, 1024)
        freqs = np.argmax(spec.values, axis=0) * spec.bin_hz
        assert np.all(np.abs(freqs - 1000) <= spec.bin_hz)

    def test_length_contract(self):
        out = resample(tone(1000, 44100), 8000)
        assert abs(len(out.samples) - 8000) <= 1

    def test_upsampling_rejected(self):
        with pytest.raises(UnsupportedOperationError):
            resample(tone(1000, 8000), 16000)

    def test_bad_target_rate(self):
        with pytest.raises(InvalidArgumentError):
            resample(tone(1000, 8000), 12345)

    def test_target_rate_between_accepted_rates(self):
        # 8000.5 is no rate: not a clip labelled 8000 Hz at the 8000.5 ratio
        with pytest.raises(InvalidArgumentError, match="sample_rate 8000.5"):
            resample(tone(1000, 16000), 8000.5)

    def test_whole_float_target_rate(self):
        out = resample(tone(1000, 16000), 8000.0)
        assert type(out.sample_rate) is int
        assert np.array_equal(out.samples,
                              resample(tone(1000, 16000), 8000).samples)


class TestAudioClip:
    def test_rejects_unknown_rate(self):
        with pytest.raises(InvalidArgumentError):
            AudioClip(samples=np.zeros(10), sample_rate=11025)

    @pytest.mark.parametrize("rate", [8000.7, 7999.999, "8000", True,
                                      np.array([8000, 16000])])
    def test_rejects_rate_that_is_not_an_accepted_one(self, rate):
        with pytest.raises(InvalidArgumentError, match="not in accepted set"):
            AudioClip(samples=np.zeros(8000), sample_rate=rate)

    @pytest.mark.parametrize("rate", [8000.0, np.float64(8000), np.int32(8000)])
    def test_whole_rate_is_stored_as_int(self, tmp_path, rate):
        clip = AudioClip(samples=np.zeros(8), sample_rate=rate)
        assert type(clip.sample_rate) is int and clip.sample_rate == 8000
        # the WAV header takes it: no struct.error
        wavio.write_wav(clip, tmp_path / "x.wav")
        assert wavio.read_wav(tmp_path / "x.wav").sample_rate == 8000

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("stage", [
        lambda clip: log_spectrogram(clip, 0.04, 0.01, 1024),
        pipeline.extract_track,
    ], ids=["log_spectrogram", "extract_track"])
    def test_rejects_non_finite_sample(self, value, stage):
        # one bad sample in 2 s of tone: an error, not a numpy warning and
        # silently unvoiced frames
        x = tone(220, 8000, dur=2.0).samples.copy()
        x[4321] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="finite"):
                stage(AudioClip(samples=x, sample_rate=8000))

    def test_empty_clip_accepted(self):
        assert AudioClip(samples=np.zeros(0), sample_rate=8000).duration_s == 0
