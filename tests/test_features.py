import time
import warnings

import numpy as np
import pytest

from taanseg.errors import EmptyInputError, InvalidArgumentError
from taanseg.features import (
    MOD_BIN_HZ,
    StyleFeatureSeq,
    detrend_poly3,
    energy_zcr,
    extract_features,
    hz_to_cents,
    modulation_peak_features,
    modulation_spectrum,
    raw_features,
    read_features,
    smooth_and_normalize,
    write_features,
)
from taanseg.vocal import PitchEnergyTrack


def vocal_track(cents, energy=None):
    cents = np.asarray(cents, dtype=np.float64)
    f0 = 55.0 * 2 ** (cents / 1200.0)
    if energy is None:
        energy = np.zeros_like(f0)
    return PitchEnergyTrack(f0_hz=f0, energy_db=energy,
                            voiced=np.ones(len(f0), dtype=bool))


class TestHzToCents:
    @pytest.mark.parametrize("hz,cents", [(55, 0), (110, 1200), (220, 2400)])
    def test_reference_points(self, hz, cents):
        assert hz_to_cents([hz])[0] == pytest.approx(cents, abs=1e-9)

    def test_unvoiced_gap_marker(self):
        out = hz_to_cents([110.0, 0.0])
        assert np.isnan(out[1]) and out[0] == pytest.approx(1200)

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            hz_to_cents([-1.0])


class TestDetrend:
    def test_constant(self):
        assert np.allclose(detrend_poly3(np.full(100, 1200.0)), 0, atol=1e-9)

    def test_exact_cubic(self):
        t = np.arange(100) / 100.0
        w = 2 - 3 * t + t**3
        assert np.max(np.abs(detrend_poly3(w))) <= 1e-6

    def test_sinusoid_plus_ramp(self):
        t = np.arange(100) / 100.0
        sine = 150 * np.sin(2 * np.pi * 7 * t)
        w = sine + 300 * t
        res = detrend_poly3(w)
        # least-squares oracle via normal equations
        basis = np.vander(t, 4, increasing=True)
        coeffs = np.linalg.solve(basis.T @ basis, basis.T @ w)
        oracle = w - basis @ coeffs
        assert np.allclose(res, oracle, atol=1e-6)
        corr = np.corrcoef(res, sine)[0, 1]
        assert corr > 0.95

    def test_wrong_length(self):
        with pytest.raises(InvalidArgumentError):
            detrend_poly3(np.zeros(50))


class TestModulationSpectrum:
    def test_zero_residual(self):
        assert np.all(modulation_spectrum(np.zeros(100)) == 0)

    def test_length_65(self):
        assert len(modulation_spectrum(np.zeros(100))) == 65

    def test_bin9_sinusoid(self):
        t = np.arange(100) / 100.0
        mag = modulation_spectrum(np.sin(2 * np.pi * 7.03125 * t))
        assert 2 + np.argmax(mag[2:26]) == 9
        # closed-form DFT oracle of the zero-padded truncated sinusoid
        oracle = np.abs(np.fft.rfft(np.sin(2 * np.pi * 7.03125 * t), 128))
        assert np.allclose(mag, oracle, atol=1e-12)

    def test_strong_beats_weak(self):
        t = np.arange(100) / 100.0
        r = 0.3 * np.sin(2 * np.pi * 4 * t) + np.sin(2 * np.pi * 8 * t)
        mag = modulation_spectrum(r)
        peak = 2 + np.argmax(mag[2:26])
        assert peak == round(8 / MOD_BIN_HZ)

    def test_wrong_length(self):
        with pytest.raises(InvalidArgumentError):
            modulation_spectrum(np.zeros(64))


class TestPeakFeatures:
    def test_all_zero_degenerate(self):
        rate, energy, degenerate = modulation_peak_features(np.zeros(65))
        assert degenerate
        assert energy == 0.0
        assert rate == pytest.approx(2 * MOD_BIN_HZ)

    def test_isolated_peak(self):
        mag = np.zeros(65)
        mag[9] = 3.0
        rate, energy, degenerate = modulation_peak_features(mag)
        assert not degenerate
        assert rate == pytest.approx(7.03125)
        assert energy == pytest.approx(9.0)

    def test_taan_like_fm(self):
        t = np.arange(100) / 100.0
        residual = detrend_poly3(150 * np.sin(2 * np.pi * 6 * t + 0.3))
        rate, _, _ = modulation_peak_features(modulation_spectrum(residual))
        assert 5.2 <= rate <= 6.8


class TestEnergyZcr:
    def test_constant(self):
        assert energy_zcr(np.full(100, -3.0)) == 0

    def test_seven_hz(self):
        t = np.arange(100) / 100.0
        w = np.sin(2 * np.pi * 7 * t - 0.2)
        # sign-change oracle
        c = w - w.mean()
        oracle = sum(1 for i in range(99) if c[i] * c[i + 1] < 0)
        assert energy_zcr(w) == oracle == 14

    def test_mean_shift_invariance(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=100)
        assert energy_zcr(w) == energy_zcr(w + 37.5)


class TestSmoothNormalize:
    def test_constant_features_zeroed(self):
        feats = np.tile([3.0, 5.0, 7.0], (40, 1))
        seq = smooth_and_normalize(feats, np.ones(40, dtype=bool))
        assert np.allclose(seq.features[seq.vocal_mask], 0.0)

    def test_output_stats(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(120, 3))
        seq = smooth_and_normalize(feats, np.ones(120, dtype=bool))
        sel = seq.features[seq.vocal_mask]
        assert np.all(np.abs(sel.mean(axis=0)) < 1e-9)
        assert np.allclose(sel.var(axis=0), 1.0, atol=1e-6)

    def test_alternating_moving_average(self):
        feats = np.zeros((60, 3))
        feats[::2] = 1.0
        seq = smooth_and_normalize(feats, np.ones(60, dtype=bool))
        # moving-average oracle bounds, pre-normalization
        inner = seq.raw[2:-2][seq.vocal_mask[2:-2]]
        assert np.all((inner >= 0.4) & (inner <= 0.6))

    def test_no_vocal_frames(self):
        with pytest.raises(EmptyInputError):
            smooth_and_normalize(np.zeros((10, 3)), np.zeros(10, dtype=bool))

    def test_window_past_the_input_is_clamped(self):
        """Offsets of len(valid) or more reach no frame, so a huge window
        gives the bytes of one len(valid) hops wide, without looping over
        millions of empty offsets."""
        feats = np.random.default_rng(0).normal(size=(40, 3))
        valid = np.ones(40, dtype=bool)
        valid[17:20] = False
        t0 = time.perf_counter()
        huge = smooth_and_normalize(feats, valid, smooth_s=2e6)
        assert time.perf_counter() - t0 < 2.0
        whole = smooth_and_normalize(feats, valid, smooth_s=40.0)
        assert huge.raw.tobytes() == whole.raw.tobytes()
        assert huge.features.tobytes() == whole.features.tobytes()

    @pytest.mark.parametrize("odd", [[7], [1, 3, 5, 13]])
    def test_valid_windows_only_at_odd_hops(self, odd):
        # the 1 s decimation keeps even hops: nothing is left to normalize
        valid = np.zeros(15, dtype=bool)
        valid[odd] = True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyInputError, match="1 s frame grid"):
                smooth_and_normalize(np.ones((15, 3)), valid)


def fm_track(rate_hz=6.0, depth=150.0, dur_s=30.0, base=2400.0, ramp=True):
    t = np.arange(int(dur_s * 100)) / 100.0
    cents = base + depth * np.sin(2 * np.pi * rate_hz * t)
    if ramp:
        leg = 5.0
        phase = (t / leg) % 2.0
        cents = cents + 700 * np.where(phase < 1, phase, 2 - phase)
    energy = 3.0 * np.sin(2 * np.pi * rate_hz * t + 0.7)
    return vocal_track(cents, energy)


class TestFullPath:
    def test_taan_mod_rate_in_band(self):
        track = fm_track()
        seq = extract_features(track, np.ones(len(track), dtype=bool))
        rates = seq.raw[seq.vocal_mask, 0]
        assert np.mean((rates >= 5) & (rates <= 10)) >= 0.9

    def test_transposition_invariance(self):
        track = fm_track()
        up = vocal_track(hz_to_cents(track.f0_hz) + 200, track.energy_db)
        a, va = raw_features(track, np.ones(len(track), dtype=bool))
        b, vb = raw_features(up, np.ones(len(track), dtype=bool))
        assert np.array_equal(va, vb)
        assert np.allclose(a[va, 0], b[vb, 0])
        assert np.allclose(a[va, 1], b[vb, 1], rtol=1e-6)

    def test_energy_offset_invariance(self):
        track = fm_track()
        mask = np.ones(len(track), dtype=bool)
        shifted = PitchEnergyTrack(f0_hz=track.f0_hz,
                                   energy_db=track.energy_db + 12.0,
                                   voiced=track.voiced)
        a, va = raw_features(track, mask)
        b, _ = raw_features(shifted, mask)
        assert np.array_equal(a[va, 2], b[va, 2])

    def test_features_only_on_vocal_frames(self):
        track = fm_track(dur_s=20.0)
        mask = np.ones(len(track), dtype=bool)
        mask[:500] = False
        seq = extract_features(track, mask)
        assert not seq.vocal_mask[:4].any()
        assert np.isnan(seq.features[~seq.vocal_mask]).all()

    def test_gappy_window_skipped(self):
        track = fm_track(dur_s=5.0)
        mask = np.ones(len(track), dtype=bool)
        mask[100:150] = False  # 50% gap inside second window
        feats, valid = raw_features(track, mask)
        assert not valid[1] and not valid[2]


class TestFeatureCsv:
    def test_round_trip(self, tmp_path):
        track = fm_track(dur_s=20.0)
        seq = extract_features(track, np.ones(len(track), dtype=bool))
        path = tmp_path / "feats.csv"
        write_features(seq, path)
        back = read_features(path)
        assert np.array_equal(seq.vocal_mask, back.vocal_mask)
        sel = seq.vocal_mask
        assert np.array_equal(seq.features[sel], back.features[sel])
