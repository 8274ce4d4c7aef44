import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taanseg import vocal
from taanseg.dsp import AudioClip, LOG_FLOOR, LogSpectrogram, log_spectrogram
from taanseg.errors import FormatError, InvalidArgumentError, ParseError
from taanseg.vocal import (
    PitchEnergyTrack,
    detect_f0_baseline,
    detect_vocal_activity,
    harmonic_energy,
    ingest_track,
    write_track,
)

SR = 8000


def harmonic_clip(f0, n_harm=5, dur=2.0, phases=None):
    t = np.arange(int(SR * dur)) / SR
    x = np.zeros_like(t)
    for h in range(1, n_harm + 1):
        ph = 0.0 if phases is None else phases[h - 1]
        x += np.sin(2 * np.pi * f0 * h * t + ph) / h
    return AudioClip(samples=0.8 * x / np.abs(x).max(), sample_rate=SR)


def track_spec(clip):
    return log_spectrogram(clip, 0.04, 0.01, 1024)


def synthetic_spec(peak_mags):
    """Spectrogram of one frame with given {bin: linear magnitude}."""
    values = np.full((641, 1), np.log(LOG_FLOOR))
    for b, m in peak_mags.items():
        values[b, 0] = np.log(m)
    return LogSpectrogram(values=values, bin_hz=7.8125, hop_s=0.01)


class TestDetectF0:
    def test_harmonic_tone(self):
        track = detect_f0_baseline(track_spec(harmonic_clip(220)))
        v = track.voiced
        assert v.mean() >= 0.95
        cents = 1200 * np.log2(track.f0_hz[v] / 220)
        assert np.mean(np.abs(cents) <= 10) >= 0.95

    def test_silence_unvoiced(self):
        clip = AudioClip(samples=np.zeros(SR), sample_rate=SR)
        track = detect_f0_baseline(track_spec(clip))
        assert not track.voiced.any()

    def test_vibrato_tracking(self):
        t = np.arange(SR * 2) / SR
        f_inst = 220 * 2 ** (100 * np.sin(2 * np.pi * 6 * t) / 1200)
        phase = 2 * np.pi * np.cumsum(f_inst) / SR
        x = sum(np.sin(h * phase) / h for h in range(1, 6))
        clip = AudioClip(samples=0.8 * x / np.abs(x).max(), sample_rate=SR)
        track = detect_f0_baseline(track_spec(clip))
        # closed-form FM instantaneous frequency at frame centers
        centers = np.arange(len(track)) * 0.01 + 0.02
        truth = 220 * 2 ** (100 * np.sin(2 * np.pi * 6 * centers) / 1200)
        v = track.voiced
        err = 1200 * np.log2(track.f0_hz[v] / truth[v])
        assert np.sqrt(np.mean(err**2)) < 30

    def test_transposition_consistency(self):
        base = detect_f0_baseline(track_spec(harmonic_clip(220)))
        up = detect_f0_baseline(
            track_spec(harmonic_clip(220 * 2 ** (200 / 1200)))
        )
        shift = 1200 * np.log2(
            np.median(up.f0_hz[up.voiced]) / np.median(base.f0_hz[base.voiced])
        )
        assert shift == pytest.approx(200, abs=10)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidArgumentError):
            detect_f0_baseline(track_spec(harmonic_clip(220)), 300, 300)

    def test_wrong_hop_rejected(self):
        spec = log_spectrogram(harmonic_clip(220), 0.04, 0.02, 1024)
        with pytest.raises(InvalidArgumentError):
            detect_f0_baseline(spec)


class TestHarmonicEnergy:
    def test_unvoiced_sentinel(self):
        spec = synthetic_spec({26: 1.0})
        assert harmonic_energy(spec, [0.0])[0] == -120.0

    def test_single_harmonic_zero_db(self):
        f0 = 200.0
        spec = synthetic_spec({round(200 / 7.8125): 1.0})
        assert harmonic_energy(spec, [f0])[0] == pytest.approx(0.0, abs=1e-6)

    def test_three_harmonics(self):
        f0 = 200.0
        spec = synthetic_spec({
            round(200 / 7.8125): 1.0,
            round(400 / 7.8125): 0.5,
            round(600 / 7.8125): 0.25,
        })
        # direct summation oracle: 10*log10(1 + 0.25 + 0.0625)
        assert harmonic_energy(spec, [f0])[0] == pytest.approx(
            10 * np.log10(1.3125), abs=1e-6
        )

    def test_no_harmonic_below_ceiling(self):
        # f0 >= 5 kHz has no usable harmonic, even beside a voiced frame
        values = np.full((641, 3), np.log(LOG_FLOOR))
        values[26, :] = 0.0
        spec = LogSpectrogram(values=values, bin_hz=7.8125, hop_s=0.01)
        energy = harmonic_energy(spec, [5000.0, 6000.0, 203.125])
        assert energy[:2].tolist() == [-120.0, -120.0]
        assert energy[2] == pytest.approx(0.0, abs=1e-6)

    def test_all_unvoiced(self):
        values = np.zeros((641, 4))
        spec = LogSpectrogram(values=values, bin_hz=7.8125, hop_s=0.01)
        with np.errstate(all="raise"):
            energy = harmonic_energy(spec, np.zeros(4))
        assert energy.tolist() == [-120.0] * 4

    def test_misaligned_lengths(self):
        spec = synthetic_spec({26: 1.0})
        with pytest.raises(InvalidArgumentError):
            harmonic_energy(spec, [200.0, 200.0])

    def test_phase_invariance(self):
        rng = np.random.default_rng(3)
        a = harmonic_clip(220, phases=np.zeros(5))
        b = harmonic_clip(220, phases=rng.uniform(0, 2 * np.pi, 5))
        f0 = np.full(track_spec(a).n_frames, 220.0)
        ea = harmonic_energy(track_spec(a), f0)
        eb = harmonic_energy(track_spec(b), f0)
        assert np.allclose(ea, eb, atol=0.5)


def make_track(voiced):
    voiced = np.asarray(voiced, dtype=bool)
    f0 = np.where(voiced, 220.0, 0.0)
    energy = np.where(voiced, 0.0, -120.0)
    return PitchEnergyTrack(f0_hz=f0, energy_db=energy, voiced=voiced)


class TestVocalActivity:
    def test_fully_voiced(self):
        mask = detect_vocal_activity(make_track(np.ones(500)))
        assert mask.all()

    def test_single_voiced_frame(self):
        v = np.zeros(500)
        v[250] = 1
        assert not detect_vocal_activity(make_track(v)).any()

    def test_short_gap_absorbed(self):
        v = np.r_[np.ones(100), np.zeros(8), np.ones(100)]
        mask = detect_vocal_activity(make_track(v))
        assert mask.all()

    def test_empty(self):
        assert len(detect_vocal_activity(make_track(np.zeros(0)))) == 0


def loop_runs(mask):
    """The edge-splicing _runs that the padded np.diff replaced, kept as its
    oracle."""
    mask = np.asarray(mask, dtype=bool)
    if len(mask) == 0:
        return []
    edges = np.flatnonzero(np.diff(mask.astype(np.int8)))
    starts = list(edges[mask[edges + 1]] + 1)
    ends = list(edges[~mask[edges + 1]] + 1)
    if mask[0]:
        starts.insert(0, 0)
    if mask[-1]:
        ends.append(len(mask))
    return list(zip(starts, ends))


class TestRunsAgainstLoop:
    @pytest.mark.parametrize("mask", [[], [True], [False], [True] * 9,
                                      [False] * 9, [True, False] * 5,
                                      [False, True] * 5])
    def test_edge_cases(self, mask):
        assert vocal._runs(mask) == loop_runs(mask)

    @settings(max_examples=400, deadline=None)
    @given(mask=st.lists(st.booleans(), max_size=80))
    def test_random_masks(self, mask):
        assert vocal._runs(mask) == loop_runs(mask)

    @settings(max_examples=100, deadline=None)
    @given(voiced=st.lists(st.sampled_from([0, 0, 1, 1, 1]), max_size=300),
           min_run_s=st.sampled_from([0.0, 0.05, 0.2]),
           max_gap_s=st.sampled_from([0.0, 0.05, 0.1]))
    def test_vocal_activity(self, voiced, min_run_s, max_gap_s):
        track = make_track(voiced)
        new = detect_vocal_activity(track, min_run_s, max_gap_s)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vocal, "_runs", loop_runs)
            old = detect_vocal_activity(track, min_run_s, max_gap_s)
        assert np.array_equal(new, old)


class TestIngest:
    def test_round_trip(self, tmp_path):
        track = detect_f0_baseline(track_spec(harmonic_clip(220)))
        path = tmp_path / "track.csv"
        write_track(track, path)
        back = ingest_track(path)
        assert np.array_equal(track.f0_hz, back.f0_hz)
        assert np.array_equal(track.energy_db, back.energy_db)
        assert np.array_equal(track.voiced, back.voiced)

    def test_three_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "time_s,f0_hz,energy_db,voiced\n"
            "0.0,220.0,-3.0,1\n0.01,0.0,-120.0,0\n0.02,220.0,-3.0,1\n"
        )
        assert len(ingest_track(path)) == 3

    def test_voiced_zero_f0_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,f0_hz,energy_db,voiced\n0.0,0.0,-3.0,1\n")
        with pytest.raises(ParseError):
            ingest_track(path)

    def test_wrong_hop_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "time_s,f0_hz,energy_db,voiced\n0.0,220.0,-3.0,1\n0.02,220.0,-3.0,1\n"
        )
        with pytest.raises(FormatError):
            ingest_track(path)

    def test_malformed_row_has_line_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,f0_hz,energy_db,voiced\n0.0,abc,-3.0,1\n")
        with pytest.raises(ParseError, match="2"):
            ingest_track(path)


class TestTrackInvariants:
    def test_voiced_iff_positive_f0(self):
        with pytest.raises(InvalidArgumentError):
            PitchEnergyTrack(
                f0_hz=[220.0], energy_db=[0.0], voiced=[False]
            )
