"""The batched track -> feature path against in-test copies of the
per-item loops it replaced: the per-window raw_features loop with its
polyfit detrend, the while-loop smoothing, and the line-by-line track
reader."""

import numpy as np
import pytest

from taanseg import features, synth, vocal
from taanseg.errors import FormatError, ParseError
from taanseg.features import (
    HOP_LEN,
    MAX_GAP_FRAC,
    MOD_BIN_HZ,
    MOD_DFT,
    PEAK_BIN_HI,
    PEAK_BIN_LO,
    PEAK_HALFWIDTH,
    WIN_LEN,
    hz_to_cents,
    raw_features,
    smooth_and_normalize,
)
from taanseg.vocal import PitchEnergyTrack, ingest_track, write_track

# -- oracles: the loops the batched code replaced ---------------------------


def oracle_fill_gaps(window, max_gap_frac):
    w = np.asarray(window, dtype=np.float64)
    bad = ~np.isfinite(w)
    if not bad.any():
        return w
    if bad.mean() > max_gap_frac or bad.all():
        return None
    idx = np.arange(len(w))
    out = w.copy()
    out[bad] = np.interp(idx[bad], idx[~bad], w[~bad])
    return out


def oracle_window(cw, ew):
    t = np.arange(WIN_LEN) / WIN_LEN
    coeffs = np.polynomial.polynomial.polyfit(t, cw, deg=3)
    mag = np.abs(np.fft.rfft(cw - np.polynomial.polynomial.polyval(t, coeffs),
                             n=MOD_DFT))
    band = mag[PEAK_BIN_LO : PEAK_BIN_HI + 1]
    if not band.any():
        return None
    peak = PEAK_BIN_LO + int(np.argmax(band))
    lo = max(peak - PEAK_HALFWIDTH, 0)
    hi = min(peak + PEAK_HALFWIDTH + 1, len(mag))
    centered = ew - ew.mean()
    return (peak * MOD_BIN_HZ, float(np.sum(mag[lo:hi] ** 2)),
            int(np.sum(centered[:-1] * centered[1:] < 0)))


def oracle_raw_features(track, vocal_mask, max_gap_frac=MAX_GAP_FRAC):
    cents = hz_to_cents(track.f0_hz)
    cents[~vocal_mask] = np.nan
    energy = np.where(vocal_mask, track.energy_db, np.nan)
    n_windows = max((len(track) - WIN_LEN) // HOP_LEN + 1, 0)
    feats = np.full((n_windows, 3), np.nan)
    valid = np.zeros(n_windows, dtype=bool)
    for k in range(n_windows):
        s = k * HOP_LEN
        cw = oracle_fill_gaps(cents[s : s + WIN_LEN], max_gap_frac)
        ew = oracle_fill_gaps(energy[s : s + WIN_LEN], max_gap_frac)
        if cw is None or ew is None:
            continue
        out = oracle_window(cw, ew)
        if out is not None:
            feats[k] = out
            valid[k] = True
    return feats, valid


def oracle_smoothed(feats, valid, smooth_s=features.SMOOTH_S):
    half = int(round(smooth_s / 2 / 0.5))
    k = len(valid)
    smoothed = np.full((k, 3), np.nan)
    for i in range(k):
        if not valid[i]:
            continue
        lo = i
        while lo > max(i - half, 0) and valid[lo - 1]:
            lo -= 1
        hi = i
        while hi < min(i + half, k - 1) and valid[hi + 1]:
            hi += 1
        smoothed[i] = feats[lo : hi + 1][valid[lo : hi + 1]].mean(axis=0)
    return smoothed[::2]


def oracle_ingest_track(path):
    """The line-by-line reader: the track, or the error class and line."""
    f0, energy, voiced = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().strip() != "time_s,f0_hz,energy_db,voiced":
            return FormatError, None
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                return ParseError, lineno
            try:
                t, f, e = (float(p) for p in parts[:3])
                v = int(parts[3])
            except ValueError:
                return ParseError, lineno
            if v not in (0, 1):
                return ParseError, lineno
            if abs(t - (lineno - 2) * vocal.TRACK_HOP_S) > 1e-6:
                return FormatError, lineno
            if (f > 0) != bool(v):
                return ParseError, lineno
            f0.append(f)
            energy.append(e)
            voiced.append(bool(v))
    return PitchEnergyTrack(f0_hz=np.array(f0), energy_db=np.array(energy),
                            voiced=np.array(voiced))


# -- inputs -----------------------------------------------------------------


def contour_track(seed, dropout=0.0):
    """A 10-minute pitch/energy track straight from the test concert's
    contours, instrumental unvoiced; dropout unvoices that fraction of
    frames at random to put gaps inside windows."""
    script = synth.default_test_script(seed)
    rng = np.random.default_rng(script.seed)
    f0, energy = [], []
    for spec in script.sections:
        cents = synth.synth_pitch_contour(spec, rng)
        n = int(round(spec.duration_s / synth.CONTOUR_HOP_S))
        if cents is None:
            f0.append(np.zeros(n))
            energy.append(np.full(n, vocal.UNVOICED_DB))
            continue
        f0.append(synth.REF_HZ * 2.0 ** (cents / 1200.0))
        t = np.arange(n) * synth.CONTOUR_HOP_S
        energy.append(-20.0 + 3.0 * np.sin(2 * np.pi * spec.mod_rate_hz * t))
    f0 = np.concatenate(f0)
    f0[np.random.default_rng(seed + 1).random(len(f0)) < dropout] = 0.0
    return PitchEnergyTrack(f0_hz=f0, energy_db=np.concatenate(energy),
                            voiced=f0 > 0)


def assert_raw_matches(track, mask):
    feats, valid = raw_features(track, mask)
    want, want_valid = oracle_raw_features(track, mask)
    assert np.array_equal(valid, want_valid)
    assert np.array_equal(feats[valid][:, [0, 2]], want[valid][:, [0, 2]])
    np.testing.assert_allclose(feats[valid, 1], want[valid, 1], rtol=1e-12,
                               atol=0)
    assert np.isnan(feats[~valid]).all()
    return feats, valid


# -- raw features and smoothing ---------------------------------------------


class TestBenchTracks:
    @pytest.mark.parametrize("seed", [7, 11, 20])
    def test_vocal_activity_mask(self, seed):
        track = contour_track(seed)
        feats, valid = assert_raw_matches(
            track, vocal.detect_vocal_activity(track))
        assert valid.sum() > 500
        seq = smooth_and_normalize(feats, valid)
        assert np.array_equal(seq.raw, oracle_smoothed(feats, valid),
                              equal_nan=True)

    @pytest.mark.parametrize("dropout", [0.02, 0.15])
    def test_gap_filled_windows(self, dropout):
        track = contour_track(7, dropout)
        feats, valid = assert_raw_matches(track, track.voiced)
        assert valid.any() and not valid.all()
        assert np.array_equal(smooth_and_normalize(feats, valid).raw,
                              oracle_smoothed(feats, valid), equal_nan=True)


def cents_track(cents):
    return PitchEnergyTrack(
        f0_hz=features.REF_HZ * 2.0 ** (np.asarray(cents) / 1200.0),
        energy_db=np.sin(np.arange(len(cents)) * 0.9),
        voiced=np.ones(len(cents), dtype=bool))


class TestRawEdgeCases:
    @pytest.mark.parametrize("n", [0, 1, WIN_LEN - 1])
    def test_no_window(self, n):
        track = cents_track(np.zeros(n))
        feats, valid = raw_features(track, np.ones(n, dtype=bool))
        assert feats.shape == (0, 3) and valid.shape == (0,)

    def test_one_window_and_a_partial_hop(self):
        t = np.arange(WIN_LEN + HOP_LEN - 1) * 0.01
        track = cents_track(2400 + 150 * np.sin(2 * np.pi * 6 * t))
        feats, valid = assert_raw_matches(track, np.ones(len(t), dtype=bool))
        assert valid.tolist() == [True]

    def test_gaps_at_and_beyond_the_limit(self):
        t = np.arange(600) * 0.01
        track = cents_track(2400 + 150 * np.sin(2 * np.pi * 6 * t))
        mask = np.ones(len(t), dtype=bool)
        mask[10:30] = False        # 20 % of windows 0: filled, still usable
        mask[160:181] = False      # 21 % of windows 2 and 3: unusable
        mask[300:400] = False      # window 6 all gap
        mask[500] = False          # one-sample gaps at the edge of windows
        mask[599] = False
        feats, valid = assert_raw_matches(track, mask)
        assert valid[0] and not valid[2] and not valid[3] and not valid[6]
        assert valid[9] and valid[10]

    def test_degenerate_window(self):
        # 55 Hz is exactly 0 cents: a flat window has an all-zero spectrum
        t = np.arange(400) * 0.01
        cents = 2400 + 150 * np.sin(2 * np.pi * 6 * t)
        cents[150:250] = 0.0
        feats, valid = assert_raw_matches(cents_track(cents),
                                          np.ones(400, dtype=bool))
        assert valid.tolist() == [True, True, True, False, True, True, True]

    def test_constant_pitch_is_degenerate(self):
        # the cubic detrend of a steady 110 Hz leaves only rounding noise,
        # which must not read as a 1.56 Hz modulation
        track = PitchEnergyTrack(f0_hz=np.full(300, 110.0),
                                 energy_db=np.sin(np.arange(300) * 0.9),
                                 voiced=np.ones(300, dtype=bool))
        feats, valid = raw_features(track, np.ones(300, dtype=bool))
        assert len(valid) == 5 and not valid.any() and np.isnan(feats).all()

    def test_modulation_above_the_flat_floor(self):
        # a modulation of 1000 times the floor stays a valid window
        t = np.arange(300) * 0.01
        cents = 2400 + 1000 * features.FLAT_CENTS * np.sin(2 * np.pi * 6 * t)
        feats, valid = raw_features(cents_track(cents),
                                    np.ones(300, dtype=bool))
        assert valid.all() and np.allclose(feats[:, 0], 6.25)

    def test_all_gap(self):
        track = cents_track(np.zeros(300))
        feats, valid = raw_features(track, np.zeros(300, dtype=bool))
        assert not valid.any() and np.isnan(feats).all()


class TestSmoothingEdgeCases:
    @pytest.mark.parametrize("pattern", [
        "1" * 40,
        "1" * 12 + "0" + "1" * 20,          # a run broken by one window
        "0110111011110" * 3,
        "1",
        "10",
        "0" * 6 + "1" + "0" * 7,
    ])
    def test_runs(self, pattern):
        valid = np.array([c == "1" for c in pattern])
        feats = np.random.default_rng(len(pattern)).normal(
            size=(len(valid), 3)) * [1.0, 1e3, 7.0]
        feats[~valid] = np.nan
        seq = smooth_and_normalize(feats, valid)
        assert np.array_equal(seq.raw, oracle_smoothed(feats, valid),
                              equal_nan=True)

    @pytest.mark.parametrize("smooth_s", [0.5, 1.0, 2.0, 9.0])
    def test_window_widths(self, smooth_s):
        valid = np.array([c == "1" for c in "1111011111111101111111"])
        feats = np.random.default_rng(3).normal(size=(len(valid), 3))
        seq = smooth_and_normalize(feats, valid, smooth_s=smooth_s)
        assert np.array_equal(seq.raw, oracle_smoothed(feats, valid, smooth_s),
                              equal_nan=True)


# -- the track reader -------------------------------------------------------

HEADER = "time_s,f0_hz,energy_db,voiced\n"
GOOD = ["0.00,220.0,-3.0,1", "0.01,0.0,-120.0,0", "0.02,221.5,-2.5,1",
        "0.03,222.0,-2.0,1"]


def reader_case(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    return path, oracle_ingest_track(path)


def assert_same_track(a, b):
    for name in ("f0_hz", "energy_db", "voiced"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestReader:
    def test_bench_track_bit_identical(self, tmp_path):
        track = contour_track(7, dropout=0.01)
        path = tmp_path / "t.csv"
        write_track(track, path)
        back = ingest_track(path)
        assert_same_track(back, oracle_ingest_track(path))
        assert_same_track(back, track)

    @pytest.mark.parametrize("text", [
        HEADER,
        HEADER + "\n\n",
        HEADER + "\n".join(GOOD),
        HEADER + "\n".join(GOOD) + "\n\n  \n",
        HEADER + "\r\n".join(GOOD) + "\r\n",
        HEADER + " 0.00 , 220.0,-3.0, 1 \n",
        HEADER + "0,220.0,-3.0,+1\n0.01,0.0,nan,00\n",
    ])
    def test_accepted(self, tmp_path, text):
        path, want = reader_case(tmp_path, text)
        assert_same_track(ingest_track(path), want)

    @pytest.mark.parametrize("body,line", [
        ("0.00,220.0,-3.0\n", 2),                       # 3 columns
        ("0.00,220.0,-3.0,1,\n", 2),                    # 5 columns
        (GOOD[0] + "\n0.01,abc,-3.0,0\n", 3),           # non-numeric cell
        (GOOD[0] + "\n0.01,0.0,-3.0,2\n", 3),           # voiced 2
        (GOOD[0] + "\n0.01,220.0,-3.0,1.0\n", 3),       # voiced 1.0
        (GOOD[0] + "\n0.01,220.0,-3.0,\n", 3),          # empty cell
        ("# comment\n" + GOOD[0] + "\n", 2),            # a '#' line
        (GOOD[0] + "\n" + GOOD[1] + "\n0.05,221.5,-2.5,1\n", 4),  # off grid
        (GOOD[0] + "\n0.01,220.0,-3.0,0\n", 3),         # f0 > 0, unvoiced
        (GOOD[0] + "\n0.01,0.0,-3.0,1\n", 3),           # f0 = 0, voiced
        (GOOD[0] + "\n0.05,0.0,-3.0,2\n", 3),           # voiced before grid
        (GOOD[0] + "\n0.05,220.0,-3.0,0\n", 3),         # grid before f0
        ("\n".join(GOOD[:2]) + "\n\n" + "\n".join(GOOD[2:]) + "\n", 5),
        ("\n".join(GOOD[:2]) + "\n \n" + "\n".join(GOOD[2:]) + "\n", 5),
        ("0.00,220.0,-3.0,7\n0.02,x\n", 2),             # first bad line wins
        ("0.00,220.0,-3.0,1\n0.01,0.0,-3.0,1\n0.02,x\n", 3),
    ])
    def test_rejected_with_class_and_line(self, tmp_path, body, line):
        path, (cls, want_line) = reader_case(tmp_path, HEADER + body)
        assert want_line == line
        with pytest.raises(cls) as info:
            ingest_track(path)
        assert type(info.value) is cls
        assert f"{path}:{line}:" in str(info.value)

    def test_empty_lines_with_a_skipped_step(self, tmp_path):
        # the line-by-line reader took the empty lines as grid steps and
        # returned 2 rows 30 ms apart; the track hop is 10 ms, so reject
        path, want = reader_case(tmp_path, HEADER + GOOD[0] + "\n\n\n"
                                 "0.03,222.0,-2.0,1\n")
        assert len(want) == 2
        with pytest.raises(FormatError, match=f"{path}:3: empty line"):
            ingest_track(path)

    @pytest.mark.parametrize("text", ["time_s,f0_hz,energy_db\n", "", "\n"])
    def test_bad_header(self, tmp_path, text):
        path, (cls, _) = reader_case(tmp_path, text + "\n".join(GOOD))
        assert cls is FormatError
        with pytest.raises(FormatError, match="unexpected header"):
            ingest_track(path)
