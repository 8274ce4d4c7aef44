"""Melodic-style descriptors: pitch-modulation rate and strength, and the
zero-crossing rate of the vocal energy contour.

Raw descriptors are computed over sliding 1 s windows of the 10 ms pitch
track at 500 ms hop, smoothed over 5 s, decimated to a 1 s frame rate and
z-normalized per concert.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInputError, InvalidArgumentError, ParseError

REF_HZ = 55.0
WIN_LEN = 100           # 1 s of 10 ms samples
HOP_LEN = 50            # 500 ms
MOD_DFT = 128
MOD_BIN_HZ = 100.0 / MOD_DFT
PEAK_BIN_LO = 2         # 1.5625 Hz; bin 1 excluded, drift is detrended
PEAK_BIN_HI = 25        # 19.53 Hz
PEAK_HALFWIDTH = 2      # +/- 1.6 Hz neighborhood = 5 bins
MAX_GAP_FRAC = 0.2
SMOOTH_S = 5.0
VAR_FLOOR = 1e-12


@dataclass
class StyleFeatureSeq:
    """Normalized 3-d style features (mod_rate, mod_energy, energy_zcr)
    at 1 s frame rate, defined on vocal frames only."""

    features: np.ndarray      # (n, 3), z-normalized; NaN on non-vocal frames
    vocal_mask: np.ndarray    # (n,)
    raw: np.ndarray = None    # smoothed, pre-normalization values
    frame_s: float = 1.0

    def __len__(self):
        return len(self.vocal_mask)


def hz_to_cents(f0_hz, ref_hz=REF_HZ):
    """Cents relative to ref_hz; non-positive (unvoiced) entries become NaN."""
    f0 = np.asarray(f0_hz, dtype=np.float64)
    if np.any(f0 < 0):
        raise InvalidArgumentError("negative f0 is invalid")
    cents = np.full(f0.shape, np.nan)
    v = f0 > 0
    cents[v] = 1200.0 * np.log2(f0[v] / ref_hz)
    return cents


def _fill_gaps(window, max_gap_frac=MAX_GAP_FRAC):
    """Linear interpolation across NaN gaps; None if too gappy."""
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


def detrend_poly3(window):
    """Residual after removing a least-squares cubic from a 1 s window."""
    w = np.asarray(window, dtype=np.float64)
    if len(w) != WIN_LEN:
        raise InvalidArgumentError(f"window must have {WIN_LEN} samples")
    t = np.arange(WIN_LEN) / WIN_LEN
    coeffs = np.polynomial.polynomial.polyfit(t, w, deg=3)
    return w - np.polynomial.polynomial.polyval(t, coeffs)


def modulation_spectrum(residual):
    """Magnitudes of the 128-point DFT (bins 0..64) of a 100-sample residual."""
    r = np.asarray(residual, dtype=np.float64)
    if len(r) != WIN_LEN:
        raise InvalidArgumentError(f"residual must have {WIN_LEN} samples")
    return np.abs(np.fft.rfft(r, n=MOD_DFT))


def modulation_peak_features(mag):
    """Peak rate (Hz) and power-spectrum energy around the peak in 1-20 Hz.

    Returns (mod_rate, mod_energy, degenerate); an all-zero spectrum is
    flagged degenerate with the rate pinned to the first searched bin.
    """
    mag = np.asarray(mag, dtype=np.float64)
    band = mag[PEAK_BIN_LO : PEAK_BIN_HI + 1]
    if not band.any():
        return PEAK_BIN_LO * MOD_BIN_HZ, 0.0, True
    peak = PEAK_BIN_LO + int(np.argmax(band))
    lo = max(peak - PEAK_HALFWIDTH, 0)
    hi = min(peak + PEAK_HALFWIDTH + 1, len(mag))
    energy = float(np.sum(mag[lo:hi] ** 2))
    return peak * MOD_BIN_HZ, energy, False


def energy_zcr(energy_window):
    """Sign changes of the mean-removed energy contour over a 1 s window."""
    w = np.asarray(energy_window, dtype=np.float64)
    if len(w) != WIN_LEN:
        raise InvalidArgumentError(f"window must have {WIN_LEN} samples")
    centered = w - w.mean()
    return int(np.sum(centered[:-1] * centered[1:] < 0))


def raw_features(track, vocal_mask, max_gap_frac=MAX_GAP_FRAC):
    """Per-window raw descriptors at 500 ms hop.

    Returns (features (k,3), valid (k,)); windows with more than
    max_gap_frac non-vocal samples (or degenerate spectra) are invalid.
    """
    cents = hz_to_cents(track.f0_hz)
    cents[~vocal_mask] = np.nan
    energy = np.where(vocal_mask, track.energy_db, np.nan)
    n = len(track)
    n_windows = max((n - WIN_LEN) // HOP_LEN + 1, 0)
    feats = np.full((n_windows, 3), np.nan)
    valid = np.zeros(n_windows, dtype=bool)
    for k in range(n_windows):
        s = k * HOP_LEN
        cw = _fill_gaps(cents[s : s + WIN_LEN], max_gap_frac)
        ew = _fill_gaps(energy[s : s + WIN_LEN], max_gap_frac)
        if cw is None or ew is None:
            continue
        mag = modulation_spectrum(detrend_poly3(cw))
        rate, mod_energy, degenerate = modulation_peak_features(mag)
        if degenerate:
            continue
        feats[k] = (rate, mod_energy, energy_zcr(ew))
        valid[k] = True
    return feats, valid


def smooth_and_normalize(feats, valid, smooth_s=SMOOTH_S, var_floor=VAR_FLOOR):
    """Moving average (smooth_s window) of valid raw frames, 1 s
    decimation, then per-dimension z-normalization over the concert's
    vocal frames."""
    feats = np.asarray(feats, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if not valid.any():
        raise EmptyInputError("no vocal frames: nothing to normalize")
    half = int(round(smooth_s / 2 / 0.5))  # raw hops within +/- smooth_s/2
    k = len(valid)
    smoothed = np.full((k, 3), np.nan)
    for i in range(k):
        if not valid[i]:
            continue
        # truncate at the edges of the contiguous valid region
        lo = i
        while lo > max(i - half, 0) and valid[lo - 1]:
            lo -= 1
        hi = i
        while hi < min(i + half, k - 1) and valid[hi + 1]:
            hi += 1
        smoothed[i] = feats[lo : hi + 1][valid[lo : hi + 1]].mean(axis=0)
    # decimate 500 ms -> 1 s
    sm = smoothed[::2]
    mask = valid[::2] & np.isfinite(sm).all(axis=1)
    out = np.full_like(sm, np.nan)
    mu = sm[mask].mean(axis=0)
    var = sm[mask].var(axis=0)
    out[mask] = (sm[mask] - mu) / np.sqrt(np.maximum(var, var_floor))
    return StyleFeatureSeq(features=out, vocal_mask=mask, raw=sm)


def extract_features(track, vocal_mask, max_gap_frac=MAX_GAP_FRAC,
                     smooth_s=SMOOTH_S, var_floor=VAR_FLOOR):
    """Full feature path: raw windows, smoothing, concert normalization."""
    feats, valid = raw_features(track, vocal_mask, max_gap_frac)
    return smooth_and_normalize(feats, valid, smooth_s, var_floor)


def write_features(seq, path):
    """Feature CSV: frame_s,mod_rate,mod_energy,energy_zcr,vocal."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("frame_s,mod_rate,mod_energy,energy_zcr,vocal\n")
        for t in range(len(seq)):
            f = seq.features[t]
            vals = ",".join("nan" if not np.isfinite(v) else repr(float(v))
                            for v in f)
            fh.write(f"{float(t * seq.frame_s)!r},{vals},{int(seq.vocal_mask[t])}\n")


def read_features(path):
    """Read a feature CSV written by write_features."""
    rows, mask = [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "frame_s,mod_rate,mod_energy,energy_zcr,vocal":
            raise InvalidArgumentError(f"{path}: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != 5:
                raise InvalidArgumentError(f"{path}: expected 5 columns")
            try:
                rows.append([float(p) for p in parts[1:4]])
                mask.append(bool(int(parts[4])))
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno) from None
    return StyleFeatureSeq(
        features=np.array(rows, dtype=np.float64),
        vocal_mask=np.array(mask, dtype=bool),
    )
