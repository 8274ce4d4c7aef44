"""Melodic-style descriptors: pitch-modulation rate and strength, and the
zero-crossing rate of the vocal energy contour.

Raw descriptors are computed over sliding 1 s windows of the 10 ms pitch
track at 500 ms hop, smoothed over 5 s, decimated to a 1 s frame rate and
z-normalized per concert.
"""

from dataclasses import dataclass

import numpy as np

from .dsp import seconds_to_frames
from .errors import (EmptyInputError, FormatError, InvalidArgumentError,
                     ParseError)
from .table import Table
from .vocal import TRACK_HOP_S

REF_HZ = 55.0
WIN_LEN = round(1 / TRACK_HOP_S)    # 1 s of track samples: 100
HOP_LEN = WIN_LEN // 2              # 500 ms: 50 samples
RAW_HOP_S = HOP_LEN * TRACK_HOP_S   # 0.5
FRAME_HOPS = round(1 / RAW_HOP_S)   # raw hops per 1 s frame: 2
MOD_DFT = 128
MOD_BIN_HZ = 1 / TRACK_HOP_S / MOD_DFT  # the 100 Hz track rate over the DFT
PEAK_BIN_LO = 2         # 1.5625 Hz; bin 1 excluded, drift is detrended
PEAK_BIN_HI = 25        # 19.53 Hz
PEAK_HALFWIDTH = 2      # +/- 1.6 Hz neighborhood = 5 bins
MAX_GAP_FRAC = 0.2
SMOOTH_S = 5.0
VAR_FLOOR = 1e-12
# a detrended window that stays within this many cents of zero is flat: the
# cubic fit of a constant pitch leaves ~1e-12 cents of rounding, and any
# real modulation is many orders of magnitude larger
FLAT_CENTS = 1e-6


@dataclass
class StyleFeatureSeq:
    """Any model's frame features at 1 s rate, on vocal frames only: the 3-d
    style features (mod_rate, mod_energy, energy_zcr) or cnn.frame_features."""

    features: np.ndarray      # (n, d); NaN on non-vocal frames
    vocal_mask: np.ndarray    # (n,)
    raw: np.ndarray = None    # smoothed, pre-normalization values

    def __post_init__(self):
        f, m = np.shape(self.features), np.shape(self.vocal_mask)
        if len(f) != 2 or m != f[:1]:
            raise InvalidArgumentError(f"shapes {f}, {m}: not (n, d), (n,)")

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


# orthonormal basis of the cubics on the window grid: the least-squares
# cubic of a window w is the fixed projection (w Q) Q^T
_CUBIC_Q = np.linalg.qr(np.vander(np.arange(WIN_LEN) / WIN_LEN, 4,
                                  increasing=True))[0]


def _gap_filled_windows(x, max_gap_frac):
    """Copies of the 1 s windows of x at 500 ms hop, and the mask of the
    usable ones (at most max_gap_frac of the samples non-finite, and not
    all), whose gaps are filled by linear interpolation."""
    starts = np.arange(0, len(x) - WIN_LEN + 1, HOP_LEN)
    w = x[starts[:, None] + np.arange(WIN_LEN)]
    bad = ~np.isfinite(w)
    usable = (bad.mean(axis=1) <= max_gap_frac) & ~bad.all(axis=1)
    idx = np.arange(WIN_LEN)
    for i in np.flatnonzero(usable & bad.any(axis=1)):
        gap = bad[i]
        w[i, gap] = np.interp(idx[gap], idx[~gap], w[i, ~gap])
    return w, usable


def detrend_poly3(window):
    """Residual after removing the least-squares cubic from each 1 s window
    along the last axis (one window, or a batch of them)."""
    w = np.asarray(window, dtype=np.float64)
    if w.shape[-1:] != (WIN_LEN,):
        raise InvalidArgumentError(f"window must have {WIN_LEN} samples")
    return w - (w @ _CUBIC_Q) @ _CUBIC_Q.T


def modulation_spectrum(residual):
    """Magnitudes of the 128-point DFT (bins 0..64) of 100-sample residuals
    along the last axis."""
    r = np.asarray(residual, dtype=np.float64)
    if r.shape[-1:] != (WIN_LEN,):
        raise InvalidArgumentError(f"residual must have {WIN_LEN} samples")
    return np.abs(np.fft.rfft(r, n=MOD_DFT, axis=-1))


def modulation_peak_features(mag):
    """Peak rate (Hz) and power-spectrum energy around the peak in 1-20 Hz,
    per 65-bin spectrum along the last axis.

    Returns (mod_rate, mod_energy, degenerate); an all-zero spectrum is
    flagged degenerate with the rate pinned to the first searched bin.
    """
    mag = np.asarray(mag, dtype=np.float64)
    if mag.shape[-1:] != (MOD_DFT // 2 + 1,):
        raise InvalidArgumentError(f"spectrum must have {MOD_DFT // 2 + 1} bins")
    band = mag[..., PEAK_BIN_LO : PEAK_BIN_HI + 1]
    degenerate = ~band.any(axis=-1)
    peak = PEAK_BIN_LO + np.argmax(band, axis=-1)
    near = peak[..., None] + np.arange(-PEAK_HALFWIDTH, PEAK_HALFWIDTH + 1)
    energy = np.sum(np.take_along_axis(mag, near, axis=-1) ** 2, axis=-1)
    return peak * MOD_BIN_HZ, np.where(degenerate, 0.0, energy), degenerate


def energy_zcr(energy_window):
    """Sign changes of the mean-removed energy contour over each 1 s window
    along the last axis."""
    w = np.asarray(energy_window, dtype=np.float64)
    if w.shape[-1:] != (WIN_LEN,):
        raise InvalidArgumentError(f"window must have {WIN_LEN} samples")
    centered = w - w.mean(axis=-1, keepdims=True)
    return np.sum(centered[..., :-1] * centered[..., 1:] < 0, axis=-1)


def raw_features(track, vocal_mask, max_gap_frac=MAX_GAP_FRAC):
    """Per-window raw descriptors at 500 ms hop, all windows in one pass.

    Returns (features (k,3), valid (k,)); windows with more than
    max_gap_frac non-vocal samples, or degenerate ones (an all-zero
    spectrum, or a detrended contour within FLAT_CENTS of zero), are
    invalid.
    """
    cents = np.where(vocal_mask, hz_to_cents(track.f0_hz), np.nan)
    energy = np.where(vocal_mask, track.energy_db, np.nan)
    cw, c_ok = _gap_filled_windows(cents, max_gap_frac)
    ew, e_ok = _gap_filled_windows(energy, max_gap_frac)
    valid = c_ok & e_ok
    residual = detrend_poly3(cw[valid])
    rate, mod_energy, degenerate = modulation_peak_features(
        modulation_spectrum(residual))
    degenerate |= np.abs(residual).max(axis=-1) < FLAT_CENTS
    raw = np.column_stack((rate, mod_energy, energy_zcr(ew[valid])))
    valid[valid] = ~degenerate
    feats = np.full((len(cw), 3), np.nan)
    feats[valid] = raw[~degenerate]
    return feats, valid


def smooth_and_normalize(feats, valid, smooth_s=SMOOTH_S, var_floor=VAR_FLOOR):
    """Moving average (smooth_s window) of valid raw frames, 1 s
    decimation, then per-dimension z-normalization over the concert's
    vocal frames."""
    feats = np.asarray(feats, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if not valid.any():
        raise EmptyInputError("no vocal frames: nothing to normalize")
    k = len(valid)
    # raw hops within +/- smooth_s/2, that is smooth_s over two hops;
    # offsets of k or more reach no frame
    half = seconds_to_frames("smooth_s", smooth_s, 2 * RAW_HOP_S, k)
    # sums over the valid run around each frame, added in ascending order
    # like the row sum in a mean
    run = np.cumsum(valid & ~np.r_[False, valid[:-1]])
    total = np.zeros((k, 3))
    count = np.zeros(k)
    for off in range(-half, half + 1):
        lo = max(-off, 0)
        i = slice(lo, max(min(k, k - off), lo))
        j = slice(i.start + off, i.stop + off)
        same = valid[i] & valid[j] & (run[i] == run[j])
        total[i] += np.where(same[:, None], feats[j], 0.0)
        count[i] += same
    smoothed = np.full((k, 3), np.nan)
    smoothed[valid] = total[valid] / count[valid, None]
    # decimate 500 ms -> 1 s
    sm = smoothed[::FRAME_HOPS]
    mask = valid[::FRAME_HOPS] & np.isfinite(sm).all(axis=1)
    if not mask.any():
        raise EmptyInputError("no valid window on the 1 s frame grid: "
                              "nothing to normalize")
    out = np.full_like(sm, np.nan)
    mu = sm[mask].mean(axis=0)
    var = sm[mask].var(axis=0)
    out[mask] = (sm[mask] - mu) / np.sqrt(np.maximum(var, var_floor))
    return StyleFeatureSeq(features=out, vocal_mask=mask, raw=sm)


FEATURE_NAMES = ("mod_rate", "mod_energy", "energy_zcr")


def _features(rows):
    return np.column_stack([rows[name] for name in FEATURE_NAMES])


def _feature_checks(rows, first_line):
    """The feature CSV's checks, in that order, of rows from line
    first_line on: row k sits at k s, and features are finite on vocal
    frames."""
    expected = first_line - 2 + np.arange(len(rows))
    return [(~(np.abs(rows["frame_s"] - expected) <= 1e-6), FormatError,
             "frame_s {frame_s} is not the row's second (row k sits at k s)"),
            ((rows["vocal"] != 0) & ~np.isfinite(_features(rows)).all(axis=1),
             ParseError, "vocal frame with a non-finite feature")]


FEATURE_TABLE = Table([("frame_s", "f8"), *((n, "f8") for n in FEATURE_NAMES),
                       ("vocal", "i8")], check=_feature_checks)


def write_features(seq, path):
    """Feature CSV: frame_s,mod_rate,mod_energy,energy_zcr,vocal, row k
    at k s, as `read_features` checks."""
    FEATURE_TABLE.write(path, (np.arange(len(seq)), *seq.features.T,
                               seq.vocal_mask))


def read_features(path):
    """Read a feature CSV written by write_features."""
    rows = FEATURE_TABLE.read(path)
    return StyleFeatureSeq(features=_features(rows),
                           vocal_mask=rows["vocal"] != 0)
