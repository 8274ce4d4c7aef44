"""Vocal attribute extraction: predominant F0, harmonic energy, voicing.

The baseline pitch tracker is a harmonic-sum search over a 10-cent
candidate grid. Externally computed pitch tracks can be ingested from CSV
instead (header: time_s,f0_hz,energy_db,voiced at exactly 10 ms rows).
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import dsp
from .errors import FormatError, InvalidArgumentError, ParseError
from .table import Table

TRACK_HOP_S = 0.01
UNVOICED_DB = -120.0
HARMONIC_CEILING_HZ = 5000.0
# F0 candidates summed at once in the harmonic-sum search
CAND_BLOCK = 32
# magnitude bins compared at once in the voicing count
VOICING_ROWS = 64


@dataclass
class PitchEnergyTrack:
    """Time-aligned F0 (Hz), vocal energy (dB) and voicing; sample k is at
    k * TRACK_HOP_S."""

    f0_hz: np.ndarray
    energy_db: np.ndarray
    voiced: np.ndarray

    def __post_init__(self):
        self.f0_hz = np.asarray(self.f0_hz, dtype=np.float64)
        self.energy_db = np.asarray(self.energy_db, dtype=np.float64)
        self.voiced = np.asarray(self.voiced, dtype=bool)
        n = len(self.f0_hz)
        if len(self.energy_db) != n or len(self.voiced) != n:
            raise InvalidArgumentError("track sequences must have equal length")
        if np.any((self.f0_hz > 0) != self.voiced):
            raise InvalidArgumentError("voiced flag must mirror f0 > 0")

    def __len__(self):
        return len(self.f0_hz)


def _harmonic_bin_ranges(f0, n_bins, bin_hz, tol_cents, n_harmonics):
    """Bin slices [lo, hi) within +/- tol_cents of harmonics 1..n_harmonics
    of each F0 in the 1-D array f0, as (n_harmonics, len(f0)) arrays lo and
    hi, with a mask of the usable ones: below 5 kHz and non-empty within
    the n_bins spectrum bins."""
    harmonics = np.arange(1, n_harmonics + 1)[:, None]
    # clamped so that out-of-range harmonics still cast to int cleanly
    fh = np.minimum(harmonics * f0, HARMONIC_CEILING_HZ)
    lo = np.floor(fh * 2.0 ** (-tol_cents / 1200.0) / bin_hz).astype(np.int64)
    hi = np.ceil(fh * 2.0 ** (tol_cents / 1200.0) / bin_hz).astype(np.int64) + 1
    lo = np.maximum(lo, 0)
    hi = np.minimum(hi, n_bins)
    return lo, hi, (fh < HARMONIC_CEILING_HZ) & (lo < hi)


def _range_argmax(a, lo, hi, frames):
    """Row of the max of a[lo[i]:hi[i], frames[i]] for each i, first on
    ties, by one masked gather over the widest range through flat indices
    into a; every range must be non-empty."""
    rows = lo[:, None] + np.arange((hi - lo).max())
    flat = np.minimum(rows, a.shape[0] - 1) * a.shape[1] + frames[:, None]
    vals = np.take(a, flat)
    vals[rows >= hi[:, None]] = -np.inf
    return lo + np.argmax(vals, axis=1)


@dataclass(frozen=True)
class _SearchPlan:
    """What the F0 search needs besides the magnitudes, fixed by the
    config and the bin layout; every array is read-only. Harmonic h of
    candidate c spans bins lo[h - 1, c] up to hi[h - 1, c] where
    usable[h - 1, c]; keys are the distinct usable (lo, hi) pairs in
    ascending order, and rows[h - 1, c] is the row of that harmonic's
    slice maximum in the table, len(keys) (the zero row) where
    unusable."""

    lo: np.ndarray
    hi: np.ndarray
    usable: np.ndarray
    weight_sum: np.ndarray
    keys: tuple
    rows: np.ndarray


@functools.lru_cache(maxsize=8, typed=True)
def _search_plan(n_bins, bin_hz, f_min, f_max, grid_cents, tol_cents,
                 n_harmonics):
    """The _SearchPlan of a candidate grid from f_min up to f_max in steps
    of grid_cents, over n_bins bins of bin_hz."""
    n_cands = int(np.floor(1200.0 * np.log2(f_max / f_min) / grid_cents)) + 1
    candidates = f_min * 2.0 ** (grid_cents * np.arange(n_cands) / 1200.0)
    lo, hi, usable = _harmonic_bin_ranges(candidates, n_bins, bin_hz,
                                          tol_cents, n_harmonics)
    weight_sum = np.zeros(n_cands)
    for row in range(n_harmonics):
        weight_sum += np.where(usable[row], 1.0 / (row + 1), 0.0)
    if not weight_sum.any():
        raise InvalidArgumentError("empty candidate grid")
    keys, inverse = np.unique(np.stack((lo[usable], hi[usable]), axis=1),
                              axis=0, return_inverse=True)
    rows = np.full(lo.shape, len(keys))
    rows[usable] = inverse.ravel()
    for a in (lo, hi, usable, weight_sum, rows):
        a.flags.writeable = False
    return _SearchPlan(lo, hi, usable, weight_sum,
                       tuple(map(tuple, keys.tolist())), rows)


def _slice_maxima(mags, keys):
    """Table of np.max(mags[a:b], axis=0) for each key (a, b), in order,
    and a last row of zeros. A key that starts where the one before it
    does extends that row by its new bins: max is exact and carries NaN
    as np.max does, so the rows are the same bits."""
    table = np.empty((len(keys) + 1, mags.shape[1]))
    prev_a = prev_b = None
    for r, (a, b) in enumerate(keys):
        if a == prev_a:
            np.maximum(table[r - 1], mags[prev_b], out=table[r])
            for k in range(prev_b + 1, b):
                np.maximum(table[r], mags[k], out=table[r])
        else:
            np.max(mags[a:b], axis=0, out=table[r])
        prev_a, prev_b = a, b
    table[-1] = 0.0
    return table


def _best_candidates(mags, plan):
    """Per frame, the first candidate with the largest 1/h-weighted
    harmonic sum, and that sum, as np.argmax over the (n_cands, n_frames)
    sum matrix would give them, NaN sums aside; each sum adds its usable
    harmonics in ascending order. Frames where every sum is NaN get
    candidate 0 and -inf.

    Each distinct slice maximum is one row of a table whose last row is
    zero. The sums of CAND_BLOCK candidates at a time add, per harmonic h,
    the gathered table rows divided by h (zero where unusable, which
    leaves a non-negative sum as it is), and a running maximum over the
    blocks keeps the first winner. Harmonic 1 is gathered straight into
    the sums, as 0 + x is x for every non-negative or NaN x, and h = 2, 4
    and 8 multiply by 1/h, which is exact. So the array operations are
    few and long, and the interpreter lock is free for most of the
    search."""
    n_frames = mags.shape[1]
    n_cands = plan.rows.shape[1]
    table = _slice_maxima(mags, plan.keys)
    best = np.zeros(n_frames, dtype=np.intp)
    best_sum = np.full(n_frames, -np.inf)
    sums = np.empty((min(CAND_BLOCK, n_cands), n_frames))
    term = np.empty_like(sums)
    for c0 in range(0, n_cands, CAND_BLOCK):
        c1 = min(c0 + CAND_BLOCK, n_cands)
        acc, part = sums[:c1 - c0], term[:c1 - c0]
        uses = plan.usable[:, c0:c1].any(axis=1).tolist()
        if not uses[0]:
            acc.fill(0.0)
        for h, (row, use) in enumerate(zip(plan.rows[:, c0:c1], uses),
                                       start=1):
            if not use:
                continue
            if h == 1:
                np.take(table, row, axis=0, out=acc)
                continue
            np.take(table, row, axis=0, out=part)
            if h & (h - 1):
                part /= h
            else:
                part *= 1.0 / h
            acc += part
        # the block's largest non-NaN sum and its first candidate; a later
        # block must beat it strictly, as the first maximum does
        top = np.fmax.reduce(acc, axis=0)
        better = top > best_sum
        np.copyto(best, c0 + np.argmax(acc == top, axis=0), where=better)
        np.copyto(best_sum, top, where=better)
    return best, best_sum


def _voiced(mags, best_sum, scale):
    """best_sum > scale * np.median(mags, axis=0), bit for bit, without
    sorting each frame's bins. Rounding scale * x keeps its order in x
    when scale is finite and > 0, so for an odd bin count the median's
    product lies below best_sum exactly when more than half of the bins'
    do. Those are counted VOICING_ROWS bins at a time (a product that
    overflows to inf counts as the rounded product does); a frame with a
    NaN bin, whose median is NaN, stays unvoiced. An even bin count, or a
    scale that is not finite and > 0, takes the median."""
    n_bins, n_frames = mags.shape
    if n_bins % 2 == 0 or not np.all((scale > 0) & (scale < np.inf)):
        return best_sum > scale * np.median(mags, axis=0)
    below = np.zeros(n_frames, dtype=np.intp)
    prod = np.empty((min(VOICING_ROWS, n_bins), n_frames))
    for r in range(0, n_bins, VOICING_ROWS):
        part = prod[:min(VOICING_ROWS, n_bins - r)]
        with np.errstate(over="ignore"):
            np.multiply(mags[r:r + VOICING_ROWS], scale, out=part)
        below += np.count_nonzero(part < best_sum, axis=0)
    voiced = below > n_bins // 2
    if np.isnan(np.max(mags, initial=0.0)):
        voiced &= ~np.isnan(mags).any(axis=0)
    return voiced


def detect_f0_baseline(spec, f_min=80.0, f_max=600.0, voicing_factor=3.0,
                       grid_cents=10.0, tol_cents=30.0, n_harmonics=10):
    """Predominant-F0 track from a log spectrogram at 10 ms hop.

    Per frame the candidate maximizing the 1/h-weighted harmonic sum
    (max linear magnitude within +/- tol_cents of each harmonic below
    5 kHz) wins; the weighting breaks the otherwise exact tie between a
    tone and its subharmonics. A frame is unvoiced when the winning sum
    does not exceed voicing_factor * weight_sum * median frame magnitude.
    Every step is frame-local, so any split of the spectrogram into
    frame blocks gives the same track. The candidate grid and its bin
    ranges are planned once per config and bin layout.
    """
    if f_min >= f_max:
        raise InvalidArgumentError("f_min must be below f_max")
    if abs(spec.hop_s - TRACK_HOP_S) > 1e-9:
        raise InvalidArgumentError("pitch tracking needs a 10 ms hop spectrogram")
    if spec.bin_hz > 8.0:
        raise InvalidArgumentError("bin spacing too coarse for F0 search")

    plan = _search_plan(spec.n_bins, spec.bin_hz, f_min, f_max, grid_cents,
                        tol_cents, n_harmonics)
    lo, hi, usable = plan.lo, plan.hi, plan.usable
    mags = spec.magnitudes()  # (n_bins, n_frames)
    n_frames = mags.shape[1]
    best, best_sum = _best_candidates(mags, plan)
    voiced = _voiced(mags, best_sum, voicing_factor
                     * np.maximum(plan.weight_sum[best], 1e-12))

    # refine the winning candidate from its harmonic peak bins: parabolic
    # interpolation of the log magnitude around each peak, averaged over
    # harmonics weighted by peak magnitude (the 10-cent grid alone leaves
    # slice-max plateaus wider than the grid step)
    log_mags = spec.values
    frames = np.flatnonzero(voiced)
    cand = best[frames]
    num = np.zeros(len(frames))
    den = np.zeros(len(frames))
    for h in range(1, n_harmonics + 1):
        use = np.flatnonzero(usable[h - 1, cand])
        if len(use) == 0:
            continue
        fr = frames[use]
        b = _range_argmax(mags, lo[h - 1, cand[use]], hi[h - 1, cand[use]], fr)
        inner = (b > 0) & (b < spec.n_bins - 1)
        delta = np.zeros(len(fr))
        left = log_mags[np.maximum(b - 1, 0), fr]
        mid = log_mags[b, fr]
        right = log_mags[np.minimum(b + 1, spec.n_bins - 1), fr]
        denom = left - 2.0 * mid + right
        ok = inner & (np.abs(denom) > 1e-12)
        delta[ok] = np.clip(0.5 * (left - right)[ok] / denom[ok], -0.5, 0.5)
        f_est = (b + delta) * spec.bin_hz / h
        w = mags[b, fr] / h
        num[use] += w * f_est
        den[use] += w
    f0 = np.zeros(n_frames)
    f0[frames] = num / np.maximum(den, 1e-30)
    f0 = np.where(voiced & (f0 > 0), f0, 0.0)
    voiced = f0 > 0
    energy = np.where(voiced, 0.0, UNVOICED_DB)
    return PitchEnergyTrack(f0_hz=f0, energy_db=energy, voiced=voiced)


def harmonic_energy(spec, f0_hz, tol_cents=30.0, n_harmonics=10):
    """Vocal energy: 10*log10 of summed squared harmonic peak magnitudes.

    Harmonics of the given F0 below 5 kHz contribute the max linear
    magnitude within +/- tol_cents; unvoiced frames, and frames whose F0
    has no harmonic below 5 kHz, get -120 dB. One pass per harmonic over
    all voiced frames.
    """
    f0_hz = np.asarray(f0_hz, dtype=np.float64)
    if len(f0_hz) != spec.n_frames:
        raise InvalidArgumentError(
            f"f0 length {len(f0_hz)} != spectrogram frames {spec.n_frames}"
        )
    energy = np.full(len(f0_hz), UNVOICED_DB)
    frames = np.flatnonzero(f0_hz > 0)
    lo, hi, usable = _harmonic_bin_ranges(f0_hz[frames], spec.n_bins,
                                          spec.bin_hz, tol_cents, n_harmonics)
    power = np.zeros(len(frames))
    for row in range(n_harmonics):
        use = np.flatnonzero(usable[row])
        if len(use) == 0:
            continue
        fr = frames[use]
        b = _range_argmax(spec.values, lo[row, use], hi[row, use], fr)
        m = np.exp(spec.values[b, fr])
        power[use] += m * m
    has = usable.any(axis=0)
    energy[frames[has]] = 10.0 * np.log10(np.maximum(power[has], 1e-30))
    return energy


def _runs(mask):
    """(start, end) index pairs of True runs, end exclusive."""
    # with False on both sides, edges alternate: a start, then its end
    edges = np.flatnonzero(np.diff(np.pad(np.asarray(mask, dtype=bool), 1)))
    return list(zip(edges[::2].tolist(), edges[1::2].tolist()))


def detect_vocal_activity(track, min_run_s=0.2, max_gap_s=0.1):
    """Vocal-spurt mask: median-smoothed voiced runs >= min_run_s, with
    internal gaps shorter than max_gap_s absorbed; both durations must be
    finite and >= 0."""
    voiced = np.asarray(track.voiced, dtype=bool)
    n = len(voiced)
    if n == 0:
        return np.zeros(0, dtype=bool)
    # median filter, length 5
    padded = np.pad(voiced.astype(np.int8), 2, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 5)
    smooth = windows.sum(axis=1) >= 3

    # no run exceeds n, nor an inner gap n - 2: the caps change no mask
    min_run = dsp.seconds_to_frames("min_run_s", min_run_s, TRACK_HOP_S, n + 1)
    max_gap = dsp.seconds_to_frames("max_gap_s", max_gap_s, TRACK_HOP_S, n)
    vocal = np.zeros(n, dtype=bool)
    for start, end in _runs(smooth):
        if end - start >= min_run:
            vocal[start:end] = True
    # absorb short non-vocal gaps lying between vocal regions
    for start, end in _runs(~vocal):
        if start > 0 and end < n and (end - start) < max_gap:
            vocal[start:end] = True
    return vocal


def _track_checks(rows, first_line):
    """The voiced flag, 10 ms grid and f0 > 0 iff voiced checks, in that
    order, of track rows from line first_line on."""
    t, f, v = rows["time_s"], rows["f0_hz"], rows["voiced"]
    expected = (first_line - 2 + np.arange(len(rows))) * TRACK_HOP_S
    return [((v != 0) & (v != 1), ParseError, "voiced must be 0/1, got {voiced}"),
            (~(np.abs(t - expected) <= 1e-6), FormatError,
             "time {time_s} not on 10 ms grid"),
            ((f > 0) != (v != 0), ParseError,
             "f0={f0_hz} inconsistent with voiced={voiced}")]


TRACK_TABLE = Table([("time_s", "f8"), ("f0_hz", "f8"), ("energy_db", "f8"),
                     ("voiced", "i8")], cells=["%.2f", "%s", "%s", "%s"],
                    check=_track_checks)


def write_track(track, path):
    """Write a track to CSV (header time_s,f0_hz,energy_db,voiced): row k
    at k * TRACK_HOP_S, the grid `ingest_track` checks."""
    TRACK_TABLE.write(path, (np.arange(len(track)) * TRACK_HOP_S,
                             track.f0_hz, track.energy_db, track.voiced))


def ingest_track(path):
    """Read a pitch-track CSV, validating hop and track invariants."""
    rows = TRACK_TABLE.read(path)
    return PitchEnergyTrack(f0_hz=rows["f0_hz"].copy(),
                            energy_db=rows["energy_db"].copy(),
                            voiced=rows["voiced"] == 1)
