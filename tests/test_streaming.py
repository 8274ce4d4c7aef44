"""Streamed spectral front end against the whole-spectrogram code it
replaced.

The oracles below are the one-shot spectrogram formula, the per-candidate
F0 refinement and the per-frame harmonic-energy loop, kept verbatim in
their scalar form as references.
"""

import tracemalloc

import numpy as np
import pytest

from taanseg import pipeline
from taanseg.cli import main
from taanseg.config import PipelineConfig
from taanseg.dsp import (
    FRAME_BLOCK,
    LOG_FLOOR,
    AudioClip,
    LogSpectrogram,
    hamming_window,
    log_spectrogram,
    log_spectrogram_blocks,
)
from taanseg.errors import EmptyInputError
from taanseg.vocal import HARMONIC_CEILING_HZ, UNVOICED_DB
from taanseg.wavio import write_wav

SR = 8000
HOP = 80   # 10 ms at 8 kHz
WIN = 320  # 40 ms at 8 kHz


def oneshot_values(clip, win_s, hop_s, n_dft):
    """The whole-clip spectrogram formula: one fancy-indexed frame matrix,
    transposed at the end (a Fortran-ordered result)."""
    sr = clip.sample_rate
    win = int(round(win_s * sr))
    hop = int(round(hop_s * sr))
    n_frames = (len(clip.samples) - win) // hop + 1
    idx = hop * np.arange(n_frames)[:, None] + np.arange(win)[None, :]
    frames = clip.samples[idx] * hamming_window(win)
    return np.log(np.maximum(np.abs(np.fft.rfft(frames, n=n_dft, axis=1)),
                             LOG_FLOOR)).T


def scalar_ranges(f0, n_bins, bin_hz, tol_cents, n_harmonics):
    lo_f = 2.0 ** (-tol_cents / 1200.0)
    hi_f = 2.0 ** (tol_cents / 1200.0)
    ranges = []
    for h in range(1, n_harmonics + 1):
        fh = h * f0
        if fh >= HARMONIC_CEILING_HZ:
            break
        lo = max(int(np.floor(fh * lo_f / bin_hz)), 0)
        hi = min(int(np.ceil(fh * hi_f / bin_hz)) + 1, n_bins)
        if lo >= hi:
            continue
        ranges.append((h, lo, hi))
    return ranges


def loop_detect_f0(spec, cfg):
    """Harmonic-sum F0 search with per-candidate refinement loops."""
    n_cands = int(np.floor(1200.0 * np.log2(cfg.f0_max_hz / cfg.f0_min_hz)
                           / cfg.f0_grid_cents)) + 1
    candidates = cfg.f0_min_hz * 2.0 ** (
        cfg.f0_grid_cents * np.arange(n_cands) / 1200.0)
    mags = spec.magnitudes()
    n_frames = mags.shape[1]
    cand_ranges = [scalar_ranges(f, spec.n_bins, spec.bin_hz,
                                 cfg.harmonic_tol_cents, cfg.n_harmonics)
                   for f in candidates]
    sums = np.zeros((n_cands, n_frames))
    weight_sum = np.zeros(n_cands)
    slice_max = {}
    for ci, ranges in enumerate(cand_ranges):
        for h, lo, hi in ranges:
            if (lo, hi) not in slice_max:
                slice_max[(lo, hi)] = mags[lo:hi].max(axis=0)
            sums[ci] += slice_max[(lo, hi)] / h
            weight_sum[ci] += 1.0 / h
    best = np.argmax(sums, axis=0)
    best_sum = sums[best, np.arange(n_frames)]
    threshold = (cfg.voicing_factor * np.maximum(weight_sum[best], 1e-12)
                 * np.median(mags, axis=0))
    voiced = best_sum > threshold
    f0 = np.zeros(n_frames)
    log_mags = spec.values
    for ci in np.unique(best):
        frames = np.flatnonzero((best == ci) & voiced)
        if len(frames) == 0:
            continue
        num = np.zeros(len(frames))
        den = np.zeros(len(frames))
        for h, lo, hi in cand_ranges[ci]:
            b = np.argmax(mags[lo:hi, :][:, frames], axis=0) + lo
            inner = (b > 0) & (b < spec.n_bins - 1)
            delta = np.zeros(len(frames))
            left = log_mags[np.maximum(b - 1, 0), frames]
            mid = log_mags[b, frames]
            right = log_mags[np.minimum(b + 1, spec.n_bins - 1), frames]
            denom = left - 2.0 * mid + right
            ok = inner & (np.abs(denom) > 1e-12)
            delta[ok] = np.clip(0.5 * (left - right)[ok] / denom[ok], -0.5, 0.5)
            f_est = (b + delta) * spec.bin_hz / h
            w = mags[b, frames] / h
            num += w * f_est
            den += w
        f0[frames] = num / np.maximum(den, 1e-30)
    return np.where(voiced & (f0 > 0), f0, 0.0)


def loop_harmonic_energy(spec, f0_hz, tol_cents, n_harmonics):
    """Per-frame harmonic energy with scalar `** 2`."""
    mags = spec.magnitudes()
    energy = np.full(len(f0_hz), UNVOICED_DB)
    for t in range(len(f0_hz)):
        if f0_hz[t] <= 0:
            continue
        ranges = scalar_ranges(f0_hz[t], spec.n_bins, spec.bin_hz,
                               tol_cents, n_harmonics)
        if not ranges:
            continue
        power = sum(mags[lo:hi, t].max() ** 2 for _, lo, hi in ranges)
        energy[t] = 10.0 * np.log10(max(power, 1e-30))
    return energy


def sung_clip(n_frames, seed=0):
    """Harmonic voice gliding over the whole F0 range with vibrato, broken
    by silences, over low noise: n_frames frames at 10 ms hop."""
    rng = np.random.default_rng(seed)
    n = (n_frames - 1) * HOP + WIN
    t = np.arange(n) / SR
    f_inst = 90.0 * 2.0 ** (2.5 * (0.5 - 0.5 * np.cos(2 * np.pi * t / 37.0))
                            + 0.1 * np.sin(2 * np.pi * 5.5 * t))
    phase = 2 * np.pi * np.cumsum(f_inst) / SR
    voice = sum(np.sin(h * phase) / h for h in range(1, 9))
    gate = (np.sin(2 * np.pi * t / 7.0) > -0.6).astype(float)
    x = 0.5 * voice * gate / 2.8 + 0.003 * rng.standard_normal(n)
    return AudioClip(samples=x, sample_rate=SR)


LONGEST = 2 * FRAME_BLOCK + 123


@pytest.fixture(scope="module")
def reference():
    """Whole-spectrogram reference track of the longest clip. Frame t only
    sees samples [t*hop, t*hop + win), so a prefix clip's reference is the
    matching prefix of this one."""
    cfg = PipelineConfig()
    clip = sung_clip(LONGEST)
    spec = LogSpectrogram(
        values=np.ascontiguousarray(oneshot_values(clip, 0.04, 0.01, 1024)),
        bin_hz=SR / 1024, hop_s=0.01)
    f0 = loop_detect_f0(spec, cfg)
    energy = loop_harmonic_energy(spec, f0, cfg.harmonic_tol_cents,
                                  cfg.n_harmonics)
    return clip, f0, energy


class TestStreamedTrack:
    @pytest.mark.parametrize("n_frames", [
        1, FRAME_BLOCK - 1, FRAME_BLOCK, FRAME_BLOCK + 1, LONGEST,
    ])
    def test_matches_whole_spectrogram(self, reference, n_frames):
        clip, f0, energy = reference
        prefix = AudioClip(samples=clip.samples[:(n_frames - 1) * HOP + WIN],
                           sample_rate=SR)
        track = pipeline.extract_track(prefix)
        assert len(track) == n_frames
        assert np.array_equal(track.f0_hz, f0[:n_frames])
        assert np.array_equal(track.voiced, f0[:n_frames] > 0)
        assert np.max(np.abs(track.energy_db - energy[:n_frames]),
                      initial=0.0) <= 1e-12

    def test_reference_is_mixed(self, reference):
        # both voiced and unvoiced frames, and a wide F0 spread
        _, f0, _ = reference
        voiced = f0 > 0
        assert 0.2 < voiced.mean() < 0.9
        assert f0[voiced].max() / f0[voiced].min() > 3.0

    def test_shorter_than_one_window(self, tmp_path):
        clip = AudioClip(samples=np.zeros(WIN - 1), sample_rate=SR)
        with pytest.raises(EmptyInputError):
            pipeline.extract_track(clip)
        wav = tmp_path / "short.wav"
        write_wav(clip, wav)
        assert main(["tracks", "--audio", str(wav),
                     "--out", str(tmp_path / "t.csv")]) == 2


class TestSpectrogramLayout:
    @pytest.mark.parametrize("hop_s", [0.01, 0.02])
    def test_oneshot_identity(self, reference, hop_s):
        clip = reference[0]
        spec = log_spectrogram(clip, 0.04, hop_s, 1024)
        assert spec.values.flags.c_contiguous
        assert np.array_equal(spec.values,
                              oneshot_values(clip, 0.04, hop_s, 1024))

    def test_blocks_tile_the_spectrogram(self, reference):
        clip = reference[0]
        blocks = list(log_spectrogram_blocks(clip, 0.04, 0.01, 1024))
        assert [b.n_frames for b in blocks] == [FRAME_BLOCK, FRAME_BLOCK, 123]
        assert all(b.values.flags.c_contiguous for b in blocks)
        whole = log_spectrogram(clip, 0.04, 0.01, 1024)
        assert np.array_equal(np.concatenate([b.values for b in blocks],
                                             axis=1), whole.values)


def traced_peak(clip):
    """tracemalloc peak of extract_track, less its resampled input copy."""
    tracemalloc.start()
    try:
        pipeline.extract_track(clip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - clip.samples.nbytes


def test_memory_is_o_block():
    rng = np.random.default_rng(1)
    short = AudioClip(samples=0.1 * rng.standard_normal(120 * SR),
                      sample_rate=SR)
    long = AudioClip(samples=0.1 * rng.standard_normal(480 * SR),
                     sample_rate=SR)
    assert traced_peak(long) <= 1.25 * traced_peak(short)
