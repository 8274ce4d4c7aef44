"""Streamed spectral front end against the whole-clip code it replaced.

The oracles below are the whole-clip resampler, the one-shot spectrogram
formula, the (n_cands, n_frames) harmonic-sum matrix with its argmax, the
per-candidate F0 refinement and the per-frame harmonic-energy loop, kept
verbatim in their scalar form as references.
"""

import threading
import time
import tracemalloc

import numpy as np
import pytest

from taanseg import cnn, dsp, pipeline, pool, vocal
from taanseg.cli import main
from taanseg.config import PipelineConfig
from taanseg.dsp import (
    FRAME_BLOCK,
    LOG_FLOOR,
    RESAMPLE_CHUNK,
    AudioClip,
    LogSpectrogram,
    _lowpass_taps,
    hamming_window,
    log_spectrogram,
    log_spectrogram_blocks,
    resample,
)
from taanseg.errors import DataError, EmptyInputError, InternalError
from taanseg.synth import default_test_script, synth_concert
from taanseg.vocal import (
    HARMONIC_CEILING_HZ,
    UNVOICED_DB,
    detect_f0_baseline,
    harmonic_energy,
)
from taanseg.wavio import write_wav

SR = 8000
HOP = 80   # 10 ms at 8 kHz
WIN = 320  # 40 ms at 8 kHz


def whole_resample(clip, target_hz):
    """The whole-clip resampler: one full convolution of the clip and one
    interpolation over all of it."""
    sr = clip.sample_rate
    h = _lowpass_taps(0.45 * target_hz / sr)
    filtered = np.convolve(clip.samples, h, mode="full")
    delay = (len(h) - 1) / 2.0
    n_out = int(round(len(clip.samples) * target_hz / sr))
    pos = np.arange(n_out) * (sr / target_hz) + delay
    return np.interp(pos, np.arange(len(filtered)), filtered)


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


def oracle_sums(spec, cfg):
    """(n_cands, n_frames) harmonic sums, weight sums and harmonic ranges
    of every candidate."""
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
    return sums, weight_sum, cand_ranges


def loop_detect_f0(spec, cfg):
    """Harmonic-sum F0 search with per-candidate refinement loops."""
    mags = spec.magnitudes()
    n_frames = mags.shape[1]
    sums, weight_sum, cand_ranges = oracle_sums(spec, cfg)
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


def serial_track(clip, cfg):
    """extract_track's blocks tracked one after another in this thread."""
    f0, energy, voiced = [], [], []
    for spec in log_spectrogram_blocks(resample(clip, 8000), 0.04, 0.01, 1024):
        track = detect_f0_baseline(
            spec, f_min=cfg.f0_min_hz, f_max=cfg.f0_max_hz,
            voicing_factor=cfg.voicing_factor, grid_cents=cfg.f0_grid_cents,
            tol_cents=cfg.harmonic_tol_cents, n_harmonics=cfg.n_harmonics)
        f0.append(track.f0_hz)
        voiced.append(track.voiced)
        energy.append(harmonic_energy(spec, track.f0_hz,
                                      tol_cents=cfg.harmonic_tol_cents,
                                      n_harmonics=cfg.n_harmonics))
    return np.concatenate(f0), np.concatenate(energy), np.concatenate(voiced)


def fail_on_second_block(monkeypatch, exc):
    """Make the F0 search raise exc on the second spectrogram block."""
    blocks, detect = dsp.log_spectrogram_blocks, vocal.detect_f0_baseline
    second = []

    def tagged_blocks(*args, **kwargs):
        for i, spec in enumerate(blocks(*args, **kwargs)):
            if i == 1:
                second.append(spec)
            yield spec

    def failing_detect(spec, **kwargs):
        if second and spec is second[0]:
            raise exc
        return detect(spec, **kwargs)

    monkeypatch.setattr(dsp, "log_spectrogram_blocks", tagged_blocks)
    monkeypatch.setattr(vocal, "detect_f0_baseline", failing_detect)


def count_concurrent(fn, busy):
    """fn, which appends to `busy` how many of its calls are running each
    time one starts; every call overlaps the others for a moment."""
    lock, running = threading.Lock(), [0]

    def counted(*args, **kwargs):
        with lock:
            running[0] += 1
            busy.append(running[0])
        try:
            time.sleep(0.005)
            return fn(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    return counted


class TestTrackPool:
    """Blocks tracked on the worker pool against the serial per-block loop:
    bit-identical whatever the worker count, errors raised in the caller
    with their class, and no thread left behind."""

    @staticmethod
    def assert_serial(clip):
        track = pipeline.extract_track(clip)
        f0, energy, voiced = serial_track(clip, PipelineConfig())
        assert np.array_equal(track.f0_hz, f0)
        assert np.array_equal(track.energy_db, energy)
        assert np.array_equal(track.voiced, voiced)

    @pytest.mark.parametrize("n_frames", [
        1, FRAME_BLOCK - 1, FRAME_BLOCK, FRAME_BLOCK + 1, LONGEST,
    ])
    def test_matches_serial_blocks(self, reference, n_frames):
        self.assert_serial(AudioClip(
            samples=reference[0].samples[:(n_frames - 1) * HOP + WIN],
            sample_rate=SR))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_worker_count(self, reference, monkeypatch, workers):
        monkeypatch.setattr(pool, "WORKERS", workers)
        self.assert_serial(reference[0])

    def test_workers_are_bounded(self, reference, monkeypatch):
        assert 1 <= pool.WORKERS <= 2
        busy = []
        monkeypatch.setattr(vocal, "detect_f0_baseline",
                            count_concurrent(vocal.detect_f0_baseline, busy))
        self.assert_serial(reference[0])
        assert 1 <= max(busy) <= pool.WORKERS

    @pytest.mark.parametrize("exc, code", [
        (DataError("bad block"), 2), (InternalError("broken block"), 3),
    ], ids=["data-error", "internal-error"])
    def test_worker_error_exit_code(self, reference, monkeypatch, tmp_path,
                                    capsys, exc, code):
        wav = tmp_path / "long.wav"
        write_wav(reference[0], wav)
        fail_on_second_block(monkeypatch, exc)
        assert main(["tracks", "--audio", str(wav),
                     "--out", str(tmp_path / "t.csv")]) == code
        assert str(exc) in capsys.readouterr().err

    def test_no_thread_left(self, reference, monkeypatch):
        before = threading.active_count()
        pipeline.extract_track(reference[0])
        assert threading.active_count() == before
        fail_on_second_block(monkeypatch, DataError("bad block"))
        with pytest.raises(DataError, match="bad block"):
            pipeline.extract_track(reference[0])
        assert threading.active_count() == before


class TestSpectrogramLayout:
    @pytest.mark.parametrize("hop_s", [0.01, 0.02])
    def test_oneshot_identity(self, reference, hop_s):
        clip = reference[0]
        spec = log_spectrogram(clip, 0.04, hop_s, 1024)
        assert spec.values.flags.c_contiguous
        assert np.array_equal(spec.values,
                              oneshot_values(clip, 0.04, hop_s, 1024))
        # the lowest bands only, still one C-contiguous block
        bands = log_spectrogram(clip, 0.04, hop_s, 1024, n_bins=94)
        assert bands.values.flags.c_contiguous
        assert np.array_equal(bands.values,
                              oneshot_values(clip, 0.04, hop_s, 1024)[:94])

    @pytest.mark.parametrize("hop_s", [0.01, 0.02])
    def test_blocks_of_the_lowest_bins(self, reference, hop_s):
        # the log of the kept bins only: the lowest rows of the full blocks
        clip = reference[0]
        full = list(log_spectrogram_blocks(clip, 0.04, hop_s, 1024))
        bands = list(log_spectrogram_blocks(clip, 0.04, hop_s, 1024,
                                            n_bins=94))
        assert len(bands) == len(full) > 1
        for band, block in zip(bands, full):
            assert band.values.flags.c_contiguous
            assert np.array_equal(band.values, block.values[:94])

    def test_blocks_tile_the_spectrogram(self, reference):
        clip = reference[0]
        blocks = list(log_spectrogram_blocks(clip, 0.04, 0.01, 1024))
        assert [b.n_frames for b in blocks] == [FRAME_BLOCK, FRAME_BLOCK, 123]
        assert all(b.values.flags.c_contiguous for b in blocks)
        whole = log_spectrogram(clip, 0.04, 0.01, 1024)
        assert np.array_equal(np.concatenate([b.values for b in blocks],
                                             axis=1), whole.values)

    @pytest.mark.parametrize("rows", [1, 5, FRAME_BLOCK + 1])
    def test_fft_sub_blocks(self, reference, monkeypatch, rows):
        # FFT sub-blocks that do not divide the block, and one that holds
        # more frames than a block
        monkeypatch.setattr(dsp, "FFT_ROWS", rows)
        clip = reference[0]
        spec = log_spectrogram(clip, 0.04, 0.01, 1024)
        assert np.array_equal(spec.values,
                              oneshot_values(clip, 0.04, 0.01, 1024))

    def test_window_fills_the_dft(self, reference):
        # win == n_dft leaves no zero padding in the reused frame buffer;
        # the clip ends in a partial block
        clip = reference[0]
        spec = log_spectrogram(clip, 1024 / SR, 0.01, 1024)
        assert spec.n_frames > FRAME_BLOCK and spec.n_frames % FRAME_BLOCK
        assert np.array_equal(spec.values,
                              oneshot_values(clip, 1024 / SR, 0.01, 1024))


class TestPatchesOnTheTrackGrid:
    """The CNN's patch spectrogram is the even frames of the tracker's
    grid, cut to its PATCH_BINS lowest bins: one FFT pass can feed both
    models."""

    @pytest.mark.parametrize("sr, n, frames", [
        (None, None, 29_999), (16000, 208_001, 649), (44100, 309_001, 349)])
    def test_even_track_frames(self, sr, n, frames):
        if sr is None:  # the default test concert
            clip = synth_concert(default_test_script(seed=7))[0]
        else:           # odd-length noise, resampled to the grid
            rng = np.random.default_rng(sr)
            clip = AudioClip(rng.uniform(-0.5, 0.5, n), sr)
        patch = cnn.patch_spectrogram(clip).values
        assert patch.shape == (cnn.PATCH_BINS, frames)
        clip8 = resample(clip, dsp.ANALYSIS_HZ)
        grid = (clip8, dsp.WIN_S, vocal.TRACK_HOP_S, dsp.N_DFT)
        whole = log_spectrogram(*grid, n_bins=cnn.PATCH_BINS)
        assert np.array_equal(patch, whole.values[:, ::2])
        blocks = log_spectrogram_blocks(*grid, n_bins=cnn.PATCH_BINS)
        assert np.array_equal(patch, np.concatenate(
            [b.values for b in blocks], axis=1)[:, ::2])


class TestWholeClipOnThePool:
    """log_spectrogram splits its frames into pool.WORKERS spans computed on
    the pool's threads: bit for bit the streamed blocks side by side."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_bins", [None, 94])
    @pytest.mark.parametrize("frames", [
        1, dsp.FFT_ROWS - 1, dsp.FFT_ROWS, dsp.FFT_ROWS + 1,
        2 * dsp.FFT_ROWS + 3])
    def test_matches_the_streamed_blocks(self, reference, monkeypatch,
                                         workers, n_bins, frames):
        monkeypatch.setattr(pool, "WORKERS", workers)
        monkeypatch.setattr(dsp, "FRAME_BLOCK", 100)
        clip = AudioClip(reference[0].samples[:WIN + (frames - 1) * HOP], SR)
        spec = log_spectrogram(clip, 0.04, 0.01, 1024, n_bins=n_bins)
        blocks = log_spectrogram_blocks(clip, 0.04, 0.01, 1024, n_bins=n_bins)
        assert spec.values.shape == (n_bins or 513, frames)
        assert spec.values.flags.c_contiguous
        assert np.array_equal(
            spec.values, np.concatenate([b.values for b in blocks], axis=1))

    def test_no_thread_left(self, reference, monkeypatch):
        monkeypatch.setattr(pool, "WORKERS", 2)
        clip = reference[0]
        before = threading.active_count()
        log_spectrogram(clip, 0.04, 0.01, 1024)
        assert threading.active_count() == before
        real, calls = dsp._log_spectrum, []

        def second_span_fails(*args):
            calls.append(None)
            if len(calls) == 2:
                raise InternalError("span 2")
            return real(*args)

        monkeypatch.setattr(dsp, "_log_spectrum", second_span_fails)
        with pytest.raises(InternalError, match="span 2"):
            log_spectrogram(clip, 0.04, 0.01, 1024)
        assert len(calls) == 2
        assert threading.active_count() == before


def peak_spectrogram(bins, n_bins=513):
    """Log spectrogram at the LOG_FLOOR magnitude everywhere except one
    magnitude-1 bin per frame (none where bins holds -1)."""
    values = np.full((n_bins, len(bins)), np.log(LOG_FLOOR))
    for t, b in enumerate(bins):
        if b >= 0:
            values[b, t] = 0.0
    return LogSpectrogram(values=values, bin_hz=SR / 1024, hop_s=0.01)


class TestF0Ties:
    """A lone peak lies within the fundamental's range of several adjacent
    candidates, whose harmonic sums are then exactly equal: the lowest
    one wins, as np.argmax picks it from the whole sum matrix."""

    def test_equal_sums_pick_the_lowest_candidate(self):
        cfg = PipelineConfig()
        # bins 10 and 11 tie with candidate 0 (80 Hz); the last frame
        # ties every candidate with ten harmonics below 5 kHz
        spec = peak_spectrogram(list(range(10, 64)) + [-1])
        sums, _, _ = oracle_sums(spec, cfg)
        n_max = (sums == sums.max(axis=0)).sum(axis=0)
        assert n_max.min() >= 2
        assert (sums[0] == sums.max(axis=0))[:2].all()
        track = detect_f0_baseline(spec)
        expected = loop_detect_f0(spec, cfg)
        assert (expected[:-1] > 0).all() and expected[-1] == 0
        assert np.array_equal(track.f0_hz, expected)


class TestCandidateBlocks:
    """The harmonic sums run vocal.CAND_BLOCK candidates at a time: ties
    that span blocks and non-finite frames give the sum-matrix oracle's
    track for any block size."""

    @pytest.fixture(params=[1, 3, 7, vocal.CAND_BLOCK])
    def cand_block(self, request, monkeypatch):
        monkeypatch.setattr(vocal, "CAND_BLOCK", request.param)

    def test_ties_across_blocks(self, cand_block):
        spec = peak_spectrogram(list(range(10, 64)) + [-1])
        assert np.array_equal(detect_f0_baseline(spec).f0_hz,
                              loop_detect_f0(spec, PipelineConfig()))

    def test_non_finite_frames(self, cand_block):
        # NaN or inf samples give frames of NaN, and of inf mixed with NaN:
        # they stay unvoiced, and the finite frames around them are tracked
        # as the sum-matrix oracle tracks them
        spec = peak_spectrogram(list(range(10, 40)))
        values = spec.values.copy()
        values[:, 3] = np.nan
        values[::2, 7] = np.inf
        values[1::2, 7] = np.nan
        values[:, 11] = np.inf
        spec = LogSpectrogram(values=values, bin_hz=spec.bin_hz, hop_s=0.01)
        with np.errstate(invalid="ignore"):
            track = detect_f0_baseline(spec)
            expected = loop_detect_f0(spec, PipelineConfig())
        assert not track.voiced[[3, 7, 11]].any()
        assert np.array_equal(track.f0_hz, expected)
        assert (expected[:3] > 0).all()


def test_f0_working_set():
    # the magnitudes (1x the spectrogram) and the table of slice maxima
    # (about 1.7x) set the peak; a (n_cands, n_frames) sum matrix (0.7x),
    # or a second copy of the magnitudes (1x) next to the table, such as
    # a frame-major copy for a per-frame median, each push it past 3x
    rng = np.random.default_rng(2)
    clip = AudioClip(samples=0.1 * rng.standard_normal(30 * SR),
                     sample_rate=SR)
    spec = log_spectrogram(clip, 0.04, 0.01, 1024)
    tracemalloc.start()
    try:
        detect_f0_baseline(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * spec.values.nbytes


class TestChunkedResample:
    @staticmethod
    def clip_for(n_out, sr, seed=0):
        """Noise at sr that resamples to exactly n_out samples at 8 kHz."""
        n = int(round(n_out * sr / 8000))
        assert int(round(n * 8000 / sr)) == n_out
        rng = np.random.default_rng(seed)
        return AudioClip(samples=rng.uniform(-1.0, 1.0, n), sample_rate=sr)

    @pytest.mark.parametrize("sr", [16000, 22050, 44100, 48000])
    @pytest.mark.parametrize("n_out", [
        RESAMPLE_CHUNK - 1, RESAMPLE_CHUNK, RESAMPLE_CHUNK + 1,
        3 * RESAMPLE_CHUNK + 777,
    ])
    def test_matches_whole_clip(self, sr, n_out):
        clip = self.clip_for(n_out, sr)
        out = resample(clip, 8000)
        assert out.sample_rate == 8000 and len(out.samples) == n_out
        assert np.array_equal(out.samples, whole_resample(clip, 8000))

    @pytest.mark.parametrize("sr", [16000, 22050, 44100, 48000])
    def test_shorter_than_the_filter(self, sr):
        rng = np.random.default_rng(3)
        for n in (1, 2, 5, 17, 63, 64, 65):
            clip = AudioClip(samples=rng.uniform(-1.0, 1.0, n), sample_rate=sr)
            assert np.array_equal(resample(clip, 8000).samples,
                                  whole_resample(clip, 8000))

    @pytest.mark.parametrize("sr", [16000, 44100, 48000])
    def test_every_chunk_tail(self, monkeypatch, sr):
        # 5-sample chunks put a chunk boundary at every position of the
        # filter's tail, where the input stretch is shortest
        monkeypatch.setattr(dsp, "RESAMPLE_CHUNK", 5)
        rng = np.random.default_rng(4)
        for n in range(1, 400, 3):
            clip = AudioClip(samples=rng.uniform(-1.0, 1.0, n), sample_rate=sr)
            assert np.array_equal(resample(clip, 8000).samples,
                                  whole_resample(clip, 8000))

    def test_same_rate_returns_the_clip(self):
        clip = self.clip_for(100, 8000)
        assert resample(clip, 8000) is clip

    def test_memory_is_o_chunk(self):
        # working memory besides the output, at 2 and 8 min of 44.1 kHz
        extra = []
        for minutes in (2, 8):
            clip = self.clip_for(minutes * 60 * 8000, 44100)
            tracemalloc.start()
            try:
                out = resample(clip, 8000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - out.samples.nbytes)
        assert extra[1] <= 1.25 * extra[0]


def traced_peak(clip):
    """tracemalloc peak of extract_track; the clip itself is not counted
    (an 8 kHz clip is tracked as it is, without a resampled copy)."""
    tracemalloc.start()
    try:
        pipeline.extract_track(clip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


@pytest.fixture(scope="module")
def noise_peaks():
    """traced_peak of noise clips, by (seconds, sample rate)."""
    rng = np.random.default_rng(1)
    return {(secs, sr): traced_peak(AudioClip(
        samples=0.1 * rng.standard_normal(secs * sr), sample_rate=sr))
        for secs, sr in ((120, SR), (480, SR), (120, 44100))}


def test_memory_is_o_block(noise_peaks):
    assert noise_peaks[480, SR] <= 1.25 * noise_peaks[120, SR]


@pytest.mark.parametrize("secs, sr", [(480, SR), (120, 44100)])
def test_memory_bound(noise_peaks, secs, sr):
    assert noise_peaks[secs, sr] <= 100e6
