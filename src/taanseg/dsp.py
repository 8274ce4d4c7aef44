"""Windowed DFT spectrogram primitives and sample-rate conversion.

All inputs and outputs are plain numpy arrays wrapped in small dataclasses;
every function here is pure and deterministic.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import pool
from .errors import EmptyInputError, InvalidArgumentError, UnsupportedOperationError

ACCEPTED_RATES = (8000, 16000, 22050, 44100, 48000)

# the analysis grid both models frame audio on: rate, window (s), DFT size
ANALYSIS_HZ = 8000
WIN_S = 0.04
N_DFT = 1024

LOG_FLOOR = 1e-10

# frames per spectrogram block: bounds the working set of streamed tracking
FRAME_BLOCK = 2048

# frames per FFT call, split between the whole-clip spectrogram's spans:
# bounds the padded, complex and magnitude buffers
FFT_ROWS = 256

# output samples per resampling chunk: bounds the working set of `resample`
RESAMPLE_CHUNK = 1 << 16
LOWPASS_TAPS = 64   # of the windowed-sinc anti-aliasing filter of `resample`


def accepted_rate(hz):
    """hz as an int; InvalidArgumentError unless it is a real number equal
    to an accepted rate (8000.0 is 8000, 8000.5 is no rate)."""
    if not isinstance(hz, numbers.Real) or hz not in ACCEPTED_RATES:
        raise InvalidArgumentError(f"sample_rate {hz} not in accepted set "
                                   f"{ACCEPTED_RATES}")
    return int(hz)


@dataclass(frozen=True)
class AudioClip:
    """Mono audio samples in [-1, 1] at a known sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "sample_rate",
                           accepted_rate(self.sample_rate))
        object.__setattr__(
            self, "samples", np.asarray(self.samples, dtype=np.float64)
        )
        if self.samples.ndim != 1:
            raise InvalidArgumentError("AudioClip samples must be 1-D (mono)")
        # min and max carry any NaN or inf through, with no full-size
        # temporary (np.isfinite would allocate one)
        x = self.samples
        if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
            raise InvalidArgumentError("AudioClip samples must be finite "
                                       "(NaN or inf found)")

    @property
    def duration_s(self):
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class LogSpectrogram:
    """Natural-log magnitude spectrogram in a C-contiguous [n_bins x n_frames]
    array: each bin's frames are adjacent in memory, so a slice of bins is
    one contiguous block. Each is a run of frames from
    `log_spectrogram_blocks`, or the whole clip from `log_spectrogram`."""

    values: np.ndarray
    bin_hz: float
    hop_s: float

    def __post_init__(self):
        # the grid alone is checked: the values are not scanned
        if np.ndim(self.values) != 2 or not all(
                np.isfinite(v) and v > 0 for v in (self.bin_hz, self.hop_s)):
            raise InvalidArgumentError("a LogSpectrogram needs 2-D values and"
                                       " finite bin_hz and hop_s > 0")

    @property
    def n_bins(self):
        return self.values.shape[0]

    @property
    def n_frames(self):
        return self.values.shape[1]

    def magnitudes(self):
        """Linear magnitudes (inverse of the log)."""
        return np.exp(self.values)


def seconds_to_frames(name, seconds, period, cap):
    """`seconds` in whole frames of `period` s, rounded and at most cap, so
    a huge ratio is capped, not overflowed; InvalidArgumentError, naming
    `name`, unless period is finite and > 0 and seconds finite and >= 0."""
    if not (math.isfinite(period) and period > 0):
        raise InvalidArgumentError(f"frame_s {period} is not finite and > 0")
    if not (math.isfinite(seconds) and seconds >= 0):
        raise InvalidArgumentError(f"{name} {seconds} is not finite and >= 0")
    return int(round(min(seconds / period, cap)))


def hamming_window(n):
    """Hamming coefficients w[k] = 0.54 - 0.46*cos(2*pi*k/(n-1))."""
    if n < 2:
        raise InvalidArgumentError(f"window length must be >= 2, got {n}")
    k = np.arange(n)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))


def _framing(clip, win_s, hop_s, n_dft):
    """(windows, w, hop, n_frames): frame t of `clip` is the strided view
    windows[t], the samples [t*hop, t*hop + win), and w its Hamming window;
    the framing is validated."""
    sr = clip.sample_rate
    win = int(round(win_s * sr))
    hop = int(round(hop_s * sr))
    if win < 2 or hop < 1:
        raise InvalidArgumentError("window/hop too small for sample rate")
    if win > n_dft:
        raise InvalidArgumentError(
            f"window of {win} samples exceeds n_dft={n_dft}"
        )
    n = len(clip.samples)
    if n < win:
        raise EmptyInputError(
            f"clip of {n} samples shorter than one {win}-sample window"
        )
    windows = np.lib.stride_tricks.sliding_window_view(clip.samples, win)
    return windows[::hop], hamming_window(win), hop, (n - win) // hop + 1


def _log_spectrum(windows, w, n_dft, values, rows):
    """values[:, t] = the len(values) lowest bins of ln(max(|X|, LOG_FLOOR))
    of frame windows[t], Hamming windowed and zero-padded to n_dft. The FFT
    runs `rows` frames at a time on scratch buffers of this call's own,
    each run transposed straight into its columns of values."""
    rows = min(rows, len(windows))
    # windowed frames go into the first len(w) columns; the rest stay zero,
    # so the FFT needs no padded copy of its own
    padded = np.zeros((rows, n_dft))
    spectrum = np.empty((rows, n_dft // 2 + 1), dtype=np.complex128)
    mag = np.empty((rows, len(values)))
    for c in range(0, len(windows), rows):
        n = min(rows, len(windows) - c)
        np.multiply(windows[c:c + n], w, out=padded[:n, :len(w)])
        np.fft.rfft(padded[:n], axis=1, out=spectrum[:n])
        np.abs(spectrum[:n, :len(values)], out=mag[:n])
        np.maximum(mag[:n], LOG_FLOOR, out=mag[:n])
        np.log(mag[:n], out=mag[:n])
        values[:, c:c + n] = mag[:n].T


def log_spectrogram_blocks(clip, win_s, hop_s, n_dft, n_bins=None):
    """Framed log-magnitude spectrum of `clip`, FRAME_BLOCK frames at a time.

    Frame t covers samples [t*hop, t*hop + win); each frame is Hamming
    windowed, zero-padded to n_dft and transformed; a final partial frame
    is dropped. Output values are ln(max(|X|, 1e-10)). Yields one
    C-contiguous [n_bins x n_block_frames] LogSpectrogram per run of
    FRAME_BLOCK frames (the last may be shorter), so the working set is
    O(FRAME_BLOCK) whatever the clip length; n_bins keeps the lowest bins only
    (None: all n_dft // 2 + 1). Blocks are computed one after another on
    the calling thread. Input errors are raised when iteration starts.
    """
    windows, w, hop, n_frames = _framing(clip, win_s, hop_s, n_dft)
    for b0 in range(0, n_frames, FRAME_BLOCK):
        values = np.empty((n_bins or n_dft // 2 + 1,
                           min(FRAME_BLOCK, n_frames - b0)))
        _log_spectrum(windows[b0:b0 + values.shape[1]], w, n_dft, values,
                      FFT_ROWS)
        yield LogSpectrogram(values=values, bin_hz=clip.sample_rate / n_dft,
                             hop_s=hop / clip.sample_rate)


def log_spectrogram(clip, win_s, hop_s, n_dft, n_bins=None):
    """The whole clip's framed log-magnitude spectrum, bit for bit the
    blocks of `log_spectrogram_blocks` side by side. Its frames are split
    into pool.WORKERS contiguous spans, computed on the pool's threads,
    each writing its own columns of the one output array; the spans share
    FFT_ROWS frames of scratch buffers, so they hold no more than one
    thread did."""
    windows, w, hop, n_frames = _framing(clip, win_s, hop_s, n_dft)
    values = np.empty((n_bins or n_dft // 2 + 1, n_frames))
    step = -(-n_frames // pool.WORKERS)
    rows = max(1, FFT_ROWS // pool.WORKERS)
    pool.ordered_map(
        lambda s: _log_spectrum(windows[s:s + step], w, n_dft,
                                values[:, s:s + step], rows),
        range(0, n_frames, step))
    return LogSpectrogram(values=values, bin_hz=clip.sample_rate / n_dft,
                          hop_s=hop / clip.sample_rate)


def _lowpass_taps(cutoff_norm):
    # windowed-sinc FIR; cutoff_norm = cutoff / sample_rate
    n = np.arange(LOWPASS_TAPS)
    center = (LOWPASS_TAPS - 1) / 2.0
    h = 2.0 * cutoff_norm * np.sinc(2.0 * cutoff_norm * (n - center))
    h *= hamming_window(LOWPASS_TAPS)
    return h / h.sum()


def resample(clip, target_hz):
    """Downsample `clip` to target_hz (anti-aliased; upsampling rejected).

    A 64-tap windowed-sinc low-pass, then linear interpolation at the
    output instants. The output is computed RESAMPLE_CHUNK samples at a
    time from the input stretch each chunk needs, so the working set is
    O(RESAMPLE_CHUNK) besides the input and output, whatever the length;
    every filtered sample is the same dot product over the same input
    memory as when filtering the whole clip at once. A clip already at
    target_hz is returned as it is, not copied.
    """
    target_hz = accepted_rate(target_hz)
    sr = clip.sample_rate
    if target_hz > sr:
        raise UnsupportedOperationError("upsampling is not supported")
    if target_hz == sr:
        return clip
    h = _lowpass_taps(0.45 * target_hz / sr)
    x = clip.samples
    n, taps = len(x), len(h)
    n_out = int(round(n * target_hz / sr))
    out = np.empty(n_out)
    for k0 in range(0, n_out, RESAMPLE_CHUNK):
        k1 = min(k0 + RESAMPLE_CHUNK, n_out)
        # fractional positions of the output samples in the filtered signal
        pos = np.arange(k0, k1) * (sr / target_hz) + (taps - 1) / 2.0
        # filtered samples [f0, f1) bracket every position; positions stay
        # below n + (taps - 1) / 2, inside the full convolution
        f0, f1 = int(pos[0]), int(pos[-1]) + 2
        # input [a, b): the taps - 1 samples of context before f0, and never
        # shorter than the filter unless the clip is, so that np.convolve
        # keeps the signal as its first operand as on the whole clip
        a = max(min(f0 - taps + 1, n - taps), 0)
        b = min(max(f1, a + taps), n)
        filtered = np.convolve(x[a:b], h, mode="full")
        out[k0:k1] = np.interp(pos, np.arange(f0, f1), filtered[f0 - a:f1 - a])
    return AudioClip(samples=out, sample_rate=int(target_hz))
