"""Windowed DFT spectrogram primitives and sample-rate conversion.

All inputs and outputs are plain numpy arrays wrapped in small dataclasses;
every function here is pure and deterministic.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInputError, InvalidArgumentError, UnsupportedOperationError

ACCEPTED_RATES = (8000, 16000, 22050, 44100, 48000)

LOG_FLOOR = 1e-10

# frames per spectrogram block: bounds the working set of streamed tracking
FRAME_BLOCK = 2048

# frames per FFT call: bounds the padded, complex and magnitude buffers
FFT_ROWS = 256

# output samples per resampling chunk: bounds the working set of `resample`
RESAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class AudioClip:
    """Mono audio samples in [-1, 1] at a known sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if int(self.sample_rate) not in ACCEPTED_RATES:
            raise InvalidArgumentError(
                f"sample_rate {self.sample_rate} not in accepted set {ACCEPTED_RATES}"
            )
        object.__setattr__(
            self, "samples", np.asarray(self.samples, dtype=np.float64)
        )
        if self.samples.ndim != 1:
            raise InvalidArgumentError("AudioClip samples must be 1-D (mono)")

    @property
    def duration_s(self):
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class LogSpectrogram:
    """Natural-log magnitude spectrogram in a C-contiguous [n_bins x n_frames]
    array: each bin's frames are adjacent in memory, so a slice of bins is
    one contiguous block. It holds either a whole clip (`log_spectrogram`)
    or one block of frames (`log_spectrogram_blocks`, which pitch tracking
    streams through)."""

    values: np.ndarray
    bin_hz: float
    hop_s: float

    @property
    def n_bins(self):
        return self.values.shape[0]

    @property
    def n_frames(self):
        return self.values.shape[1]

    def magnitudes(self):
        """Linear magnitudes (inverse of the log)."""
        return np.exp(self.values)


def hamming_window(n):
    """Hamming coefficients w[k] = 0.54 - 0.46*cos(2*pi*k/(n-1))."""
    if n < 2:
        raise InvalidArgumentError(f"window length must be >= 2, got {n}")
    k = np.arange(n)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))


def contiguous_transpose(a, out=None):
    """Copy of the 2-D a.T, into `out` when given, else into a new
    C-contiguous array. Copies 64 rows of a at a time so that reads and
    writes stay in cache: about 3x faster than np.ascontiguousarray(a.T)
    on a spectrogram block."""
    if out is None:
        out = np.empty(a.shape[::-1], dtype=a.dtype)
    for r in range(0, a.shape[0], 64):
        out[:, r:r + 64] = a[r:r + 64].T
    return out


def _frame_count(clip, win_s, hop_s, n_dft):
    """(win, hop, n_frames) in samples for framing `clip`, validated."""
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
    return win, hop, (n - win) // hop + 1


def _frame_major_blocks(clip, win, hop, n_frames, n_dft):
    """(t0, log magnitudes of frames t0.. as a [frames x n_bins] array) per
    run of at most FFT_ROWS frames; no run crosses a multiple of
    FRAME_BLOCK. The array is a buffer reused by the next run: copy what
    must outlive the iteration."""
    w = hamming_window(win)
    # frame t is the sample slice [t*hop, t*hop + win): a strided view
    windows = np.lib.stride_tricks.sliding_window_view(clip.samples, win)[::hop]
    rows = min(FFT_ROWS, FRAME_BLOCK, n_frames)
    # windowed frames go into the first win columns; the rest stay zero, so
    # the FFT needs no padded copy of its own
    padded = np.zeros((rows, n_dft))
    spectrum = np.empty((rows, n_dft // 2 + 1), dtype=np.complex128)
    mag = np.empty((rows, n_dft // 2 + 1))
    for b0 in range(0, n_frames, FRAME_BLOCK):
        for t0 in range(b0, min(b0 + FRAME_BLOCK, n_frames), rows):
            frames = windows[t0:min(t0 + rows, b0 + FRAME_BLOCK)]
            n = len(frames)
            np.multiply(frames, w, out=padded[:n, :win])
            np.fft.rfft(padded[:n], axis=1, out=spectrum[:n])
            np.abs(spectrum[:n], out=mag[:n])
            np.maximum(mag[:n], LOG_FLOOR, out=mag[:n])
            yield t0, np.log(mag[:n], out=mag[:n])


def log_spectrogram_blocks(clip, win_s, hop_s, n_dft):
    """Framed log-magnitude spectrum of `clip`, FRAME_BLOCK frames at a time.

    Frame t covers samples [t*hop, t*hop + win); each frame is Hamming
    windowed, zero-padded to n_dft and transformed; a final partial frame
    is dropped. Output values are ln(max(|X|, 1e-10)). Yields one
    C-contiguous [n_bins x n_block_frames] LogSpectrogram per run of
    FRAME_BLOCK consecutive frames (the last run may be shorter), so the
    working set is O(FRAME_BLOCK) whatever the clip length; the FFT runs
    FFT_ROWS frames at a time into the block. Input errors are raised when
    iteration starts.
    """
    win, hop, n_frames = _frame_count(clip, win_s, hop_s, n_dft)
    for t0, mag in _frame_major_blocks(clip, win, hop, n_frames, n_dft):
        col = t0 % FRAME_BLOCK
        if col == 0:
            values = np.empty((n_dft // 2 + 1,
                               min(FRAME_BLOCK, n_frames - t0)))
        contiguous_transpose(mag, out=values[:, col:col + len(mag)])
        if col + len(mag) == values.shape[1]:
            yield LogSpectrogram(values=values,
                                 bin_hz=clip.sample_rate / n_dft,
                                 hop_s=hop / clip.sample_rate)


def log_spectrogram(clip, win_s, hop_s, n_dft):
    """Framed log-magnitude spectrum of the whole clip: one C-contiguous
    [n_bins x n_frames] LogSpectrogram, filled FFT_ROWS frames at a time
    with the framing and values of `log_spectrogram_blocks`. Pitch tracking
    (`pipeline.extract_track`) streams the blocks instead, so that its
    memory does not grow with the clip."""
    win, hop, n_frames = _frame_count(clip, win_s, hop_s, n_dft)
    values = np.empty((n_dft // 2 + 1, n_frames))
    for t0, mag in _frame_major_blocks(clip, win, hop, n_frames, n_dft):
        contiguous_transpose(mag, out=values[:, t0:t0 + len(mag)])
    return LogSpectrogram(values=values, bin_hz=clip.sample_rate / n_dft,
                          hop_s=hop / clip.sample_rate)


def _lowpass_taps(cutoff_norm, n_taps=64):
    # windowed-sinc FIR; cutoff_norm = cutoff / sample_rate
    n = np.arange(n_taps)
    center = (n_taps - 1) / 2.0
    h = 2.0 * cutoff_norm * np.sinc(2.0 * cutoff_norm * (n - center))
    h *= hamming_window(n_taps)
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
    if int(target_hz) not in ACCEPTED_RATES:
        raise InvalidArgumentError(f"target rate {target_hz} not accepted")
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
