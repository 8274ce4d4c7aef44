"""Posterior-based segmentation: self-distance matrix, checkerboard
novelty, boundary picking, majority labeling, and musician-style grouping
of taan sections.

The self-distance matrix (SDM) is held as its generating vector, and
novelty builds only the blocks its kernel reads: memory is linear in the
concert's length.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dsp import seconds_to_frames
from .errors import DataError, InvalidArgumentError
from .table import Table, finite

LABELS = ("taan", "non-taan", "instrumental")


@dataclass(frozen=True)
class Section:
    start_s: float
    end_s: float
    label: str


@dataclass
class SectionTimeline:
    """Ordered, non-overlapping labeled intervals."""

    sections: list

    def __post_init__(self):
        prev_end = None
        for s in self.sections:
            if s.label not in LABELS:
                raise InvalidArgumentError(f"unknown label {s.label!r}")
            if not 0 < s.end_s - s.start_s < math.inf:
                raise InvalidArgumentError(f"section [{s.start_s}, {s.end_s}] "
                                           "has non-positive or non-finite length")
            if prev_end is not None and s.start_s < prev_end - 1e-9:
                raise InvalidArgumentError("sections overlap or are unsorted")
            prev_end = s.end_s

    def __len__(self):
        return len(self.sections)

    def __iter__(self):
        return iter(self.sections)

    def taan_sections(self):
        return [s for s in self.sections if s.label == "taan"]

    def span(self):
        return self.sections[0].start_s, self.sections[-1].end_s

    def frame_labels(self, n):
        """Labels of the n 1 s frames, frame k read at its midpoint k + 0.5 s:
        the first section holding it (sections paint last to first), or
        instrumental."""
        mid = np.arange(n) + 0.5
        labels = np.full(len(mid), "instrumental", dtype=object)
        for s in reversed(self.sections):
            lo, hi = np.searchsorted(mid, [s.start_s, s.end_s])
            labels[lo:hi] = s.label
        return labels.tolist()


def posterior_sdm(posteriors):
    """Euclidean self-distance matrix over (p_taan, 1 - p_taan) vectors as
    its generating vector q: p_taan with non-vocal frames at the (0.5, 0.5)
    placeholder, so entry (i, j) is sqrt(2) * |q_i - q_j|."""
    q = np.asarray(posteriors.p_taan, dtype=np.float64).copy()
    if len(q) < 2:
        raise InvalidArgumentError("need at least 2 frames for an SDM")
    q[~posteriors.vocal_mask] = 0.5
    return q


def checkerboard_kernel(half_width, gaussian_taper=True):
    """2L x 2L kernel: -1 same-quadrant, +1 cross-quadrant (distance
    form, so boundaries correlate positively), optionally Gaussian
    tapered radially with sigma = L/2."""
    ln = half_width
    a = np.arange(2 * ln)
    sign = np.where((a[:, None] < ln) == (a[None, :] < ln), -1.0, 1.0)
    if gaussian_taper:
        off = a - (ln - 0.5)
        sigma = ln / 2.0
        taper = np.exp(-(off[:, None] ** 2 + off[None, :] ** 2)
                       / (2.0 * sigma**2))
        return sign * taper
    return sign


def novelty(sdm, half_width_s=5.0, frame_s=1.0, gaussian_taper=True):
    """Checkerboard-kernel correlation along the diagonal of the SDM that
    posterior_sdm's vector q generates, one 2L x 2L block at a time.

    At the edges the kernel is cropped and the value rescaled by kernel
    coverage (sum of |weights| inside / total).
    """
    q = np.asarray(sdm, dtype=np.float64)
    if q.ndim != 1:
        raise InvalidArgumentError("novelty takes posterior_sdm's vector, "
                                   f"not a {q.ndim}-d array")
    n = len(q)
    # past n + 1 frames the kernel cannot fit, so the cap changes no outcome
    ln = seconds_to_frames("half_width_s", half_width_s, frame_s, n + 1)
    if 2 * ln > n:
        raise InvalidArgumentError("SDM smaller than the novelty kernel")
    kernel = checkerboard_kernel(ln, gaussian_taper)
    total_cov = np.abs(kernel).sum()
    out = np.zeros(n)
    for t in range(n):
        lo = max(t - ln, 0)
        hi = min(t + ln, n)
        klo = lo - (t - ln)
        khi = klo + (hi - lo)
        sub = kernel[klo:khi, klo:khi]
        cov = np.abs(sub).sum()
        block = np.subtract.outer(q[lo:hi], q[lo:hi])
        np.multiply(np.abs(block, out=block), np.sqrt(2.0), out=block)
        val = float(np.sum(sub * block))
        out[t] = val * (total_cov / cov) if cov > 0 else 0.0
    return out


def pick_boundaries(nov, neighborhood_s=5.0, rel_threshold=0.3, frame_s=1.0):
    """Local-peak boundary picking with a relative global threshold.

    A frame is a boundary iff it is the first maximum of its +/- W
    neighborhood (ties resolved to the smallest index), positive, and at
    least rel_threshold of the global novelty maximum. A W past len(nov)
    covers every frame, as len(nov) does, so it is clamped there.
    """
    nov = np.asarray(nov, dtype=np.float64)
    w = seconds_to_frames("neighborhood_s", neighborhood_s, frame_s, len(nov))
    if not np.all(np.isfinite(nov)):
        raise InvalidArgumentError("novelty must be finite")
    peak = nov.max(initial=0.0)
    if peak <= 0:
        return []
    # row t: the W frames before t, t itself, the W after; -inf past the ends
    win = np.lib.stride_tricks.sliding_window_view(
        np.pad(nov, w, constant_values=-np.inf), 2 * w + 1)
    first_max = ((win[:, :w].max(axis=1, initial=-np.inf) < nov)
                 & (nov >= win[:, w + 1:].max(axis=1, initial=-np.inf)))
    keep = first_max & (nov > 0) & (nov >= rel_threshold * peak)
    return np.flatnonzero(keep).tolist()


def label_segments(boundaries, decisions, vocal_mask, frame_s=1.0):
    """Timeline from inter-boundary segments: taan iff a strict majority
    of a segment's vocal frames are taan-classified; segments without
    vocal frames are instrumental."""
    decisions = np.asarray(decisions, dtype=bool)
    vocal_mask = np.asarray(vocal_mask, dtype=bool)
    n = len(decisions)
    cuts = [0] + [b for b in boundaries if 0 < b < n] + [n]
    sections = []
    for s, e in zip(cuts[:-1], cuts[1:]):
        voc = vocal_mask[s:e]
        if not voc.any():
            label = "instrumental"
        elif decisions[s:e][voc].mean() > 0.5:
            label = "taan"
        else:
            label = "non-taan"
        sections.append(Section(s * frame_s, e * frame_s, label))
    return SectionTimeline(sections)


def group_sections(timeline, vocal_gap_s=20.0, instr_gap_s=50.0):
    """Merge taan sections separated by short gaps, in one left-to-right
    pass: each taan merges into the last kept taan when the gap between
    them is absorbable, so merges cascade.

    A gap is absorbed when it contains vocal activity and lasts at most
    vocal_gap_s, or is purely instrumental and lasts at most instr_gap_s.
    """
    kept, last = [], None  # last: index in kept of the last taan
    for s in timeline.sections:
        if s.label == "taan" and last is not None:
            gap = kept[last + 1:]
            vocal = any(g.label != "instrumental" for g in gap)
            if (sum(g.end_s - g.start_s for g in gap)
                    <= (vocal_gap_s if vocal else instr_gap_s)):
                s = Section(kept[last].start_s, s.end_s, "taan")
                del kept[last:]
        if s.label == "taan":
            last = len(kept)
        kept.append(s)
    return SectionTimeline(kept)


def _timeline_faults(rows, first_line):
    return finite("start_s", "end_s")(rows, first_line) + [
        (~np.isin(rows["label"], LABELS), DataError, "unknown label {label!r}")]


TIMELINE_TABLE = Table([("start_s", "f8"), ("end_s", "f8"), ("label", "O")],
                       delimiter="\t", header=False, check=_timeline_faults)


def write_timeline(timeline, path):
    """Timeline TSV: start_s<TAB>end_s<TAB>label."""
    TIMELINE_TABLE.write(path, [[getattr(s, name) for s in timeline]
                                for name in TIMELINE_TABLE.dtype.names])


def read_timeline(path):
    """A checked timeline TSV: each fault is a DataError naming the path."""
    rows = TIMELINE_TABLE.read(path).tolist()
    try:
        return SectionTimeline([Section(*row) for row in rows])
    except InvalidArgumentError as exc:
        raise DataError(str(exc), path=path) from None
