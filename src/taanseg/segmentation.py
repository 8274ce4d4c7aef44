"""Posterior-based segmentation: self-distance matrix, checkerboard
novelty, boundary picking, majority labeling, and musician-style grouping
of taan sections.
"""

import math
from dataclasses import dataclass

import numpy as np

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

    def frame_labels(self, n, frame_s=1.0):
        """Labels of n frames of frame_s s at their midpoints: the first
        section holding one (sections paint last to first), or instrumental."""
        mid = (np.arange(n) + 0.5) * frame_s
        labels = np.full(len(mid), "instrumental", dtype=object)
        for s in reversed(self.sections):
            lo, hi = np.searchsorted(mid, [s.start_s, s.end_s])
            labels[lo:hi] = s.label
        return labels.tolist()


def posterior_sdm(posteriors):
    """Euclidean self-distance matrix over (p_taan, 1 - p_taan) vectors;
    non-vocal frames enter as a (0.5, 0.5) placeholder."""
    p = np.asarray(posteriors.p_taan, dtype=np.float64).copy()
    if len(p) < 2:
        raise InvalidArgumentError("need at least 2 frames for an SDM")
    p[~posteriors.vocal_mask] = 0.5
    # ||(p_i, 1-p_i) - (p_j, 1-p_j)|| = sqrt(2) * |p_i - p_j|, in place
    d = np.subtract.outer(p, p)
    return np.multiply(np.abs(d, out=d), np.sqrt(2.0), out=d)


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
    """Checkerboard-kernel correlation along the SDM diagonal.

    At the edges the kernel is cropped and the value rescaled by kernel
    coverage (sum of |weights| inside / total).
    """
    n = sdm.shape[0]
    ln = int(round(half_width_s / frame_s))
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
        val = float(np.sum(sub * sdm[lo:hi, lo:hi]))
        out[t] = val * (total_cov / cov) if cov > 0 else 0.0
    return out


def pick_boundaries(nov, neighborhood_s=5.0, rel_threshold=0.3, frame_s=1.0):
    """Local-peak boundary picking with a relative global threshold.

    A frame is a boundary iff it is the maximum over its +/- W
    neighborhood (ties resolved to the smallest index) and at least
    rel_threshold of the global novelty maximum.
    """
    nov = np.asarray(nov, dtype=np.float64)
    if not np.all(np.isfinite(nov)):
        raise InvalidArgumentError("novelty must be finite")
    n = len(nov)
    w = int(round(neighborhood_s / frame_s))
    peak = nov.max(initial=0.0)
    if peak <= 0:
        return []
    bounds = []
    for t in range(n):
        lo = max(t - w, 0)
        hi = min(t + w + 1, n)
        if nov[t] <= 0 or nov[t] < rel_threshold * peak:
            continue
        window = nov[lo:hi]
        if nov[t] >= window.max() and t - lo == int(np.argmax(window)):
            bounds.append(t)
    return bounds


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


def _gap_kind(sections):
    """('instrumental'|'vocal', duration) of the gap between two taans."""
    dur = sum(s.end_s - s.start_s for s in sections)
    kind = "instrumental"
    if any(s.label != "instrumental" for s in sections):
        kind = "vocal"
    return kind, dur


def group_sections(timeline, vocal_gap_s=20.0, instr_gap_s=50.0):
    """Merge taan sections separated by short gaps, until fixpoint.

    A gap is absorbed when it contains vocal activity and lasts at most
    vocal_gap_s, or is purely instrumental and lasts at most instr_gap_s.
    """
    sections = list(timeline.sections)
    i = 0
    while i < len(sections):
        if sections[i].label != "taan":
            i += 1
            continue
        # next taan section, if any
        j = i + 1
        while j < len(sections) and sections[j].label != "taan":
            j += 1
        if j >= len(sections):
            break
        kind, dur = _gap_kind(sections[i + 1 : j])
        limit = vocal_gap_s if kind == "vocal" else instr_gap_s
        if dur <= limit:
            merged = Section(sections[i].start_s, sections[j].end_s, "taan")
            sections = sections[:i] + [merged] + sections[j + 1 :]
        else:
            i = j
    return SectionTimeline(sections)


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
