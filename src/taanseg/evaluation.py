"""Frame-level metrics (precision/recall/F, ROC with equal error rate) and
section-level matching: exact / over-segmented / under-segmented / missed
detections and false alarms, with boundary-deviation statistics.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError


@dataclass
class SectionMatchReport:
    exact: int = 0
    over_segmented: int = 0
    under_segmented: int = 0
    missed: int = 0
    false_alarm: int = 0
    # (onset deviation s, offset deviation s) for each exact match
    boundary_deviations: list = field(default_factory=list)

    def as_dict(self):
        return dataclasses.asdict(self)

    def table(self):
        lines = [
            f"{'Exact detection':<20}{self.exact}",
            f"{'Over-segmentation':<20}{self.over_segmented}",
            f"{'Under-segmentation':<20}{self.under_segmented}",
            f"{'Missed':<20}{self.missed}",
            f"{'False alarm':<20}{self.false_alarm}",
        ]
        return "\n".join(lines)


def frame_metrics(pred, truth, mask=None):
    """Precision/recall/F1 over masked frames; empty denominators give 0
    with an `undefined` flag listing which metrics were degenerate."""
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if len(pred) != len(truth):
        raise InvalidArgumentError("pred/truth length mismatch")
    if mask is None:
        mask = np.ones(len(pred), dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != len(pred):
            raise InvalidArgumentError("mask length mismatch")
    p, t = pred[mask], truth[mask]
    tp = int(np.sum(p & t))
    fp = int(np.sum(p & ~t))
    fn = int(np.sum(~p & t))
    undefined = []
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, undefined = 0.0, undefined + ["precision"]
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, undefined = 0.0, undefined + ["recall"]
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1, undefined = 0.0, undefined + ["f1"]
    return {"precision": precision, "recall": recall, "f1": f1,
            "undefined": undefined}


def roc_curve(posteriors, truth, mask=None):
    """Threshold sweep over all distinct posterior values.

    Returns (points, eer) where points is a list of
    (threshold, precision, recall) and eer the precision=recall operating
    point found by linear interpolation between adjacent sweep points.
    One sort gives every point: the frames at or above a threshold are a
    suffix of the sorted posteriors, counted by cumulative sums.
    """
    p = np.asarray(posteriors, dtype=np.float64)
    truth = np.asarray(truth, dtype=bool)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        p, truth = p[mask], truth[mask]
    if not truth.any() or truth.all():
        raise InvalidArgumentError("ROC needs both classes in the truth")
    if np.isnan(p).any():
        raise InvalidArgumentError("ROC posteriors must not be NaN")
    order = np.argsort(p)
    p, truth = p[order], truth[order]
    # each distinct value's first sorted frame, and the true frames from it on
    first = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
    tp = np.cumsum(truth[::-1])[::-1][first]
    points = list(zip(p[first].tolist(), (tp / (len(p) - first)).tolist(),
                      (tp / tp[0]).tolist()))
    # EER: precision - recall changes sign along the sweep
    diffs = [pr - rc for _, pr, rc in points]
    best = int(np.argmin(np.abs(diffs)))
    eer_thr, eer_val = points[best][0], 0.5 * (points[best][1] + points[best][2])
    for i in range(len(points) - 1):
        d0, d1 = diffs[i], diffs[i + 1]
        if d0 == 0.0 or (d0 < 0) != (d1 < 0):
            if d0 == d1:
                frac = 0.0
            else:
                frac = d0 / (d0 - d1)
            eer_thr = points[i][0] + frac * (points[i + 1][0] - points[i][0])
            v0 = 0.5 * (points[i][1] + points[i][2])
            v1 = 0.5 * (points[i + 1][1] + points[i + 1][2])
            eer_val = v0 + frac * (v1 - v0)
            break
    return points, {"threshold": float(eer_thr), "value": float(eer_val)}


def _overlap(a, b):
    return max(0.0, min(a.end_s, b.end_s) - max(a.start_s, b.start_s))


def match_sections(detected, truth):
    """Categorize truth taan sections against detections.

    A truth section is retrieved when overlapping detections cover at
    least 50% of its duration, summed across detections.
    Retrieved by >= 2 detections: over-segmented; by one detection that
    also overlaps another truth section: under-segmented; otherwise
    exact. A detection is a false alarm when its overlap with every truth
    taan section stays below 50% of the detection's own duration.
    """
    det = detected.taan_sections()
    tru = truth.taan_sections()
    report = SectionMatchReport()
    for ts in tru:
        dur = ts.end_s - ts.start_s
        hits = [(d, o) for d in det if (o := _overlap(d, ts)) > 0]
        if sum(o for _, o in hits) < 0.5 * dur:
            report.missed += 1
            continue
        if len(hits) >= 2:
            report.over_segmented += 1
            continue
        d = hits[0][0]
        others = [o for o in tru if o is not ts and _overlap(d, o) > 0]
        if others:
            report.under_segmented += 1
        else:
            report.exact += 1
            report.boundary_deviations.append(
                (abs(d.start_s - ts.start_s), abs(d.end_s - ts.end_s))
            )
    for d in det:
        d_dur = d.end_s - d.start_s
        if all(_overlap(d, ts) < 0.5 * d_dur for ts in tru):
            report.false_alarm += 1
    return report


def boundary_deviation(report):
    """Mean/max onset and offset deviations over exact matches."""
    if not report.boundary_deviations:
        return {"empty": True}
    dev = np.asarray(report.boundary_deviations, dtype=np.float64)
    return {
        "empty": False,
        "mean_onset": float(dev[:, 0].mean()),
        "max_onset": float(dev[:, 0].max()),
        "mean_offset": float(dev[:, 1].mean()),
        "max_offset": float(dev[:, 1].max()),
    }
