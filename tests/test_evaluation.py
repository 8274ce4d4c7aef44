"""Tests for frame metrics, the ROC sweep with equal error rate, and
section-level match categorization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taanseg.errors import InvalidArgumentError
from taanseg.evaluation import (
    boundary_deviation,
    frame_metrics,
    match_sections,
    roc_curve,
)
from taanseg.segmentation import Section, SectionTimeline


def _tl(*spans):
    return SectionTimeline([Section(a, b, lab) for a, b, lab in spans])


class TestFrameMetrics:
    def test_hand_counted(self):
        pred = [1, 1, 0, 0, 1]
        truth = [1, 0, 0, 1, 1]
        m = frame_metrics(pred, truth)
        # tp=2, fp=1, fn=1
        assert m["precision"] == pytest.approx(2 / 3)
        assert m["recall"] == pytest.approx(2 / 3)
        assert m["f1"] == pytest.approx(2 / 3)
        assert m["undefined"] == []

    def test_perfect(self):
        m = frame_metrics([1, 0, 1], [1, 0, 1])
        assert m["precision"] == m["recall"] == m["f1"] == 1.0

    def test_empty_denominators_flagged(self):
        m = frame_metrics([0, 0], [0, 0])
        assert m["precision"] == 0.0 and m["recall"] == 0.0
        assert set(m["undefined"]) == {"precision", "recall", "f1"}

    def test_mask_restricts(self):
        pred = [1, 1, 0, 0]
        truth = [1, 0, 0, 0]
        m = frame_metrics(pred, truth, mask=[1, 0, 1, 1])
        assert m["precision"] == 1.0 and m["recall"] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            frame_metrics([1, 0], [1])


class TestRoc:
    def test_perfect_separation(self):
        post = np.array([0.1, 0.2, 0.8, 0.9])
        truth = np.array([0, 0, 1, 1], dtype=bool)
        points, eer = roc_curve(post, truth)
        assert len(points) == 4
        assert eer["value"] == pytest.approx(1.0)
        # at the EER threshold both classes separate cleanly
        m = frame_metrics(post >= eer["threshold"], truth)
        assert m["precision"] == m["recall"] == 1.0

    def test_monotone_recall(self):
        rng = np.random.default_rng(0)
        post = rng.uniform(size=200)
        truth = rng.uniform(size=200) < 0.4
        points, _ = roc_curve(post, truth)
        recalls = [rc for _, _, rc in points]
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))

    def test_random_posteriors_eer_near_base_rate(self):
        # With uninformative posteriors precision ~= base rate where it
        # crosses recall; Monte-Carlo estimate with a fixed seed.
        rng = np.random.default_rng(42)
        n = 20000
        post = rng.uniform(size=n)
        truth = rng.uniform(size=n) < 0.52
        _, eer = roc_curve(post, truth)
        assert eer["value"] == pytest.approx(0.52, abs=0.04)

    def test_single_class_rejected(self):
        with pytest.raises(InvalidArgumentError):
            roc_curve([0.1, 0.9], [True, True])

    @pytest.mark.parametrize("args, message", [
        (([0.1, 0.9, 0.5], [0, 1]), "posteriors/truth length mismatch"),
        (([0.1, 0.9], [0, 1], [True]), "mask length mismatch")])
    def test_length_mismatch_rejected(self, args, message):
        # both were bare IndexErrors
        with pytest.raises(InvalidArgumentError, match=message):
            roc_curve(*args)

    def test_mask_applied(self):
        post = [0.9, 0.1, 0.5, 0.5]
        truth = [True, False, True, False]
        points, _ = roc_curve(post, truth, mask=[1, 1, 0, 0])
        assert len(points) == 2

    def test_nan_on_a_scored_frame_rejected(self):
        with pytest.raises(InvalidArgumentError, match="NaN"):
            roc_curve([0.9, np.nan, 0.1], [True, True, False])

    def test_nan_on_a_masked_frame_ignored(self):
        points, _ = roc_curve([0.9, np.nan, 0.1], [True, True, False],
                              mask=[1, 0, 1])
        assert points == [(0.1, 0.5, 1.0), (0.9, 1.0, 1.0)]


def loop_roc_curve(posteriors, truth, mask=None):
    """The per-threshold sweep roc_curve replaced, one frame_metrics call
    per distinct posterior value, kept as its oracle."""
    p = np.asarray(posteriors, dtype=np.float64)
    truth = np.asarray(truth, dtype=bool)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        p, truth = p[mask], truth[mask]
    if not truth.any() or truth.all():
        raise InvalidArgumentError("ROC needs both classes in the truth")
    points = []
    for thr in np.unique(p):
        m = frame_metrics(p >= thr, truth)
        points.append((float(thr), m["precision"], m["recall"]))
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


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


# posteriors with many ties, both zeros and both infinities
POSTERIOR = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, np.inf,
                                       -np.inf]),
                      st.floats(0.0, 1.0))
FRAMES = st.lists(st.tuples(POSTERIOR, st.booleans(), st.booleans()),
                  min_size=2, max_size=80)


class TestRocAgainstLoop:
    @settings(max_examples=400, deadline=None)
    @given(frames=FRAMES, masked=st.booleans())
    def test_random_sweeps(self, frames, masked):
        post, truth, mask = map(list, zip(*frames))
        mask = mask if masked else None
        try:
            expected = loop_roc_curve(post, truth, mask)
        except InvalidArgumentError:
            with pytest.raises(InvalidArgumentError):
                roc_curve(post, truth, mask)
            return
        points, eer = roc_curve(post, truth, mask)
        assert points == expected[0]
        assert all(_same(eer[k], expected[1][k]) for k in eer)


class TestMatchSections:
    def test_exact_detection(self):
        truth = _tl((10, 50, "taan"))
        det = _tl((12, 49, "taan"))
        r = match_sections(det, truth)
        assert (r.exact, r.over_segmented, r.under_segmented,
                r.missed, r.false_alarm) == (1, 0, 0, 0, 0)
        assert r.boundary_deviations == [(2.0, 1.0)]

    def test_missed(self):
        truth = _tl((10, 50, "taan"))
        det = _tl((40, 55, "taan"))  # 10 s of 40 s covered
        r = match_sections(det, truth)
        assert r.missed == 1 and r.exact == 0

    def test_over_segmented(self):
        truth = _tl((10, 50, "taan"))
        det = _tl((10, 25, "taan"), (25, 28, "non-taan"), (28, 50, "taan"))
        r = match_sections(det, truth)
        assert r.over_segmented == 1 and r.exact == 0

    def test_under_segmented(self):
        truth = _tl((10, 50, "taan"), (60, 100, "taan"))
        det = _tl((10, 100, "taan"))
        r = match_sections(det, truth)
        assert r.under_segmented == 2

    def test_false_alarm(self):
        truth = _tl((10, 50, "taan"))
        det = _tl((11, 49, "taan"), (200, 240, "taan"))
        r = match_sections(det, truth)
        assert r.exact == 1 and r.false_alarm == 1

    def test_overlaps_sum_across_detections(self):
        # two detections each covering 30% retrieve the section together
        truth = _tl((0, 100, "taan"))
        det = _tl((0, 30, "taan"), (40, 70, "taan"))
        assert match_sections(det, truth).over_segmented == 1

    def test_identical_timelines_all_exact(self):
        truth = _tl((0, 40, "taan"), (60, 90, "non-taan"), (90, 130, "taan"))
        r = match_sections(truth, truth)
        assert r.exact == 2
        assert r.missed == r.false_alarm == 0
        assert all(d == (0.0, 0.0) for d in r.boundary_deviations)

    def test_truth_partition_identity(self):
        # every truth section lands in exactly one category
        truth = _tl((0, 40, "taan"), (50, 90, "taan"), (100, 140, "taan"))
        det = _tl((0, 39, "taan"), (41, 90, "taan"), (150, 190, "taan"))
        r = match_sections(det, truth)
        assert (r.exact + r.over_segmented + r.under_segmented
                + r.missed) == 3

    def test_shift_invariance(self):
        truth = _tl((10, 50, "taan"))
        det = _tl((12, 49, "taan"))
        shifted_t = _tl((1010, 1050, "taan"))
        shifted_d = _tl((1012, 1049, "taan"))
        assert (match_sections(det, truth).as_dict()
                == match_sections(shifted_d, shifted_t).as_dict())

    def test_non_taan_sections_ignored(self):
        truth = _tl((0, 40, "non-taan"), (40, 80, "instrumental"))
        det = _tl((0, 80, "non-taan"))
        r = match_sections(det, truth)
        assert r.as_dict()["exact"] == 0
        assert r.false_alarm == 0

    def test_table_lists_counts(self):
        r = match_sections(_tl((0, 10, "taan")), _tl((0, 10, "taan")))
        text = r.table()
        assert "Exact detection" in text and "False alarm" in text


class TestBoundaryDeviation:
    def test_stats(self):
        truth = _tl((10, 50, "taan"), (100, 140, "taan"))
        det = _tl((12, 49, "taan"), (100, 144, "taan"))
        dev = boundary_deviation(match_sections(det, truth))
        assert not dev["empty"]
        assert dev["mean_onset"] == pytest.approx(1.0)
        assert dev["max_onset"] == pytest.approx(2.0)
        assert dev["mean_offset"] == pytest.approx(2.5)
        assert dev["max_offset"] == pytest.approx(4.0)

    def test_empty(self):
        truth = _tl((10, 50, "taan"))
        det = _tl((200, 240, "taan"))
        dev = boundary_deviation(match_sections(det, truth))
        assert dev == {"empty": True}
