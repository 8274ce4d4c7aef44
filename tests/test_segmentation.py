"""Tests for posterior self-distance segmentation: SDM construction,
checkerboard novelty against a brute-force oracle and against the dense
matrix path it replaced, boundary picking, majority labeling, and
grouping rules.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taanseg import pipeline
from taanseg.errors import DataError, InvalidArgumentError, ParseError
from taanseg.mlp import PosteriorSeq
from taanseg.segmentation import (
    LABELS,
    Section,
    SectionTimeline,
    checkerboard_kernel,
    group_sections,
    label_segments,
    novelty,
    pick_boundaries,
    posterior_sdm,
    read_timeline,
    write_timeline,
)


def _post(p, mask=None):
    p = np.asarray(p, dtype=np.float64)
    if mask is None:
        mask = np.isfinite(p)
    return PosteriorSeq(p_taan=p, vocal_mask=np.asarray(mask, dtype=bool))


def dense_sdm(q):
    """The n x n matrix that posterior_sdm's vector generates, built as the
    dense path built it: sqrt(2) * |q_i - q_j|."""
    d = np.subtract.outer(q, q)
    return np.multiply(np.abs(d, out=d), np.sqrt(2.0), out=d)


def dense_novelty(sdm, half_width_s=5.0, frame_s=1.0, gaussian_taper=True):
    """The novelty of a dense SDM, as novelty computed it from the n x n
    matrix, kept as its oracle."""
    n = sdm.shape[0]
    ln = int(round(half_width_s / frame_s))
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


class TestSdm:
    def test_closed_form(self):
        seq = _post([0.0, 1.0, 0.5])
        q = posterior_sdm(seq)
        assert q.dtype == np.float64 and np.array_equal(q, [0.0, 1.0, 0.5])
        d = dense_sdm(q)
        # ||(0,1)-(1,0)|| = sqrt(2); ||(0,1)-(0.5,0.5)|| = sqrt(0.5)
        assert d[0, 1] == pytest.approx(np.sqrt(2.0))
        assert d[0, 2] == pytest.approx(np.sqrt(0.5))
        assert np.allclose(np.diag(d), 0.0)
        assert np.allclose(d, d.T)

    def test_non_vocal_placeholder(self):
        seq = _post([0.9, np.nan, 0.9], mask=[True, False, True])
        q = posterior_sdm(seq)
        assert q[1] == 0.5 and np.isnan(seq.p_taan[1])
        d = dense_sdm(q)
        assert d[0, 1] == pytest.approx(np.sqrt(2.0) * 0.4)
        assert d[0, 2] == pytest.approx(0.0)

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            posterior_sdm(_post([0.5]))

    def test_segmentation_memory_linear_in_length(self):
        # the dense n x n path peaked at 2.9 MiB at 600 frames and 1582 MiB
        # at 14400; the SDM's vector grows 8 bytes a frame
        rng = np.random.default_rng(0)
        peaks = {}
        for n in (600, 14400):
            p = np.repeat(rng.uniform(size=n // 60), 60)
            seq = _post(p, mask=rng.uniform(size=n) >= 0.2)
            decisions = p >= 0.5
            tracemalloc.start()
            try:
                pipeline.segment_posteriors(seq, decisions)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[14400] < 2 ** 20
        # 24 times the frames: at most 24 times the memory, not 576 times
        assert peaks[14400] <= 24 * peaks[600]


class TestKernel:
    def test_signs(self):
        k = checkerboard_kernel(2, gaussian_taper=False)
        assert k.shape == (4, 4)
        assert np.all(k[:2, :2] == -1) and np.all(k[2:, 2:] == -1)
        assert np.all(k[:2, 2:] == 1) and np.all(k[2:, :2] == 1)

    def test_taper_symmetry_and_center(self):
        k = checkerboard_kernel(3)
        assert np.allclose(np.abs(k), np.abs(k)[::-1, ::-1])
        # center 2x2 cells have offset 0.5 in each axis, sigma = 1.5
        expected = np.exp(-2 * 0.5**2 / (2 * 1.5**2))
        assert abs(k[2, 2]) == pytest.approx(expected)

    def test_taper_decays(self):
        k = checkerboard_kernel(4)
        assert abs(k[0, 0]) < abs(k[3, 3])


class TestNovelty:
    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(size=40)
        q = posterior_sdm(_post(p))
        nov = novelty(q, half_width_s=4.0, frame_s=1.0)

        sdm = dense_sdm(q)
        kernel = checkerboard_kernel(4)
        # interior frames: plain kernel correlation, no cropping
        for t in range(4, 36):
            val = np.sum(kernel * sdm[t - 4 : t + 4, t - 4 : t + 4])
            assert nov[t] == pytest.approx(val, abs=1e-9)

    def test_step_peak_location(self):
        p = np.r_[np.full(20, 0.1), np.full(20, 0.9)]
        nov = novelty(posterior_sdm(_post(p)), half_width_s=5.0)
        assert int(np.argmax(nov)) == 20

    def test_constant_posteriors_zero(self):
        nov = novelty(posterior_sdm(_post(np.full(30, 0.7))), half_width_s=5.0)
        assert np.allclose(nov, 0.0)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(3)
        q = posterior_sdm(_post(rng.uniform(size=30)))
        a = novelty(q, half_width_s=3.0)
        b = novelty(2.0 * q, half_width_s=3.0)
        assert np.allclose(b, 2.0 * a)

    def test_kernel_larger_than_sdm(self):
        q = posterior_sdm(_post([0.1, 0.9, 0.5]))
        with pytest.raises(InvalidArgumentError):
            novelty(q, half_width_s=5.0)
        with pytest.raises(InvalidArgumentError):
            novelty(np.zeros(0), half_width_s=1.0)

    def test_dense_matrix_rejected(self):
        q = posterior_sdm(_post(np.linspace(0.0, 1.0, 30)))
        with pytest.raises(InvalidArgumentError, match="2-d"):
            novelty(dense_sdm(q), half_width_s=3.0)


class TestNoveltyAgainstDense:
    @pytest.mark.parametrize("n", [600, 3600])
    @pytest.mark.parametrize("half_width_s", [3.0, 5.0])
    @pytest.mark.parametrize("frame_s", [1.0, 0.5])
    @pytest.mark.parametrize("gaussian_taper", [True, False])
    def test_bit_identical(self, n, half_width_s, frame_s, gaussian_taper):
        rng = np.random.default_rng(n)
        p = rng.uniform(size=n)
        mask = rng.uniform(size=n) >= 0.2  # 20% of frames non-vocal
        p[~mask] = np.nan
        q = posterior_sdm(_post(p, mask))
        assert np.array_equal(
            novelty(q, half_width_s, frame_s, gaussian_taper),
            dense_novelty(dense_sdm(q), half_width_s, frame_s, gaussian_taper))

    @settings(max_examples=200, deadline=None)
    @given(p=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1),
                      min_size=2, max_size=40),
           half_width_s=st.floats(0.0, 20.0),
           frame_s=st.sampled_from([1.0, 0.5, 0.1]),
           gaussian_taper=st.booleans())
    def test_random(self, p, half_width_s, frame_s, gaussian_taper):
        q = posterior_sdm(_post(p))
        if 2 * round(half_width_s / frame_s) > len(p):
            with pytest.raises(InvalidArgumentError):
                novelty(q, half_width_s, frame_s, gaussian_taper)
            return
        assert np.array_equal(
            novelty(q, half_width_s, frame_s, gaussian_taper),
            dense_novelty(dense_sdm(q), half_width_s, frame_s, gaussian_taper))


BAD_FRAME_S = [0.0, -1.0, np.inf, np.nan]
BAD_SECONDS = [-5.0, np.inf, np.nan]


class TestBadArguments:
    """Bad segmentation arguments from library callers raise
    InvalidArgumentError, not a bare Python error."""

    @pytest.mark.parametrize("frame_s", BAD_FRAME_S)
    def test_novelty_frame_s(self, frame_s):
        with pytest.raises(InvalidArgumentError, match="frame_s"):
            novelty(np.linspace(0.0, 1.0, 30), frame_s=frame_s)

    @pytest.mark.parametrize("half_width_s", BAD_SECONDS)
    def test_novelty_half_width(self, half_width_s):
        with pytest.raises(InvalidArgumentError, match="half_width_s"):
            novelty(np.linspace(0.0, 1.0, 30), half_width_s=half_width_s)

    @pytest.mark.parametrize("frame_s", BAD_FRAME_S)
    def test_pick_boundaries_frame_s(self, frame_s):
        with pytest.raises(InvalidArgumentError, match="frame_s"):
            pick_boundaries(np.linspace(0.0, 1.0, 30), frame_s=frame_s)

    @pytest.mark.parametrize("neighborhood_s", BAD_SECONDS)
    def test_pick_boundaries_neighborhood(self, neighborhood_s):
        with pytest.raises(InvalidArgumentError, match="neighborhood_s"):
            pick_boundaries(np.linspace(0.0, 1.0, 30),
                            neighborhood_s=neighborhood_s)

    def test_checked_before_an_all_zero_novelty_returns(self):
        with pytest.raises(InvalidArgumentError):
            pick_boundaries(np.zeros(20), frame_s=0.0)

    def test_huge_ratio_is_clamped_not_overflowed(self):
        # 1e300 s over 1e-10 s frames is inf frames: clamped, as 1e300 is
        nov = np.r_[np.zeros(10), 1.0, np.zeros(10)]
        assert pick_boundaries(nov, neighborhood_s=1e300, frame_s=1e-10) \
            == [10]
        with pytest.raises(InvalidArgumentError, match="smaller than"):
            novelty(nov, half_width_s=1e300, frame_s=1e-10)


class TestPickBoundaries:
    def test_single_peak(self):
        nov = np.zeros(30)
        nov[12] = 1.0
        assert pick_boundaries(nov, neighborhood_s=5.0) == [12]

    def test_sub_threshold_rejected(self):
        nov = np.zeros(40)
        nov[10] = 1.0
        nov[30] = 0.2  # below 0.3 of the max
        assert pick_boundaries(nov, rel_threshold=0.3) == [10]

    def test_close_peaks_suppressed(self):
        nov = np.zeros(40)
        nov[10] = 1.0
        nov[13] = 0.9  # inside the +/- 5 window around 10
        assert pick_boundaries(nov, neighborhood_s=5.0) == [10]

    def test_tie_resolves_to_smaller_index(self):
        nov = np.zeros(40)
        nov[10] = 1.0
        nov[12] = 1.0
        assert pick_boundaries(nov, neighborhood_s=5.0) == [10]

    def test_all_zero(self):
        assert pick_boundaries(np.zeros(20)) == []

    def test_non_finite_rejected(self):
        nov = np.zeros(10)
        nov[3] = np.nan
        with pytest.raises(InvalidArgumentError):
            pick_boundaries(nov)


class TestLabelSegments:
    def test_majority_rule(self):
        dec = np.array([1, 1, 1, 0, 0, 0], dtype=bool)
        voc = np.ones(6, dtype=bool)
        tl = label_segments([3], dec, voc)
        assert [s.label for s in tl] == ["taan", "non-taan"]
        assert (tl.sections[0].start_s, tl.sections[0].end_s) == (0.0, 3.0)

    def test_exact_half_is_non_taan(self):
        dec = np.array([1, 1, 0, 0], dtype=bool)
        voc = np.ones(4, dtype=bool)
        tl = label_segments([], dec, voc)
        assert [s.label for s in tl] == ["non-taan"]

    def test_no_vocal_frames_instrumental(self):
        dec = np.zeros(5, dtype=bool)
        voc = np.zeros(5, dtype=bool)
        tl = label_segments([], dec, voc)
        assert [s.label for s in tl] == ["instrumental"]

    def test_majority_over_vocal_frames_only(self):
        # 2 of 3 vocal frames are taan even though most frames are not
        dec = np.array([1, 1, 0, 0, 0, 0], dtype=bool)
        voc = np.array([1, 1, 1, 0, 0, 0], dtype=bool)
        tl = label_segments([], dec, voc)
        assert [s.label for s in tl] == ["taan"]

    def test_out_of_range_boundaries_ignored(self):
        dec = np.ones(4, dtype=bool)
        voc = np.ones(4, dtype=bool)
        tl = label_segments([0, 2, 4, 9], dec, voc)
        assert len(tl) == 2


class TestGrouping:
    def _tl(self, *spans):
        return SectionTimeline([Section(a, b, lab) for a, b, lab in spans])

    def test_short_vocal_gap_merged(self):
        tl = self._tl((0, 30, "taan"), (30, 49, "non-taan"),
                      (49, 80, "taan"))
        out = group_sections(tl)
        assert [s.label for s in out] == ["taan"]
        assert out.sections[0] == Section(0.0, 80.0, "taan")

    def test_long_vocal_gap_kept(self):
        tl = self._tl((0, 30, "taan"), (30, 51, "non-taan"),
                      (51, 80, "taan"))
        out = group_sections(tl)
        assert [s.label for s in out] == ["taan", "non-taan", "taan"]

    def test_instrumental_gap_limits(self):
        near = self._tl((0, 30, "taan"), (30, 79, "instrumental"),
                        (79, 100, "taan"))
        far = self._tl((0, 30, "taan"), (30, 81, "instrumental"),
                       (81, 100, "taan"))
        assert [s.label for s in group_sections(near)] == ["taan"]
        assert [s.label for s in group_sections(far)] == [
            "taan", "instrumental", "taan"]

    def test_mixed_gap_uses_vocal_limit(self):
        # 30 s gap with some vocal content: over the 20 s vocal limit
        tl = self._tl((0, 30, "taan"), (30, 45, "instrumental"),
                      (45, 60, "non-taan"), (60, 90, "taan"))
        out = group_sections(tl)
        assert [s.label for s in out] == [
            "taan", "instrumental", "non-taan", "taan"]

    def test_cascaded_merge(self):
        tl = self._tl((0, 20, "taan"), (20, 30, "non-taan"),
                      (30, 50, "taan"), (50, 60, "non-taan"),
                      (60, 80, "taan"))
        out = group_sections(tl)
        assert [s.label for s in out] == ["taan"]

    def test_idempotent(self):
        tl = self._tl((0, 30, "taan"), (30, 49, "non-taan"),
                      (49, 80, "taan"), (80, 140, "instrumental"),
                      (140, 170, "taan"))
        once = group_sections(tl)
        twice = group_sections(once)
        assert once.sections == twice.sections

    def test_span_preserved(self):
        tl = self._tl((0, 30, "taan"), (30, 40, "non-taan"),
                      (40, 70, "taan"), (70, 90, "instrumental"))
        out = group_sections(tl)
        assert out.span() == tl.span()

    def test_no_taans_unchanged(self):
        tl = self._tl((0, 30, "non-taan"), (30, 60, "instrumental"))
        out = group_sections(tl)
        assert out.sections == tl.sections


def loop_pick_boundaries(nov, neighborhood_s=5.0, rel_threshold=0.3,
                         frame_s=1.0):
    """The frame-by-frame picker pick_boundaries replaced, kept as its
    oracle."""
    nov = np.asarray(nov, dtype=np.float64)
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


def loop_group_sections(timeline, vocal_gap_s=20.0, instr_gap_s=50.0):
    """The restart-at-i merging loop group_sections replaced, kept as its
    oracle."""
    sections = list(timeline.sections)
    i = 0
    while i < len(sections):
        if sections[i].label != "taan":
            i += 1
            continue
        j = i + 1
        while j < len(sections) and sections[j].label != "taan":
            j += 1
        if j >= len(sections):
            break
        gap = sections[i + 1:j]
        dur = sum(s.end_s - s.start_s for s in gap)
        vocal = any(s.label != "instrumental" for s in gap)
        if dur <= (vocal_gap_s if vocal else instr_gap_s):
            merged = Section(sections[i].start_s, sections[j].end_s, "taan")
            sections = sections[:i] + [merged] + sections[j + 1:]
        else:
            i = j
    return SectionTimeline(sections)


# novelty values with many ties, zeros and negatives
NOVELTY = st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0]),
                             st.floats(-2.0, 2.0)), max_size=60)
NEIGHBORHOOD = st.one_of(st.integers(0, 8).map(float), st.floats(0.0, 9.0),
                         st.just(1e300))


class TestPickBoundariesAgainstLoop:
    @settings(max_examples=400, deadline=None)
    @given(nov=NOVELTY, neighborhood_s=NEIGHBORHOOD,
           rel_threshold=st.floats(0.0, 1.0),
           frame_s=st.sampled_from([1.0, 0.5, 0.1]))
    def test_random_novelty(self, nov, neighborhood_s, rel_threshold, frame_s):
        assert pick_boundaries(nov, neighborhood_s, rel_threshold, frame_s) \
            == loop_pick_boundaries(nov, neighborhood_s, rel_threshold, frame_s)

    @pytest.mark.parametrize("w", range(0, 9))
    def test_plateaus(self, w):
        nov = np.repeat([0.0, 1.0, 1.0, 0.5, 1.0, -1.0, 2.0, 2.0], 3)
        for rel in (0.0, 0.5, 1.0):
            assert pick_boundaries(nov, float(w), rel) \
                == loop_pick_boundaries(nov, float(w), rel)

    def test_huge_neighborhood_is_the_whole_sequence(self):
        nov = np.random.default_rng(0).normal(size=3600)
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            out = pick_boundaries(nov, neighborhood_s=1e300)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the windows stay views: an (n, 2n + 1) copy would take 207 MB here
        assert peak < 2 ** 20 and elapsed < 1.0
        assert out == pick_boundaries(nov, neighborhood_s=len(nov)) == [
            int(np.argmax(nov))]
        assert out == loop_pick_boundaries(nov, neighborhood_s=1e300)


def _timeline(durations, labels, start=0.0):
    ends = start + np.cumsum(durations)
    starts = np.r_[start, ends[:-1]]
    return SectionTimeline([Section(float(a), float(b), lab)
                            for a, b, lab in zip(starts, ends, labels)])


def _near(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


# durations that land a gap (one or two sections) just below, at and just
# above either limit
DURATIONS = st.one_of(
    st.sampled_from(_near(20.0) + _near(50.0) + _near(10.0) + _near(25.0)
                    + [1.0, 5.0, 30.0]),
    st.floats(0.01, 80.0))
LABEL_RUNS = st.lists(st.tuples(DURATIONS, st.sampled_from(LABELS)),
                      max_size=25)


class TestGroupingAgainstLoop:
    @settings(max_examples=400, deadline=None)
    @given(runs=LABEL_RUNS, start=st.sampled_from([0.0, 0.1, 3600.0]))
    def test_random_runs(self, runs, start):
        tl = _timeline([d for d, _ in runs], [lab for _, lab in runs], start)
        assert group_sections(tl).sections == loop_group_sections(tl).sections

    @settings(max_examples=200, deadline=None)
    @given(runs=LABEL_RUNS, vocal_gap_s=st.sampled_from([0.0, 10.0, 20.0]),
           instr_gap_s=st.sampled_from([0.0, 25.0, 50.0, 1e300]))
    def test_other_limits(self, runs, vocal_gap_s, instr_gap_s):
        tl = _timeline([d for d, _ in runs], [lab for _, lab in runs])
        assert group_sections(tl, vocal_gap_s, instr_gap_s).sections \
            == loop_group_sections(tl, vocal_gap_s, instr_gap_s).sections

    @pytest.mark.parametrize("gap_label, limit", [("non-taan", 20.0),
                                                  ("instrumental", 50.0)])
    @pytest.mark.parametrize("side", [0, 1, 2])
    def test_gap_at_the_limit(self, gap_label, limit, side):
        gap = _near(limit)[side]
        # a cascade: three taans, each gap split into two halves
        tl = _timeline([10.0, gap / 2, gap / 2, 10.0, gap, 10.0],
                       ["taan", gap_label, gap_label, "taan", gap_label,
                        "taan"])
        out = group_sections(tl)
        assert out.sections == loop_group_sections(tl).sections
        s = tl.sections
        first = s[1].end_s - s[1].start_s + s[2].end_s - s[2].start_s <= limit
        second = s[4].end_s - s[4].start_s <= limit
        assert len(out) == 6 - 3 * first - 2 * second


class TestTimelineValidation:
    def test_rejects_overlap(self):
        with pytest.raises(InvalidArgumentError):
            SectionTimeline([Section(0, 10, "taan"), Section(5, 15, "taan")])

    def test_rejects_empty_section(self):
        with pytest.raises(InvalidArgumentError):
            SectionTimeline([Section(5, 5, "taan")])

    def test_rejects_unknown_label(self):
        with pytest.raises(InvalidArgumentError):
            SectionTimeline([Section(0, 5, "chorus")])


class TestTimelineIo:
    def test_round_trip(self, tmp_path):
        tl = SectionTimeline([
            Section(0.0, 30.5, "taan"),
            Section(30.5, 60.0, "non-taan"),
            Section(60.0, 100.25, "instrumental"),
        ])
        path = tmp_path / "timeline.tsv"
        write_timeline(tl, path)
        back = read_timeline(path)
        assert back.sections == tl.sections

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0.0\t10.0\ttaan\nnot-a-number\t20.0\ttaan\n")
        with pytest.raises(ParseError) as exc:
            read_timeline(path)
        assert exc.value.line == 2

    def test_unknown_label_reports_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0.0\t10.0\ttaan\n10.0\t20.0\tchorus\n")
        with pytest.raises(DataError) as exc:
            read_timeline(path)
        assert (exc.value.path, exc.value.line) == (path, 2)
        assert str(exc.value) == f"{path}:2: unknown label 'chorus'"

    def test_overlap_names_path(self, tmp_path):
        path = tmp_path / "overlap.tsv"
        path.write_text("0.0\t10.0\ttaan\n5.0\t20.0\tnon-taan\n")
        with pytest.raises(DataError) as exc:
            read_timeline(path)
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: sections overlap or are unsorted"

    def test_first_bad_row_is_reported(self, tmp_path):
        # an unknown label on line 2 before a time that is not finite on 3
        path = tmp_path / "two.tsv"
        path.write_text("0.0\t10.0\ttaan\n10.0\t20.0\tTaan\n"
                        "20.0\tinf\ttaan\n")
        with pytest.raises(DataError, match=r"two.tsv:2: unknown label 'Taan'"):
            read_timeline(path)
