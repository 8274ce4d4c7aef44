"""Tests for posterior self-distance segmentation: SDM construction,
checkerboard novelty against a brute-force oracle, boundary picking,
majority labeling, and grouping rules.
"""

import tracemalloc

import numpy as np
import pytest

from taanseg.errors import DataError, InvalidArgumentError, ParseError
from taanseg.mlp import PosteriorSeq
from taanseg.segmentation import (
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


class TestSdm:
    def test_closed_form(self):
        seq = _post([0.0, 1.0, 0.5])
        d = posterior_sdm(seq)
        # ||(0,1)-(1,0)|| = sqrt(2); ||(0,1)-(0.5,0.5)|| = sqrt(0.5)
        assert d[0, 1] == pytest.approx(np.sqrt(2.0))
        assert d[0, 2] == pytest.approx(np.sqrt(0.5))
        assert np.allclose(np.diag(d), 0.0)
        assert np.allclose(d, d.T)

    def test_non_vocal_placeholder(self):
        seq = _post([0.9, np.nan, 0.9], mask=[True, False, True])
        d = posterior_sdm(seq)
        assert d[0, 1] == pytest.approx(np.sqrt(2.0) * 0.4)
        assert d[0, 2] == pytest.approx(0.0)

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            posterior_sdm(_post([0.5]))

    def test_one_matrix_of_memory(self):
        # 2000 frames: the n x n float64 result is 32 MB, and no second
        # matrix of differences is held beside it
        n = 2000
        p = np.random.default_rng(0).uniform(size=n)
        tracemalloc.start()
        try:
            d = posterior_sdm(_post(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(d, np.sqrt(2.0) * np.abs(p[:, None] - p))
        assert peak <= 1.2 * n * n * 8


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
        sdm = posterior_sdm(_post(p))
        nov = novelty(sdm, half_width_s=4.0, frame_s=1.0)

        kernel = checkerboard_kernel(4)
        # interior frames: plain kernel correlation, no cropping
        for t in range(4, 36):
            val = np.sum(kernel * sdm[t - 4 : t + 4, t - 4 : t + 4])
            assert nov[t] == pytest.approx(val, abs=1e-9)

    def test_step_peak_location(self):
        p = np.r_[np.full(20, 0.1), np.full(20, 0.9)]
        sdm = posterior_sdm(_post(p))
        nov = novelty(sdm, half_width_s=5.0)
        assert int(np.argmax(nov)) == 20

    def test_constant_posteriors_zero(self):
        sdm = posterior_sdm(_post(np.full(30, 0.7)))
        nov = novelty(sdm, half_width_s=5.0)
        assert np.allclose(nov, 0.0)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(3)
        sdm = posterior_sdm(_post(rng.uniform(size=30)))
        a = novelty(sdm, half_width_s=3.0)
        b = novelty(2.0 * sdm, half_width_s=3.0)
        assert np.allclose(b, 2.0 * a)

    def test_kernel_larger_than_sdm(self):
        sdm = posterior_sdm(_post([0.1, 0.9, 0.5]))
        with pytest.raises(InvalidArgumentError):
            novelty(sdm, half_width_s=5.0)


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
