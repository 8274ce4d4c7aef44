"""The F0 search's shortcuts against the plain numpy they replace.

- The voicing count against `best_sum > scale * np.median(mags, axis=0)`,
  as a property over blocks with ties, zeros, subnormals, inf and NaN,
  and negative values besides, which magnitudes never are.
- The slice-maximum table, built incrementally, against one np.max per
  slice; the flat-index range argmax against a 2-D gather.
- The cached search plan: read-only, and keyed on every input.

`python tests/test_f0_search.py [n]` runs the voicing property on n
random blocks (default 20000); tier-1 runs a fixed sample of it.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from taanseg import vocal
from taanseg.dsp import AudioClip, LogSpectrogram, log_spectrogram

SUBNORMAL = 2.2250738585072014e-308 / 3
# values a block is drawn from; few of them per block, so bins tie
SPECIAL = [0.0, 5e-324, SUBNORMAL, 1e-300, 0.5, 1.0, 3.0, 1e300, np.inf,
           -0.0, -1.0, -np.inf]
VALUE = st.one_of(st.sampled_from(SPECIAL),
                  st.floats(0.0, np.inf, allow_nan=False))
# the count's range of scales; a scale that is not finite and > 0
# takes the median
SCALE = st.one_of(st.floats(1e-300, 1e300),
                  st.integers(-300, 300).map(lambda e: 10.0 ** e),
                  st.sampled_from([0.0, -2.0, 5e-324, np.inf]))


def median_voiced(mags, best_sum, scale):
    """The voicing rule as the median states it."""
    return best_sum > scale * np.median(mags, axis=0)


@st.composite
def voicing_blocks(draw):
    """(mags, best_sum, scale) of a block with 1-140 bins, so that the
    count runs over one to three chunks of vocal.VOICING_ROWS bins."""
    n_bins = draw(st.integers(1, 140))
    n_frames = draw(st.integers(1, 6))
    pool = np.array(draw(st.lists(VALUE, min_size=1, max_size=5)))
    pick = draw(hnp.arrays(np.intp, (n_bins, n_frames),
                           elements=st.integers(0, len(pool) - 1)))
    mags = pool[pick]
    for _ in range(draw(st.integers(0, 2))):
        # a single NaN bin in a frame whose best_sum stays finite
        mags[draw(st.integers(0, n_bins - 1)),
             draw(st.integers(0, n_frames - 1))] = np.nan
    if draw(st.booleans()):
        scale = np.full(n_frames, draw(SCALE))
    else:
        scale = np.array(draw(st.lists(SCALE, min_size=n_frames,
                                       max_size=n_frames)))
    with np.errstate(all="ignore"):
        bound = scale * np.median(mags, axis=0)
        near = zip(bound, np.nextafter(bound, np.inf),
                   np.nextafter(bound, -np.inf))
    best_sum = np.array([draw(st.one_of(
        st.sampled_from(b), st.sampled_from([-np.inf, np.inf, 0.0]), VALUE))
        for b in near])
    return mags, best_sum, scale


def check_voicing(block):
    mags, best_sum, scale = block
    with np.errstate(all="ignore"):
        expected = median_voiced(mags, best_sum, scale)
        voiced = vocal._voiced(mags, best_sum, scale)
    assert np.array_equal(voiced, expected)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(block=voicing_blocks())
def test_voicing_count_is_the_median_rule(block):
    check_voicing(block)


class TestVoicingCount:
    def test_bound_equal_to_the_median_product(self):
        # best_sum exactly at scale * median is not above it; one ulp more is
        mags = np.array([[1.0], [3.0], [3.0], [7.0], [2.0]])
        scale = np.array([0.1])
        at = scale * 3.0
        assert not vocal._voiced(mags, at, scale)[0]
        assert vocal._voiced(mags, np.nextafter(at, np.inf), scale)[0]

    def test_one_nan_bin_keeps_the_frame_unvoiced(self):
        # four of five bins are below the bound, so a count that skipped
        # the NaN would call the frame voiced; the median is NaN
        mags = np.array([[1.0, 1.0], [1.0, 1.0], [np.nan, 1.0],
                         [1.0, 1.0], [1.0, 1.0]])
        voiced = vocal._voiced(mags, np.array([10.0, 10.0]),
                               np.array([1.0, 1.0]))
        assert voiced.tolist() == [False, True]

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf])
    def test_scales_that_take_the_median(self, scale):
        # these scales take the median; at scale 0, 0 * +-inf is NaN at
        # both ends of the sorted bins, so a count would find one bin of
        # five below best_sum, where the median's product 0 is below it
        mags = np.array([[-np.inf], [np.inf], [1.0], [-np.inf], [np.inf]])
        best_sum, scale = np.array([1.0]), np.array([scale])
        with np.errstate(invalid="ignore"):
            assert np.array_equal(vocal._voiced(mags, best_sum, scale),
                                  median_voiced(mags, best_sum, scale))

    def test_no_frames(self):
        assert vocal._voiced(np.empty((5, 0)), np.empty(0),
                             np.empty(0)).shape == (0,)


def old_range_argmax(a, lo, hi, frames):
    """The 2-D masked gather the flat-index one replaced."""
    rows = lo[:, None] + np.arange((hi - lo).max())
    vals = a[np.minimum(rows, a.shape[0] - 1), frames[:, None]]
    vals[rows >= hi[:, None]] = -np.inf
    return lo + np.argmax(vals, axis=1)


class TestRangeArgmax:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_the_2d_gather(self, order):
        rng = np.random.default_rng(5)
        # small integers tie often; ranges run up to the top bin, where
        # the gather's rows are clipped
        a = np.asarray(rng.integers(0, 4, (37, 50)).astype(float), order=order)
        a[:, 7] = np.inf
        n = 400
        lo = rng.integers(0, 37, n)
        hi = np.minimum(lo + rng.integers(1, 12, n), 37)
        hi[::5] = 37
        frames = rng.integers(0, 50, n)
        got = vocal._range_argmax(a, lo, hi, frames)
        assert np.array_equal(got, old_range_argmax(a, lo, hi, frames))
        for i in range(n):
            seg = a[lo[i]:hi[i], frames[i]]
            assert got[i] == lo[i] + np.flatnonzero(seg == seg.max())[0]


class TestSliceMaxima:
    @staticmethod
    def oracle(mags, keys):
        return [np.max(mags[a:b], axis=0) for a, b in keys]

    def test_default_plan(self):
        rng = np.random.default_rng(6)
        mags = np.exp(rng.standard_normal((513, 40)))
        mags[:, 3] = np.nan
        mags[::7, 4] = np.nan
        mags[:, 5] = np.inf
        mags[200:260, 6] = np.inf
        mags[100, 8] = np.nan
        plan = vocal._search_plan(513, 8000 / 1024, 80.0, 600.0, 10.0,
                                  30.0, 10)
        # most keys that share a start with the key before them
        starts = [a for a, _ in plan.keys]
        assert sum(p == q for p, q in zip(starts, starts[1:])) > 300
        table = vocal._slice_maxima(mags, plan.keys)
        assert len(table) == len(plan.keys) + 1
        for row, ref in zip(table, self.oracle(mags, plan.keys)):
            assert np.array_equal(row, ref, equal_nan=True)
        assert not table[-1].any()

    def test_keys_growing_by_several_bins(self):
        rng = np.random.default_rng(7)
        mags = rng.random((30, 9))
        mags[4, 2] = np.nan
        mags[12, 3] = np.inf
        keys = ((0, 1), (0, 5), (0, 6), (2, 3), (2, 13), (2, 30), (29, 30))
        table = vocal._slice_maxima(mags, keys)
        for row, ref in zip(table, self.oracle(mags, keys)):
            assert np.array_equal(row, ref, equal_nan=True)


PLAN_ARGS = (513, 8000 / 1024, 80.0, 600.0, 10.0, 30.0, 10)


class TestSearchPlan:
    def test_read_only(self):
        plan = vocal._search_plan(*PLAN_ARGS)
        for a in (plan.lo, plan.hi, plan.usable, plan.weight_sum, plan.rows):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1
        with pytest.raises(AttributeError):
            plan.keys = ()

    @pytest.mark.parametrize("k, value", [
        (0, 401), (1, 7.0), (2, 81.0), (3, 590.0), (4, 11.0), (5, 25.0),
        (6, 9)])
    def test_keyed_on_every_input(self, k, value):
        args = list(PLAN_ARGS)
        args[k] = value
        plan = vocal._search_plan(*args)
        assert plan is vocal._search_plan(*args)
        assert plan is not vocal._search_plan(*PLAN_ARGS)

    def test_alternating_configs_and_bin_counts(self):
        # each (config, bin count) tracks as with a plan built afresh
        t = np.arange(3 * 8000) / 8000
        f_inst = 150.0 * 2.0 ** (np.sin(2 * np.pi * 0.5 * t))
        phase = 2 * np.pi * np.cumsum(f_inst) / 8000
        x = 0.3 * sum(np.sin(h * phase) / h for h in range(1, 7))
        full = log_spectrogram(AudioClip(samples=x, sample_rate=8000),
                               0.04, 0.01, 1024)
        specs = [full, LogSpectrogram(values=full.values[:150].copy(),
                                      bin_hz=full.bin_hz, hop_s=0.01)]
        configs = [{}, dict(f_min=100.0, grid_cents=7.0, tol_cents=20.0,
                            n_harmonics=6)]
        cases = [(s, c) for s in specs for c in configs]
        fresh = []
        for spec, cfg in cases:
            vocal._search_plan.cache_clear()
            fresh.append(vocal.detect_f0_baseline(spec, **cfg).f0_hz)
        assert len({f.tobytes() for f in fresh}) == len(cases)
        for _ in range(2):
            for (spec, cfg), ref in zip(cases, fresh):
                assert np.array_equal(
                    vocal.detect_f0_baseline(spec, **cfg).f0_hz, ref)


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    settings(max_examples=n, deadline=None, database=None)(
        given(block=voicing_blocks())(check_voicing))()
    print(f"voicing count: {n} blocks agree with the median rule")
