"""Tests for the spectrogram-patch CNN: patch construction, the forward
pass against a naive loop oracle, gradients against central differences,
the two-stage training entry point, and segmentation with a CNN model.
"""

import tracemalloc

import numpy as np
import pytest

from taanseg import cnn, mlp
from taanseg.cnn import (
    PATCH_BINS,
    PATCH_FRAMES,
    SHAPE_CHAIN,
    CnnModel,
    _conv_backward,
    _conv_stack_forward,
    _conv_valid,
    _pool2,
    _pool2_backward,
    _stage1_grads,
    cnn_init,
    cnn_posteriors,
    cnn_train,
    export_channel_maps,
    make_patches,
    patch_spectrogram,
    spectrogram_band_stats,
)
from taanseg.config import PipelineConfig
from taanseg.dsp import AudioClip, LogSpectrogram, log_spectrogram, resample
from taanseg.errors import EmptyInputError, InternalError, InvalidArgumentError
from taanseg.mlp import PosteriorSeq
from taanseg.pipeline import (classify_audio, segment_audio,
                              segment_posteriors)
from taanseg.synth import ConcertScript, SectionSpec, synth_concert


def _tiny_model(seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    return CnnModel(
        conv1_w=rng.normal(scale=scale, size=(10, 1, 7, 7)),
        conv1_b=rng.normal(scale=0.05, size=10),
        conv2_w=rng.normal(scale=scale, size=(10, 10, 3, 3)),
        conv2_b=rng.normal(scale=0.05, size=10),
        fc_w=rng.normal(scale=0.02, size=(2100, 300)),
        fc_b=np.zeros(300),
        out_w=rng.normal(scale=0.1, size=(300, 2)),
        out_b=np.zeros(2),
        band_mean=np.zeros(PATCH_BINS),
        band_std=np.ones(PATCH_BINS),
    )


def _forward(model, xb):
    """Posteriors (B, 2) of a patch batch (B, 1, 94, 50) in its own dtype's
    conv stack: cnn_posteriors, short of the float32 cast and column 1."""
    head = mlp.MlpModel(model.fc_w, model.fc_b, model.out_w, model.out_b)
    return mlp.mlp_forward(head, cnn._features(model, xb))


def _rand_patch(seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(PATCH_BINS, PATCH_FRAMES))


class TestPatches:
    def _spec(self, seconds=3.0, freq=400.0):
        rate = 8000
        t = np.arange(int(seconds * rate)) / rate
        clip = AudioClip(0.3 * np.sin(2 * np.pi * freq * t), rate)
        return log_spectrogram(clip, win_s=0.04, hop_s=0.02, n_dft=1024)

    def test_chunking(self):
        spec = self._spec(seconds=3.0)
        patches, (mean, std) = make_patches(spec)
        assert len(patches) == spec.n_frames // PATCH_FRAMES
        assert patches.shape == (len(patches), PATCH_BINS, PATCH_FRAMES)
        assert mean.shape == (PATCH_BINS,) and std.shape == (PATCH_BINS,)

    def test_band_normalization(self):
        spec = self._spec(seconds=4.0)
        _, (mean, std) = make_patches(spec)
        bands = spec.values[:PATCH_BINS]
        normed = (bands - mean[:, None]) / std[:, None]
        assert np.allclose(normed.mean(axis=1), 0.0, atol=1e-7)

    def test_band_stats_pool_every_spectrogram(self):
        # pooled from per-spectrogram counts, means and squared deviations:
        # within 1e-12 relative of the statistics of the concatenation
        specs = [self._spec(3.0, 400.0), self._spec(2.0, 700.0),
                 self._spec(0.05, 300.0), self._spec(1.3, 1000.0)]
        bands = np.concatenate([s.values[:PATCH_BINS] for s in specs], axis=1)
        mean, std = spectrogram_band_stats(specs)
        np.testing.assert_allclose(mean, bands.mean(axis=1), rtol=1e-12)
        np.testing.assert_allclose(
            std, np.sqrt(np.maximum(bands.var(axis=1), 1e-12)), rtol=1e-12)

    def test_band_stats_of_one_spectrogram_are_numpys(self):
        # bit for bit numpy's mean and var, also beside frameless ones
        spec = self._spec(3.0, 400.0)
        bands = spec.values[:PATCH_BINS]
        frameless = LogSpectrogram(np.zeros((PATCH_BINS, 0)), spec.bin_hz,
                                   spec.hop_s)
        for specs in ([spec], [frameless, spec, frameless]):
            mean, std = spectrogram_band_stats(specs)
            np.testing.assert_array_equal(mean, bands.mean(axis=1))
            np.testing.assert_array_equal(
                std, np.sqrt(np.maximum(bands.var(axis=1), 1e-12)))

    def test_band_stats_make_no_concatenated_copy(self):
        # two concerts' bands (2 x 2.2 MB); a concatenation would hold both
        # again, and its var a same-size temporary
        rng = np.random.default_rng(0)
        specs = [LogSpectrogram(rng.normal(size=(PATCH_BINS, n)), 8000 / 1024,
                                0.02) for n in (3000, 2900)]
        size = sum(s.values.nbytes for s in specs)
        tracemalloc.start()
        try:
            spectrogram_band_stats(specs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * size

    def test_tone_row_with_unit_stats(self):
        # With identity band stats the 400 Hz ridge sits at bin
        # round(400 / (8000/1024)) = 51, which is inside the patch band.
        spec = self._spec(seconds=2.0, freq=400.0)
        patches, _ = make_patches(
            spec, band_stats=(np.zeros(PATCH_BINS), np.ones(PATCH_BINS))
        )
        row = np.argmax(patches[0].mean(axis=1))
        assert row == 51

    def test_rejects_wrong_configuration(self):
        rate = 16000
        t = np.arange(rate) / rate
        clip = AudioClip(np.sin(2 * np.pi * 300 * t), rate)
        spec = log_spectrogram(clip, win_s=0.04, hop_s=0.02, n_dft=1024)
        with pytest.raises(InvalidArgumentError):
            make_patches(spec)

    def test_rejects_bad_band_stats(self):
        spec = self._spec(seconds=2.0)
        with pytest.raises(InvalidArgumentError):
            make_patches(spec, band_stats=(np.zeros(3), np.ones(3)))

    @pytest.mark.parametrize("given_stats", [False, True])
    def test_matches_slicing_the_normalized_spectrogram(self, given_stats):
        # the old construction: normalize all bands at once in float64, then
        # slice patch k out as frames 50k..50k+49; float32 patches are those
        # values rounded once (21 patches: two normalizing chunks and a part)
        spec = self._spec(seconds=21.3)
        stats = None
        if given_stats:
            rng = np.random.default_rng(1)
            stats = (rng.normal(size=PATCH_BINS),
                     rng.uniform(0.5, 2.0, size=PATCH_BINS))
        patches, (mean, std) = make_patches(spec, band_stats=stats)
        normed = spec.values[:PATCH_BINS] - mean[:, None]
        normed /= std[:, None]
        assert patches.dtype == np.float32 and patches.flags.c_contiguous
        assert patches.shape == (21, PATCH_BINS, PATCH_FRAMES)
        for k in range(21):
            np.testing.assert_array_equal(
                patches[k], normed[:, PATCH_FRAMES * k : PATCH_FRAMES * (k + 1)]
                .astype(np.float32))

    def test_patch_validation(self):
        # patches are checked once, where cnn_posteriors, cnn_train and
        # export_channel_maps take them in
        model = _tiny_model()
        stats = (np.zeros(PATCH_BINS), np.ones(PATCH_BINS))
        nan = np.zeros((2, PATCH_BINS, PATCH_FRAMES))
        nan[1, 3, 4] = np.nan
        inf = np.zeros((2, PATCH_BINS, PATCH_FRAMES))
        inf[0, 0, 0] = -np.inf
        empty = np.zeros((0, PATCH_BINS, PATCH_FRAMES))
        ragged = [np.zeros((PATCH_BINS, PATCH_FRAMES)), np.zeros((10, 10))]
        for bad, error in ((np.zeros((2, 10, 10)), InvalidArgumentError),
                           (ragged, InvalidArgumentError),
                           (np.zeros(PATCH_BINS * PATCH_FRAMES),
                            InvalidArgumentError),
                           (nan, InvalidArgumentError),
                           (inf, InvalidArgumentError),
                           (empty, EmptyInputError)):
            with pytest.raises(error):
                cnn_posteriors(model, bad)
            with pytest.raises(error):
                cnn_train(bad, [0, 1], stats, epochs=1)
        for patch in (np.zeros((10, 10)), np.zeros((PATCH_BINS, 0)), nan[1],
                      np.zeros((1, PATCH_BINS, PATCH_FRAMES)),
                      [np.zeros(PATCH_FRAMES), np.zeros(10)]):
            with pytest.raises(InvalidArgumentError):
                export_channel_maps(model, patch, channel=0)

    def test_too_short_for_a_patch(self):
        patches, _ = make_patches(self._spec(seconds=0.5))
        assert patches.shape == (0, PATCH_BINS, PATCH_FRAMES)


class TestPatchSpectrogram:
    @pytest.mark.parametrize("rate", [8000, 44100])
    def test_lowest_bands_of_the_whole_spectrogram(self, rate):
        # 70 s at 8 kHz is 3499 frames: one full dsp.FRAME_BLOCK and a
        # partial one
        rng = np.random.default_rng(rate)
        clip = AudioClip(rng.uniform(-0.5, 0.5, size=70 * rate), rate)
        whole = log_spectrogram(resample(clip, 8000), win_s=0.04, hop_s=0.02,
                                n_dft=1024)
        spec = patch_spectrogram(clip)
        assert spec.values.flags.c_contiguous
        assert (spec.bin_hz, spec.hop_s) == (whole.bin_hz, whole.hop_s)
        np.testing.assert_array_equal(spec.values, whole.values[:PATCH_BINS])

    def test_memory_of_ten_minutes(self):
        # the whole 513-bin spectrogram of 10 minutes is 123 MB; the bands
        # kept are 22.6 MB, and each 8.4 MB block is freed after its copy
        clip = AudioClip(np.random.default_rng(0).uniform(
            -0.5, 0.5, size=600 * 8000), 8000)
        tracemalloc.start()
        try:
            spec = patch_spectrogram(clip)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.values.shape == (PATCH_BINS, 29999)
        assert peak <= 60 * 2**20


class TestForward:
    def test_shape_chain(self):
        model = _tiny_model()
        xb = _rand_patch()[None, None, :, :]
        acts = _conv_stack_forward(model, xb)
        assert acts["a1"].shape[1:] == SHAPE_CHAIN[1]
        assert acts["p1"].shape[1:] == SHAPE_CHAIN[2]
        assert acts["a2"].shape[1:] == SHAPE_CHAIN[3]
        assert acts["p2"].shape[1:] == SHAPE_CHAIN[4]
        assert acts["flat"].shape[1:] == SHAPE_CHAIN[5]

    def test_zero_weights_uniform(self):
        model = _tiny_model()
        model.fc_w = np.zeros((2100, 300))
        model.out_w = np.zeros((300, 2))
        p = _forward(model, _rand_patch()[None, None])[0]
        assert np.allclose(p, [0.5, 0.5])

    def test_posterior_is_distribution(self):
        p = _forward(_tiny_model(), _rand_patch()[None, None])[0]
        assert p.shape == (2,)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0)

    def test_naive_loop_oracle(self):
        # Independent convolution implementation: explicit quadruple loop.
        model = _tiny_model(seed=3)
        x = _rand_patch(seed=4)

        def conv_loops(xs, w, b):
            f, c, kh, kw = w.shape
            _, hh, ww = xs.shape
            out = np.empty((f, hh - kh + 1, ww - kw + 1))
            for fi in range(f):
                for i in range(out.shape[1]):
                    for j in range(out.shape[2]):
                        out[fi, i, j] = (
                            np.sum(xs[:, i : i + kh, j : j + kw] * w[fi])
                            + b[fi]
                        )
            return out

        def pool_loops(xs):
            f, h, w = xs.shape
            out = np.empty((f, h // 2, w // 2))
            for i in range(h // 2):
                for j in range(w // 2):
                    out[:, i, j] = xs[
                        :, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2
                    ].mean(axis=(1, 2))
            return out

        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        a1 = sig(conv_loops(x[None], model.conv1_w, model.conv1_b))
        p1 = pool_loops(a1)
        a2 = sig(conv_loops(p1, model.conv2_w, model.conv2_b))
        p2 = pool_loops(a2)
        h = sig(p2.reshape(-1) @ model.fc_w + model.fc_b)
        logits = h @ model.out_w + model.out_b
        e = np.exp(logits - logits.max())
        oracle = e / e.sum()

        assert np.allclose(_forward(model, x[None, None])[0], oracle,
                           atol=1e-12)

    def test_shape_guard(self):
        model = _tiny_model()
        model.conv2_w = np.zeros((10, 10, 5, 5))  # breaks the chain
        with pytest.raises(InternalError):
            _forward(model, _rand_patch()[None, None])[0]

    def test_batched_matches_single(self):
        model = _tiny_model(seed=1)
        patches = [_rand_patch(seed=i) for i in range(4)]
        batched = cnn_posteriors(model, patches)
        for i, p in enumerate(patches):
            assert batched[i] == pytest.approx(
                _forward(model, p[None, None])[0, 1])


class TestPooling:
    def test_mean_preservation(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 6))
        assert _pool2(x).mean() == pytest.approx(x.mean())

    def test_exact_blocks(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = _pool2(x)
        assert np.allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_backward_distributes_evenly(self):
        d = np.ones((1, 1, 2, 2))
        g = _pool2_backward(d, (1, 1, 4, 4))
        assert np.allclose(g, 0.25)


class TestGradients:
    def test_conv_backward_matches_central_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 6, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        d_out = rng.normal(size=(2, 4, 4, 3))

        def loss(xx, ww, bb):
            return np.sum(_conv_valid(xx, ww, bb) * d_out)

        gw, gb, gx = _conv_backward(x, w, d_out)
        eps = 1e-6
        for arr, grad in ((w, gw), (x, gx)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                lp = loss(x, w, b)
                arr[idx] = orig - eps
                lm = loss(x, w, b)
                arr[idx] = orig
                assert abs(grad[idx] - (lp - lm) / (2 * eps)) < 1e-4
        assert np.allclose(gb, d_out.sum(axis=(0, 2, 3)))

    def test_stage1_grads_match_central_differences(self):
        model = _tiny_model(seed=5, scale=0.1)
        rng = np.random.default_rng(6)
        r = np.sqrt(6.0 / (2100 + 2))
        head_w = rng.uniform(-r, r, size=(2100, 2))
        head_b = np.zeros(2)
        xb = rng.normal(scale=0.5, size=(2, 1, PATCH_BINS, PATCH_FRAMES))
        yb = np.array([0, 1])

        grads, _ = _stage1_grads(model, head_w, head_b, xb, yb)

        def loss():
            _, nll = _stage1_grads(model, head_w, head_b, xb, yb)
            return nll

        eps = 1e-5
        rng2 = np.random.default_rng(8)
        for arr, grad in (
            (model.conv1_w, grads[0]),
            (model.conv1_b, grads[1]),
            (model.conv2_w, grads[2]),
            (model.conv2_b, grads[3]),
            (head_b, grads[5]),
        ):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for k in rng2.choice(flat.size, size=min(20, flat.size),
                                 replace=False):
                orig = flat[k]
                flat[k] = orig + eps
                lp = loss()
                flat[k] = orig - eps
                lm = loss()
                flat[k] = orig
                assert abs(gflat[k] - (lp - lm) / (2 * eps)) < 1e-4


class TestTraining:
    def _synthetic_patches(self, n_per_class=12, seed=0):
        """Oscillating vs steady horizontal ridges, lightly noised."""
        rng = np.random.default_rng(seed)
        patches, labels = [], []
        t = np.arange(PATCH_FRAMES)
        for k in range(2 * n_per_class):
            taan = k % 2
            base = 30 + rng.integers(-5, 6)
            row = base + (6 * np.sin(2 * np.pi * 6 * t / 50.0) if taan
                          else np.zeros(PATCH_FRAMES))
            vals = rng.normal(scale=0.1, size=(PATCH_BINS, PATCH_FRAMES))
            for fi in range(PATCH_FRAMES):
                r = int(round(row[fi] if taan else base))
                vals[r - 1 : r + 2, fi] += 3.0
            patches.append(vals)
            labels.append(taan)
        return patches, np.array(labels)

    def test_learns_synthetic_classes(self):
        patches, labels = self._synthetic_patches(n_per_class=12, seed=1)
        stats = (np.zeros(PATCH_BINS), np.ones(PATCH_BINS))
        model = cnn_train(patches, labels, stats, epochs=8, lr0=0.1,
                          halve_every=4, batch=8, seed=0)
        post = cnn_posteriors(model, patches)
        acc = np.mean((post >= 0.5) == labels.astype(bool))
        assert acc >= 0.9
        assert model.meta["stage1_loss"][-1] < model.meta["stage1_loss"][0]

    def test_deterministic(self):
        patches, labels = self._synthetic_patches(n_per_class=4, seed=2)
        stats = (np.zeros(PATCH_BINS), np.ones(PATCH_BINS))
        a = cnn_train(patches, labels, stats, epochs=2, batch=4, seed=3)
        b = cnn_train(patches, labels, stats, epochs=2, batch=4, seed=3)
        assert np.array_equal(a.conv1_w, b.conv1_w)
        assert np.array_equal(a.fc_w, b.fc_w)

    def test_single_class_rejected(self):
        patches = [_rand_patch(i) for i in range(4)]
        stats = (np.zeros(PATCH_BINS), np.ones(PATCH_BINS))
        with pytest.raises(InvalidArgumentError):
            cnn_train(patches, [1, 1, 1, 1], stats, epochs=1)

    def test_bad_band_stats_rejected_before_training(self, monkeypatch):
        """The start model is built with the band statistics, so a zero
        band_std fails its check before any forward pass or SGD epoch."""
        def ran(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(cnn, "_features", ran)
        monkeypatch.setattr(mlp, "sgd_epochs", ran)
        patches = [_rand_patch(i) for i in range(4)]
        stats = (np.zeros(PATCH_BINS), np.zeros(PATCH_BINS))
        with pytest.raises(InvalidArgumentError, match="band_std"):
            cnn_train(patches, [0, 1, 0, 1], stats, epochs=1, head_epochs=1)

    def test_no_patches_rejected(self):
        stats = (np.zeros(PATCH_BINS), np.ones(PATCH_BINS))
        with pytest.raises(EmptyInputError):
            cnn_train([], [0, 1], stats, epochs=1)
        with pytest.raises(EmptyInputError):
            cnn_posteriors(cnn_init(seed=0), [])


class TestChannelMaps:
    def test_map_shape(self):
        out = export_channel_maps(_tiny_model(), _rand_patch(), channel=3)
        assert out.shape == (21, 10)

    def test_channel_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            export_channel_maps(_tiny_model(), _rand_patch(), channel=10)


class TestSegmentAudio:
    def test_matches_public_chain(self):
        """pipeline.classify_audio and segment_audio with a CNN model are
        the chain of public calls: 20 ms-hop spectrogram, patches under the
        model's band statistics, batched posteriors, every frame vocal."""
        clip, _, _ = synth_concert(ConcertScript([
            SectionSpec("instrumental", 10.0),
            SectionSpec("taan", 20.0, f0_hz=220.0, mod_rate_hz=6.0),
            SectionSpec("steady-vocal", 20.0, f0_hz=196.0),
            SectionSpec("taan", 20.0, f0_hz=247.0, mod_rate_hz=7.0),
        ], seed=3, sample_rate=16000))
        spec = log_spectrogram(resample(clip, 8000), win_s=0.04, hop_s=0.02,
                               n_dft=1024)
        model = cnn_init(seed=0)
        # band statistics other than the clip's own, which make_patches
        # would compute without them
        mean, std = spectrogram_band_stats([spec])
        model.band_mean, model.band_std = mean + 1.0, 2.0 * std
        patches, _ = make_patches(
            spec, band_stats=(model.band_mean, model.band_std))
        p = cnn_posteriors(model, patches)
        # an untrained model's posteriors sit in a narrow band; a median
        # threshold splits them, so the timeline has several sections
        cfg = PipelineConfig(taan_threshold=float(np.median(p)))
        posteriors = PosteriorSeq(p_taan=p, vocal_mask=np.ones(len(p), bool))
        expected = segment_posteriors(posteriors, p >= cfg.taan_threshold, cfg)
        got, decisions = classify_audio(clip, model, cfg)
        np.testing.assert_array_equal(got.p_taan, p)
        np.testing.assert_array_equal(got.vocal_mask, posteriors.vocal_mask)
        np.testing.assert_array_equal(decisions, p >= cfg.taan_threshold)
        assert len(expected) > 1
        assert segment_audio(clip, model, cfg).sections == expected.sections
