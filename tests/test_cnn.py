"""Tests for the spectrogram-patch CNN: patch construction, the forward
pass against a naive loop oracle, gradients against central differences,
and the two-stage training entry point.
"""

import numpy as np
import pytest

from taanseg.cnn import (
    PATCH_BINS,
    PATCH_FRAMES,
    SHAPE_CHAIN,
    CnnModel,
    SpectrogramPatch,
    _conv_backward,
    _conv_stack_forward,
    _conv_valid,
    _pool2,
    _pool2_backward,
    _stage1_grads,
    cnn_forward,
    cnn_init,
    cnn_posteriors,
    cnn_train,
    export_channel_maps,
    make_patches,
    spectrogram_band_stats,
)
from taanseg.dsp import AudioClip, log_spectrogram
from taanseg.errors import EmptyInputError, InternalError, InvalidArgumentError


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


def _rand_patch(seed=0):
    rng = np.random.default_rng(seed)
    return SpectrogramPatch(rng.normal(size=(PATCH_BINS, PATCH_FRAMES)))


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
        assert all(p.values.shape == (PATCH_BINS, PATCH_FRAMES)
                   for p in patches)
        assert mean.shape == (PATCH_BINS,) and std.shape == (PATCH_BINS,)

    def test_band_normalization(self):
        spec = self._spec(seconds=4.0)
        _, (mean, std) = make_patches(spec)
        bands = spec.values[:PATCH_BINS]
        normed = (bands - mean[:, None]) / std[:, None]
        assert np.allclose(normed.mean(axis=1), 0.0, atol=1e-7)

    def test_band_stats_pool_every_spectrogram(self):
        specs = [self._spec(3.0, 400.0), self._spec(2.0, 700.0)]
        bands = np.concatenate([s.values[:PATCH_BINS] for s in specs], axis=1)
        mean, std = spectrogram_band_stats(specs)
        np.testing.assert_array_equal(mean, bands.mean(axis=1))
        np.testing.assert_array_equal(
            std, np.sqrt(np.maximum(bands.var(axis=1), 1e-12)))

    def test_tone_row_with_unit_stats(self):
        # With identity band stats the 400 Hz ridge sits at bin
        # round(400 / (8000/1024)) = 51, which is inside the patch band.
        spec = self._spec(seconds=2.0, freq=400.0)
        patches, _ = make_patches(
            spec, band_stats=(np.zeros(PATCH_BINS), np.ones(PATCH_BINS))
        )
        row = np.argmax(patches[0].values.mean(axis=1))
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

    def test_patch_validation(self):
        with pytest.raises(InvalidArgumentError):
            SpectrogramPatch(np.zeros((10, 10)))
        bad = np.zeros((PATCH_BINS, PATCH_FRAMES))
        bad[0, 0] = np.nan
        with pytest.raises(InvalidArgumentError):
            SpectrogramPatch(bad)


class TestForward:
    def test_shape_chain(self):
        model = _tiny_model()
        xb = _rand_patch().values[None, None, :, :]
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
        p = cnn_forward(model, _rand_patch())
        assert np.allclose(p, [0.5, 0.5])

    def test_posterior_is_distribution(self):
        p = cnn_forward(_tiny_model(), _rand_patch())
        assert p.shape == (2,)
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0)

    def test_naive_loop_oracle(self):
        # Independent convolution implementation: explicit quadruple loop.
        model = _tiny_model(seed=3)
        patch = _rand_patch(seed=4)
        x = patch.values

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

        assert np.allclose(cnn_forward(model, patch), oracle, atol=1e-12)

    def test_shape_guard(self):
        model = _tiny_model()
        model.conv2_w = np.zeros((10, 10, 5, 5))  # breaks the chain
        with pytest.raises(InternalError):
            cnn_forward(model, _rand_patch())

    def test_batched_matches_single(self):
        model = _tiny_model(seed=1)
        patches = [_rand_patch(seed=i) for i in range(4)]
        batched = cnn_posteriors(model, patches)
        for i, p in enumerate(patches):
            assert batched[i] == pytest.approx(cnn_forward(model, p)[1])


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
            patches.append(SpectrogramPatch(vals))
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
