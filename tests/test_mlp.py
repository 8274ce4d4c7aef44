"""Tests for the feed-forward classifier and its from-scratch backprop."""

import numpy as np
import pytest

from taanseg.errors import InvalidArgumentError
from taanseg.features import StyleFeatureSeq
from taanseg.mlp import (
    MlpModel,
    classify_frames,
    mlp_forward,
    mlp_init,
    mlp_train,
    sigmoid,
    softmax,
    _grads,
)


class TestActivations:
    def test_sigmoid_values(self):
        x = np.array([0.0, 2.0, -2.0])
        out = sigmoid(x)
        assert np.allclose(out, 1.0 / (1.0 + np.exp(-x)))

    def test_sigmoid_extreme_inputs_are_finite(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0)

    def test_softmax_rows_sum_to_one(self):
        logits = np.array([[1.0, 2.0, 3.0], [1000.0, 1001.0, 999.0]])
        p = softmax(logits)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(np.isfinite(p))

    def test_softmax_shift_invariance(self):
        logits = np.array([0.3, -1.2, 2.5])
        assert np.allclose(softmax(logits), softmax(logits + 17.0))


class TestInit:
    def test_deterministic(self):
        a = mlp_init(300, seed=1)
        b = mlp_init(300, seed=1)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w2, b.w2)

    def test_seeds_differ(self):
        a = mlp_init(300, seed=1)
        b = mlp_init(300, seed=2)
        assert not np.array_equal(a.w1, b.w1)

    def test_parameter_count(self):
        m = mlp_init(300, seed=0)
        n = m.w1.size + m.b1.size + m.w2.size + m.b2.size
        # 3*300 + 300 + 300*2 + 2
        assert n == 1802

    def test_glorot_bounds(self):
        m = mlp_init(300, seed=3)
        r1 = np.sqrt(6.0 / (3 + 300))
        r2 = np.sqrt(6.0 / (300 + 2))
        assert np.all(np.abs(m.w1) <= r1)
        assert np.all(np.abs(m.w2) <= r2)
        assert np.all(m.b1 == 0) and np.all(m.b2 == 0)

    def test_rejects_empty_hidden(self):
        with pytest.raises(InvalidArgumentError):
            mlp_init(0, seed=0)


class TestForward:
    def test_zero_model_is_uniform(self):
        m = MlpModel(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 2)),
                     np.zeros(2))
        p = mlp_forward(m, np.array([1.0, -2.0, 0.5]))
        assert np.allclose(p, [0.5, 0.5])

    def test_hand_computed_network(self):
        # 3 -> 1 -> 2 with simple weights, verified by direct evaluation.
        m = MlpModel(
            w1=np.array([[1.0], [0.5], [-1.0]]),
            b1=np.array([0.25]),
            w2=np.array([[2.0, -2.0]]),
            b2=np.array([0.1, -0.1]),
        )
        x = np.array([0.2, 0.4, 0.1])
        a = 1.0 / (1.0 + np.exp(-(0.2 + 0.2 - 0.1 + 0.25)))
        logits = np.array([2.0 * a + 0.1, -2.0 * a - 0.1])
        e = np.exp(logits - logits.max())
        assert np.allclose(mlp_forward(m, x), e / e.sum(), atol=1e-12)

    def test_batch_matches_single(self):
        m = mlp_init(8, seed=5)
        xb = np.random.default_rng(2).normal(size=(6, 3))
        pb = mlp_forward(m, xb)
        for i in range(6):
            assert np.allclose(pb[i], mlp_forward(m, xb[i]))

    def test_rejects_nan(self):
        m = mlp_init(4, seed=0)
        with pytest.raises(InvalidArgumentError):
            mlp_forward(m, np.array([1.0, np.nan, 0.0]))


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        m = MlpModel(
            w1=rng.normal(scale=0.5, size=(3, 5)),
            b1=rng.normal(scale=0.1, size=5),
            w2=rng.normal(scale=0.5, size=(5, 2)),
            b2=rng.normal(scale=0.1, size=2),
        )
        xb = rng.normal(size=(7, 3))
        yb = rng.integers(0, 2, size=7)
        weights = rng.uniform(0.5, 1.5, size=7)
        grads, _ = _grads(m, xb, yb, weights)

        def loss(model):
            _, nll = _grads(model, xb, yb, weights)
            return nll

        eps = 1e-6
        for gi, name in enumerate(("w1", "b1", "w2", "b2")):
            arr = getattr(m, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                lp = loss(m)
                arr[idx] = orig - eps
                lm = loss(m)
                arr[idx] = orig
                num = (lp - lm) / (2 * eps)
                assert abs(grads[gi][idx] - num) < 1e-4, (name, idx)


class TestTraining:
    def _blobs(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(loc=[-2.0, -2.0, 0.0], scale=0.5, size=(n, 3))
        x1 = rng.normal(loc=[2.0, 2.0, 0.0], scale=0.5, size=(n, 3))
        x = np.vstack([x0, x1])
        y = np.r_[np.zeros(n, np.int64), np.ones(n, np.int64)]
        return x, y

    def test_separable_blobs(self):
        x, y = self._blobs()
        model, losses = mlp_train(mlp_init(16, seed=4), x, y,
                                  lr=0.5, epochs=50, batch=32, seed=1)
        p = mlp_forward(model, x)
        acc = np.mean(np.argmax(p, axis=1) == y)
        assert acc >= 0.99
        assert losses[-1] < losses[0]

    def test_zero_epochs_leaves_model_unchanged(self):
        x, y = self._blobs(n=20)
        m0 = mlp_init(8, seed=9)
        m1, losses = mlp_train(m0, x, y, epochs=0)
        assert np.array_equal(m0.w1, m1.w1)
        assert np.array_equal(m0.w2, m1.w2)
        assert losses == []

    def test_deterministic(self):
        x, y = self._blobs(n=50)
        a, _ = mlp_train(mlp_init(8, seed=2), x, y, epochs=5, seed=3)
        b, _ = mlp_train(mlp_init(8, seed=2), x, y, epochs=5, seed=3)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.b2, b.b2)

    def test_lr_schedule_changes_result(self):
        x, y = self._blobs(n=50)
        a, _ = mlp_train(mlp_init(8, seed=2), x, y, epochs=20, seed=3)
        b, _ = mlp_train(mlp_init(8, seed=2), x, y, epochs=20, seed=3,
                         halve_every=5)
        assert not np.array_equal(a.w1, b.w1)

    def test_single_class_rejected(self):
        x = np.zeros((10, 3))
        y = np.zeros(10, np.int64)
        with pytest.raises(InvalidArgumentError):
            mlp_train(mlp_init(4, seed=0), x, y)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            mlp_train(mlp_init(4, seed=0), np.zeros((0, 3)),
                      np.zeros(0, np.int64))

    def test_class_balance_weighting(self):
        # An imbalanced set with balancing should not collapse to the
        # majority class.
        rng = np.random.default_rng(6)
        x0 = rng.normal(loc=[-1.5, 0, 0], scale=0.4, size=(190, 3))
        x1 = rng.normal(loc=[1.5, 0, 0], scale=0.4, size=(10, 3))
        x = np.vstack([x0, x1])
        y = np.r_[np.zeros(190, np.int64), np.ones(10, np.int64)]
        model, _ = mlp_train(mlp_init(16, seed=1), x, y,
                             lr=0.5, epochs=60, batch=32, seed=2)
        p = mlp_forward(model, x1)
        assert np.mean(np.argmax(p, axis=1) == 1) >= 0.9


def _oracle_mlp_train(model, x, y, lr, epochs, batch, seed, weights,
                      halve_every):
    """mlp_train's own loop from before it moved into sgd_epochs."""
    model = model.copy()
    rng = np.random.default_rng(seed)
    losses = []
    for epoch in range(epochs):
        lr_e = lr if halve_every is None else lr * 0.5 ** (epoch // halve_every)
        order = rng.permutation(len(x))
        total = 0.0
        wsum = 0.0
        for s in range(0, len(x), batch):
            idx = order[s : s + batch]
            grads, nll = _grads(model, x[idx], y[idx], weights[idx])
            bw = weights[idx].sum()
            step = lr_e / max(bw, 1e-12)
            model.w1 -= step * grads[0]
            model.b1 -= step * grads[1]
            model.w2 -= step * grads[2]
            model.b2 -= step * grads[3]
            total += nll
            wsum += bw
        losses.append(total / wsum)
    return model, losses


@pytest.mark.parametrize("class_balance", [True, False])
@pytest.mark.parametrize("halve_every", [None, 2])
def test_shared_sgd_loop_is_bit_identical(class_balance, halve_every):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(75, 3))
    y = (x[:, 0] + 0.5 * rng.normal(size=75) > 0.6).astype(int)
    init = mlp_init(hidden=6, seed=2)
    model, losses = mlp_train(init, x, y, lr=0.2, epochs=5, batch=16, seed=9,
                              class_balance=class_balance,
                              halve_every=halve_every)
    freq = np.bincount(y) / len(y)
    weights = (1.0 / (2 * freq[y]) if class_balance else np.ones(len(y)))
    ref, ref_losses = _oracle_mlp_train(init, x, y, 0.2, 5, 16, 9, weights,
                                        halve_every)
    assert losses == ref_losses
    for k in ("w1", "b1", "w2", "b2"):
        np.testing.assert_array_equal(getattr(model, k), getattr(ref, k))


class TestClassifyFrames:
    def _seq(self, feats, mask):
        return StyleFeatureSeq(features=feats, vocal_mask=mask,
                               raw=feats.copy(), frame_s=1.0)

    def test_nan_outside_vocal(self):
        m = mlp_init(4, seed=0)
        feats = np.zeros((5, 3))
        mask = np.array([True, False, True, False, True])
        feats[~mask] = np.nan
        post, dec = classify_frames(m, self._seq(feats, mask))
        assert np.all(np.isnan(post.p_taan[~mask]))
        assert np.all(np.isfinite(post.p_taan[mask]))
        assert not dec[~mask].any()

    def test_threshold_monotone(self):
        m = mlp_init(4, seed=1)
        feats = np.random.default_rng(0).normal(size=(20, 3))
        mask = np.ones(20, dtype=bool)
        seq = self._seq(feats, mask)
        _, d_low = classify_frames(m, seq, threshold=0.2)
        _, d_high = classify_frames(m, seq, threshold=0.8)
        assert d_high.sum() <= d_low.sum()
        assert np.all(d_low[d_high])

    def test_threshold_domain(self):
        m = mlp_init(4, seed=0)
        seq = self._seq(np.zeros((2, 3)), np.ones(2, dtype=bool))
        with pytest.raises(InvalidArgumentError):
            classify_frames(m, seq, threshold=1.5)

    def test_dimension_mismatch(self):
        m = mlp_init(4, seed=0, n_in=5)
        seq = self._seq(np.zeros((2, 3)), np.ones(2, dtype=bool))
        with pytest.raises(InvalidArgumentError):
            classify_frames(m, seq)
