"""Tests for the feed-forward classifier and its from-scratch backprop.

`mlp_train` runs its SGD step in per-run buffers on one flat parameter
vector. `_oracle_mlp_train` below is the training it replaced, frozen with
its own sigmoid, softmax and gradients, and every trained model and loss
list must match it bit for bit, on fixed cases and on a `hypothesis` sample
of sizes, batches and schedules.

`python tests/test_mlp.py [n]` runs the property on n random training runs
(default 2000); tier-1 runs a fixed sample of it.
"""

import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taanseg import mlp
from taanseg.errors import InvalidArgumentError
from taanseg.features import StyleFeatureSeq
from taanseg.mlp import (
    MlpModel,
    classify_frames,
    mlp_forward,
    mlp_init,
    mlp_train,
    sgd_epochs,
    sigmoid,
    softmax,
    _grad_fn,
    _mlp_views,
)
from test_gemm_tiles import loop_matmul


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

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidArgumentError, match="seed -1 is negative"):
            mlp_init(3, seed=-1)


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
        step = _grad_fn(m, len(xb))
        (flat,), _ = step(xb, yb, weights)
        grads = _mlp_views(flat.copy(), 3, 5)  # the step reuses its buffer

        def loss(model):
            _, nll = step(xb, yb, weights)
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

    def test_negative_shuffle_seed_rejected(self):
        x, y = self._blobs(n=10)
        with pytest.raises(InvalidArgumentError, match="seed -2 is negative"):
            mlp_train(mlp_init(8, seed=2), x, y, epochs=1, seed=-2)

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


def _oracle_sigmoid(x):
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    num = np.maximum(e, x >= 0)
    e += 1.0
    num /= e
    return num


def _oracle_softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _oracle_grads(model, xb, yb, weights):
    """Cross-entropy gradients for one batch; weights are per-sample."""
    h = _oracle_sigmoid(loop_matmul(xb, model.w1) + model.b1)
    p = _oracle_softmax(loop_matmul(h, model.w2) + model.b2)
    n = len(xb)
    delta2 = p.copy()
    delta2[np.arange(n), yb] -= 1.0
    delta2 *= weights[:, None]
    gw2 = loop_matmul(h.T, delta2)
    gb2 = delta2.sum(axis=0)
    delta1 = loop_matmul(delta2, model.w2.T) * h * (1.0 - h)
    gw1 = loop_matmul(xb.T, delta1)
    gb1 = delta1.sum(axis=0)
    nll = float(np.sum(-np.log(np.maximum(p[np.arange(n), yb], 1e-300))
                       * weights))
    return (gw1, gb1, gw2, gb2), nll


def _oracle_mlp_train(model, x, y, lr, epochs, batch, seed, class_balance,
                      halve_every):
    """mlp_train with one fresh array per gradient and temporary, as it was
    before its step moved into per-run buffers: (model, every epoch's loss),
    the model None once an epoch's loss is non-finite."""
    model = MlpModel(model.w1.copy(), model.b1.copy(), model.w2.copy(),
                     model.b2.copy())
    classes, counts = np.unique(y, return_counts=True)
    freq = counts / counts.sum()
    wmap = dict(zip(classes, 1.0 / (len(classes) * freq)))
    weights = (np.array([wmap[c] for c in y]) if class_balance
               else np.ones(len(y)))
    rng = np.random.default_rng(seed)
    losses = []
    for epoch in range(epochs):
        lr_e = lr if halve_every is None else lr * 0.5 ** (epoch // halve_every)
        order = rng.permutation(len(x))
        total = 0.0
        wsum = 0.0
        for s in range(0, len(x), batch):
            idx = order[s : s + batch]
            grads, nll = _oracle_grads(model, x[idx], y[idx], weights[idx])
            bw = weights[idx].sum()
            step = lr_e / max(bw, 1e-12)
            model.w1 -= step * grads[0]
            model.b1 -= step * grads[1]
            model.w2 -= step * grads[2]
            model.b2 -= step * grads[3]
            total += nll
            wsum += bw
        losses.append(total / wsum)
        if not np.isfinite(losses[-1]):
            return None, losses
    return model, losses


def assert_trains_like_the_oracle(init, x, y, lr=0.05, epochs=2, batch=32,
                                  seed=0, class_balance=True,
                                  halve_every=None):
    """mlp_train's arrays and losses, or the losses up to its divergence,
    byte for byte those of _oracle_mlp_train."""
    want, want_losses = _oracle_mlp_train(init, x, y, lr, epochs, batch, seed,
                                          class_balance, halve_every)
    seen, real = [], mlp.sgd_epochs

    def spy(*args):
        for loss in real(*args):
            seen.append(loss)
            yield loss

    with mock.patch.object(mlp, "sgd_epochs", spy):
        if want is None:
            with pytest.raises(InvalidArgumentError, match="diverged"):
                mlp_train(init, x, y, lr, epochs, batch, seed, class_balance,
                          halve_every)
        else:
            got, losses = mlp_train(init, x, y, lr, epochs, batch, seed,
                                    class_balance, halve_every)
            assert losses == seen
            for k in ("w1", "b1", "w2", "b2"):
                assert getattr(got, k).tobytes() == getattr(want, k).tobytes()
    assert np.array(seen).tobytes() == np.array(want_losses).tobytes()


@pytest.mark.parametrize("class_balance", [True, False])
@pytest.mark.parametrize("halve_every", [None, 2])
def test_shared_sgd_loop_is_bit_identical(class_balance, halve_every):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(75, 3))
    y = (x[:, 0] + 0.5 * rng.normal(size=75) > 0.6).astype(int)
    assert_trains_like_the_oracle(mlp_init(hidden=6, seed=2), x, y, lr=0.2,
                                  epochs=5, batch=16, seed=9,
                                  class_balance=class_balance,
                                  halve_every=halve_every)


def test_the_tiled_head_trains_like_the_oracle():
    # the CNN head's 2100-d input: its products go through the GEMM tiles
    rng = np.random.default_rng(21)
    x = rng.normal(size=(45, 2100))
    y = np.arange(45) % 2
    assert_trains_like_the_oracle(mlp_init(300, seed=1, n_in=2100), x, y,
                                  lr=0.1, batch=32, class_balance=False,
                                  halve_every=1)


@pytest.mark.parametrize("lr, epochs_run", [(1e300, 4), (1e308, 2)])
def test_huge_steps_train_and_stop_where_the_oracle_does(lr, epochs_run):
    # at lr 1e300 the saturated sigmoid zeroes the hidden gradient and the
    # NLL is clamped at 1e-300, so every loss stays finite; at 1e308 w2
    # overflows and the second epoch's loss is NaN, where training stops
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 3))
    y = np.arange(40) % 2
    with np.errstate(over="ignore", invalid="ignore"):
        _, losses = _oracle_mlp_train(mlp_init(8, seed=0), x, y, lr, 4, 8, 0,
                                      True, None)
        assert_trains_like_the_oracle(mlp_init(8, seed=0), x, y, lr=lr,
                                      epochs=4, batch=8)
    assert len(losses) == epochs_run
    assert np.isfinite(losses).all() == (epochs_run == 4)


@st.composite
def training_runs(draw):
    """A small training run: 1 to 300 rows of 1 to 5 features, 1 to 64 or
    300 hidden units, batches from 1 to 5 past the row count, 0 to 4
    epochs, with or without class balance and a halving schedule."""
    n, n_in = draw(st.integers(1, 300)), draw(st.integers(1, 5))
    hidden = draw(st.one_of(st.integers(1, 64), st.just(300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, n_in)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    y = (rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9]))).astype(int)
    y[: min(n, 2)] = [0, 1][: min(n, 2)]    # both classes where n allows
    return dict(init=mlp_init(hidden, seed=draw(st.integers(0, 99)),
                              n_in=n_in),
                x=x, y=y, lr=draw(st.sampled_from([0.05, 0.5, 5.0])),
                epochs=draw(st.integers(0, 4)),
                batch=draw(st.integers(1, n + 5)),
                seed=draw(st.integers(0, 99)),
                class_balance=draw(st.booleans()),
                halve_every=draw(st.sampled_from([None, 1, 3])))


def check_run(run):
    if len(np.unique(run["y"])) < 2:    # one row: mlp_train refuses it
        with pytest.raises(InvalidArgumentError, match="both"):
            mlp_train(**{("model" if k == "init" else k): v
                         for k, v in run.items()})
    else:
        assert_trains_like_the_oracle(**run)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(run=training_runs())
def test_training_runs_match_the_oracle(run):
    check_run(run)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sgd_step_scales_the_gradient_in_place(dtype):
    # bit for bit `w -= step / scale * grad`, without its weight-sized
    # product for a float64 gradient such as the CNN head's 2100 x 300;
    # a float32 one (the conv stack's) is scaled in a float64 copy
    rng = np.random.default_rng(5)
    w = rng.normal(size=(2100, 300))
    g = rng.normal(size=w.shape).astype(dtype)
    ref = w - 0.5 / np.float64(2.0) / 3 * g
    tracemalloc.start()
    try:
        list(sgd_epochs((w,), (3,), lambda xb, yb, wb: ((g.copy(),), 0.0),
                        np.zeros((2, 1)), np.zeros(2, dtype=int), np.ones(2),
                        np.random.default_rng(0), 0.5, 1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(w, ref)
    assert peak < g.nbytes + (w.nbytes if dtype == np.float32 else 0) + 2**20


class TestClassifyFrames:
    def _seq(self, feats, mask):
        return StyleFeatureSeq(features=feats, vocal_mask=mask,
                               raw=feats.copy())

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


class TestTrainingInputChecks:
    """Each fault is named before training starts, as InvalidArgumentError."""

    def _set(self, n=30, n_in=3):
        rng = np.random.default_rng(n)
        return rng.normal(size=(n, n_in)), np.arange(n) % 2

    @pytest.mark.parametrize("bad", [2, -1])
    def test_label_outside_0_and_1(self, bad):
        x, y = self._set()
        y[3] = bad
        with pytest.raises(InvalidArgumentError,
                           match=rf"labels must be 0 and 1.*{bad}"):
            mlp_train(mlp_init(4, seed=0), x, y, epochs=1)

    def test_too_few_feature_columns(self):
        x, y = self._set(n_in=2)
        with pytest.raises(InvalidArgumentError,
                           match=r"rows of 3 features, got an array of \(30, 2\)"):
            mlp_train(mlp_init(4, seed=0), x, y, epochs=1)

    def test_one_dimensional_features(self):
        x, y = self._set()
        with pytest.raises(InvalidArgumentError,
                           match=r"rows of 3 features, got an array of \(30,\)"):
            mlp_train(mlp_init(4, seed=0), x[:, 0], y, epochs=1)

    def test_more_rows_than_labels(self):
        x, y = self._set(n=40)
        with pytest.raises(InvalidArgumentError,
                           match=r"40 feature rows but labels of shape \(30,\)"):
            mlp_train(mlp_init(4, seed=0), x, y[:30], epochs=1)

    def test_zero_batch(self):
        x, y = self._set()
        with pytest.raises(InvalidArgumentError,
                           match="batch must be at least 1, got 0"):
            mlp_train(mlp_init(4, seed=0), x, y, epochs=1, batch=0)

    def test_nan_feature(self):
        x, y = self._set()
        x[5, 1] = np.nan
        with pytest.raises(InvalidArgumentError,
                           match="non-finite values in training features"):
            mlp_train(mlp_init(4, seed=0), x, y, epochs=1)


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 2000
    settings(max_examples=n, deadline=None, database=None)(
        given(run=training_runs())(check_run))()
    print(f"MLP SGD: {n} training runs match the frozen loop byte for byte")
