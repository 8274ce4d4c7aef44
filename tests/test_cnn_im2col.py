"""Equivalence tests for the channel-major im2col convolution, the
blocked whole-set forward pass, the blocked stage-1 gradients and the
branch-free sigmoid; the float32 path against float64, every pass at 1, 2
and 3 workers, and the GEMM rule every matrix product keeps.

The oracles are in-test copies of the code these replaced: the
sliding-window `einsum` forward, the per-tap `einsum` backward, the
reshape-mean pooling, the batch-at-once stage-1 gradients, the
boolean-mask sigmoid and the out-of-place branch-free sigmoid.
"""

import ast
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from taanseg import cnn, mlp, pool
from taanseg.cnn import (
    FORWARD_BLOCK,
    PATCH_BINS,
    PATCH_FRAMES,
    SHAPE_CHAIN,
    _conv_backward,
    _conv_stack_forward,
    _conv_valid,
    _features,
    _im2col,
    _pool2,
    _pool2_backward,
    _stage1_grads,
    cnn_init,
    cnn_posteriors,
    cnn_train,
    frame_features,
)
from taanseg.errors import InternalError
from taanseg.mlp import (GEMM_SLAB, mlp_forward, mlp_init, mlp_train,
                         sigmoid, softmax)


def _forward(model, xb):
    """Posteriors (B, 2) of a patch batch (B, 1, 94, 50) in its own dtype's
    conv stack: cnn_posteriors, short of the float32 cast and column 1."""
    return mlp_forward(model.head, _features(model, xb))


def _oracle_conv_valid(x, w, b):
    kh, kw = w.shape[2], w.shape[3]
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    out = np.einsum("bchwij,fcij->bfhw", win, w, optimize=True)
    return out + b[None, :, None, None]


def _oracle_conv_backward(x, w, d_out):
    f, c, kh, kw = w.shape
    ho, wo = d_out.shape[2], d_out.shape[3]
    gw = np.empty_like(w)
    gx = np.zeros_like(x)
    for i in range(kh):
        for j in range(kw):
            xs = x[:, :, i : i + ho, j : j + wo]
            gw[:, :, i, j] = np.einsum("bfhw,bchw->fc", d_out, xs,
                                       optimize=True)
            gx[:, :, i : i + ho, j : j + wo] += np.einsum(
                "bfhw,fc->bchw", d_out, w[:, :, i, j], optimize=True)
    return gw, d_out.sum(axis=(0, 2, 3)), gx


def _oracle_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _out_of_place_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def _assert_close(got, ref):
    """Within 1e-12 of the oracle, relative to the oracle's largest
    magnitude: the weight gradients sum up to ~19k unit-scale products."""
    assert got.shape == ref.shape
    scale = max(1.0, float(np.abs(ref).max()))
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * scale)


def _channel_major(a):
    """True when an NCHW array is a view of channel-major memory: each
    channel one C-contiguous (B,H,W) block, the channels in order."""
    return (a.strides[1] >= a[:, 0].nbytes
            and a.transpose(1, 0, 2, 3)[0].flags.c_contiguous)


GEOMETRIES = {
    "conv1": ((1, 94, 50), (10, 1, 7, 7)),
    "conv2": ((10, 44, 22), (10, 10, 3, 3)),
}


@pytest.mark.parametrize("batch", [1, 5, FORWARD_BLOCK])
@pytest.mark.parametrize("layer", sorted(GEOMETRIES))
class TestConvAgainstEinsumOracle:
    def _inputs(self, layer, batch):
        in_shape, w_shape = GEOMETRIES[layer]
        rng = np.random.default_rng(batch * 10 + len(layer))
        x = rng.normal(size=(batch,) + in_shape)
        w = rng.normal(scale=0.3, size=w_shape)
        b = rng.normal(size=w_shape[0])
        out_shape = (batch, w_shape[0], in_shape[1] - w_shape[2] + 1,
                     in_shape[2] - w_shape[3] + 1)
        return x, w, b, rng.normal(size=out_shape)

    def test_forward(self, layer, batch):
        x, w, b, _ = self._inputs(layer, batch)
        out = _conv_valid(x, w, b)
        ref = _oracle_conv_valid(x, w, b)
        assert _channel_major(out)
        _assert_close(out, ref)

    def test_forward_from_channels_last_input(self, layer, batch):
        x, w, b, _ = self._inputs(layer, batch)
        x_cl = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(
            0, 3, 1, 2)
        np.testing.assert_array_equal(_conv_valid(x_cl, w, b),
                                      _conv_valid(x, w, b))

    def test_backward(self, layer, batch):
        x, w, _, d_out = self._inputs(layer, batch)
        gw, gb, gx = _conv_backward(x, w, d_out)
        rw, rb, rx = _oracle_conv_backward(x, w, d_out)
        for got, ref in ((gw, rw), (gb, rb), (gx, rx)):
            _assert_close(got, ref)

    def test_backward_from_forward_columns(self, layer, batch):
        x, w, _, d_out = self._inputs(layer, batch)
        cols = _im2col(x, *w.shape[2:])
        for got, ref in zip(_conv_backward(None, w, d_out, cols=cols),
                            _conv_backward(x, w, d_out)):
            np.testing.assert_array_equal(got, ref)

    def test_backward_without_input_gradient(self, layer, batch):
        x, w, _, d_out = self._inputs(layer, batch)
        gw, gb, gx = _conv_backward(x, w, d_out, input_grad=False)
        full = _conv_backward(x, w, d_out)
        assert gx is None
        np.testing.assert_array_equal(gw, full[0])
        np.testing.assert_array_equal(gb, full[1])


class TestPoolingAgainstReshapeOracle:
    def test_forward(self):
        x = np.random.default_rng(0).normal(size=(3, 10, 88, 44))
        ref = x.reshape(3, 10, 44, 2, 22, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(_pool2(x), ref, rtol=0, atol=1e-15)

    def test_backward(self):
        d = np.random.default_rng(1).normal(size=(3, 10, 21, 10))
        ref = np.repeat(np.repeat(d, 2, axis=2), 2, axis=3) / 4.0
        got = _pool2_backward(d, (3, 10, 42, 20))
        assert _channel_major(got)
        np.testing.assert_array_equal(got, ref)


# float32 against float64 on an untrained model: the features (in (0, 1))
# were measured within 1.4e-7, the posteriors within 1e-8
FEATURE_ATOL = 1e-6
POSTERIOR_ATOL = 1e-6


def _patch_batch(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 1, PATCH_BINS, PATCH_FRAMES))


class TestBlockedForward:
    @pytest.mark.parametrize("n", [1, FORWARD_BLOCK - 1, FORWARD_BLOCK,
                                   FORWARD_BLOCK + 1, 2 * FORWARD_BLOCK + 3])
    def test_bit_identical_to_one_stack_call(self, n):
        # in float64 and in float32 alike, since every GEMM slab is a
        # multiple of 16 columns wide; float32 features are within
        # FEATURE_ATOL of the float64 ones (pooled sigmoids, so in (0, 1))
        model = cnn_init(seed=2)
        x = _patch_batch(n, seed=n)
        ref = _conv_stack_forward(model, x)["flat"]
        np.testing.assert_array_equal(_features(model, x), ref)
        x32 = x.astype(np.float32)
        got = _features(model, x32)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got,
                                      _conv_stack_forward(model, x32)["flat"])
        np.testing.assert_allclose(got, ref, rtol=0, atol=FEATURE_ATOL)

    def test_activations_are_channel_major(self):
        acts = _conv_stack_forward(cnn_init(seed=0), _patch_batch(3))
        for name in ("a1", "p1", "a2", "p2"):
            assert _channel_major(acts[name]), name

    def test_maps_are_second_pooling_layer(self):
        # bit for bit the float32 stack's second pooling layer, and within
        # FEATURE_ATOL of the float64 one
        model = cnn_init(seed=1)
        x = _patch_batch(3, seed=3)
        for k in range(len(x)):
            p2 = _conv_stack_forward(model, x[k : k + 1])["p2"][0]
            p2_32 = _conv_stack_forward(
                model, x[k : k + 1].astype(np.float32))["p2"][0]
            maps = frame_features(model, x[k : k + 1, 0]).reshape(
                SHAPE_CHAIN[4])
            for channel in range(len(p2)):
                cmap = maps[channel]
                np.testing.assert_array_equal(cmap, p2_32[channel])
                np.testing.assert_allclose(cmap, p2[channel], rtol=0,
                                           atol=FEATURE_ATOL)

    def test_single_patch_path_matches_batch(self):
        # cnn_posteriors is _forward on float32 patches, and within
        # POSTERIOR_ATOL of _forward on the float64 ones
        model = cnn_init(seed=4)
        x = _patch_batch(FORWARD_BLOCK + 1, seed=5)
        patches = [v[0] for v in x]
        batched = cnn_posteriors(model, patches)
        np.testing.assert_array_equal(
            batched, _forward(model, x.astype(np.float32))[:, 1])
        np.testing.assert_allclose(batched, _forward(model, x)[:, 1],
                                   rtol=0, atol=POSTERIOR_ATOL)
        for k in (0, FORWARD_BLOCK):
            np.testing.assert_allclose(
                _forward(model, patches[k][None, None].astype(np.float32))
                [0][1], batched[k], rtol=0, atol=1e-15)


def _oracle_stage1_grads(model, head_w, head_b, xb, yb, feat_stats):
    """The whole batch at once, with the per-tap einsum conv backward."""
    acts = _conv_stack_forward(model, xb)
    mu, sd = feat_stats
    feat = (acts["flat"] - mu) / sd
    p = softmax(feat @ head_w + head_b)
    n = len(xb)
    delta = p.copy()
    delta[np.arange(n), yb] -= 1.0
    d_p2 = ((delta @ head_w.T) / sd).reshape(acts["p2"].shape)
    d_a2 = _pool2_backward(d_p2, acts["a2"].shape)
    d_z2 = d_a2 * acts["a2"] * (1.0 - acts["a2"])
    g2w, g2b, d_p1 = _oracle_conv_backward(acts["p1"], model.conv2_w, d_z2)
    d_a1 = _pool2_backward(d_p1, acts["a1"].shape)
    d_z1 = d_a1 * acts["a1"] * (1.0 - acts["a1"])
    g1w, g1b, _ = _oracle_conv_backward(xb, model.conv1_w, d_z1)
    nll = float(np.sum(-np.log(np.maximum(p[np.arange(n), yb], 1e-300))))
    return (g1w, g1b, g2w, g2b, feat.T @ delta, delta.sum(axis=0)), nll


class TestBlockedStage1Grads:
    @pytest.mark.parametrize("n", [1, FORWARD_BLOCK - 1, FORWARD_BLOCK,
                                   FORWARD_BLOCK + 1, 32, 33])
    def test_matches_batch_at_once(self, n):
        model = cnn_init(seed=n)
        rng = np.random.default_rng(n)
        head_w = rng.normal(scale=0.05, size=(2100, 2))
        head_b = rng.normal(scale=0.1, size=2)
        stats = (rng.normal(scale=0.1, size=2100),
                 rng.uniform(0.5, 2.0, size=2100))
        x = _patch_batch(n, seed=n)
        y = rng.integers(0, 2, size=n)
        grads, nll = _stage1_grads(model, head_w, head_b, x, y, stats)
        ref, ref_nll = _oracle_stage1_grads(model, head_w, head_b, x, y, stats)
        for got, want in zip(grads, ref):
            _assert_close(got, want)
        assert abs(nll - ref_nll) <= 1e-12 * max(1.0, abs(ref_nll))


SIZES = [1, FORWARD_BLOCK - 1, FORWARD_BLOCK, FORWARD_BLOCK + 1,
         2 * FORWARD_BLOCK + 3]


def _at_each_worker_count(monkeypatch, run):
    """run() with pool.WORKERS at 1, 2 and 3, the threads switching
    every 10 us so that blocks interleave as much as they can."""
    results, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(pool, "WORKERS", workers)
            results.append(run())
    finally:
        sys.setswitchinterval(interval)
    return results


def _assert_all_equal(results):
    first, *rest = results
    for other in rest:
        for got, want in zip(other, first):
            np.testing.assert_array_equal(got, want)


def _stage1_inputs(n):
    rng = np.random.default_rng(n)
    head_w = rng.normal(scale=0.05, size=(2100, 2))
    head_b = rng.normal(scale=0.1, size=2)
    stats = (rng.normal(scale=0.1, size=2100),
             rng.uniform(0.5, 2.0, size=2100))
    x = _patch_batch(n, seed=n).astype(np.float32)
    return head_w, head_b, x, rng.integers(0, 2, size=n), stats


class TestWorkerCount:
    """Blocks run pool.WORKERS at a time and their sums add in block order,
    so every pass gives the same bits at any worker count."""

    @pytest.mark.parametrize("n", SIZES)
    def test_features(self, monkeypatch, n):
        model = cnn_init(seed=n)
        x = _patch_batch(n, seed=n).astype(np.float32)
        _assert_all_equal(_at_each_worker_count(
            monkeypatch, lambda: [_features(model, x)]))

    @pytest.mark.parametrize("n", SIZES)
    def test_stage1_grads(self, monkeypatch, n):
        model = cnn_init(seed=n)
        head_w, head_b, x, y, stats = _stage1_inputs(n)

        def run():
            grads, nll = _stage1_grads(model, head_w, head_b, x, y, stats)
            return [*grads, nll]

        _assert_all_equal(_at_each_worker_count(monkeypatch, run))

    @pytest.mark.parametrize("n", SIZES)
    def test_posteriors(self, monkeypatch, n):
        model = cnn_init(seed=n)
        x = _patch_batch(n, seed=n)[:, 0]
        _assert_all_equal(_at_each_worker_count(
            monkeypatch, lambda: [cnn_posteriors(model, x)]))

    # training needs both classes, so at least two patches
    @pytest.mark.parametrize("n", SIZES[1:])
    def test_train(self, monkeypatch, n):
        x = _patch_batch(n, seed=n)[:, 0]
        y = np.arange(n) % 2
        stats = (np.zeros(PATCH_BINS), np.ones(PATCH_BINS))

        def run():
            m = cnn_train(x, y, stats, epochs=2, head_epochs=1,
                          batch=2 * FORWARD_BLOCK + 3, seed=n)
            return [m.conv1_w, m.conv1_b, m.conv2_w, m.conv2_b, m.fc_w,
                    m.fc_b, m.out_w, m.out_b, m.meta["stage1_loss"],
                    m.meta["stage2_loss"]]

        _assert_all_equal(_at_each_worker_count(monkeypatch, run))

    def test_no_worker_thread_outlives_a_run(self, monkeypatch):
        monkeypatch.setattr(pool, "WORKERS", 2)
        x = _patch_batch(2 * FORWARD_BLOCK + 3, seed=1)[:, 0]
        y = np.arange(len(x)) % 2
        stats = (np.zeros(PATCH_BINS), np.ones(PATCH_BINS))
        before = threading.active_count()
        cnn_train(x, y, stats, epochs=1, head_epochs=1)
        assert threading.active_count() == before

        real, calls = cnn._stage1_block_grads, []

        def second_block_fails(*args):
            calls.append(None)
            if len(calls) == 2:
                raise InternalError("block 2")
            return real(*args)

        monkeypatch.setattr(cnn, "_stage1_block_grads", second_block_fails)
        with pytest.raises(InternalError, match="block 2"):
            cnn_train(x, y, stats, epochs=1, head_epochs=1)
        assert threading.active_count() == before


def _dims(a, b):
    """(m, n, k) of a @ b, or of each matrix product in a stacked a @ b,
    from the operands' last two axes; a vector a counts as one row."""
    return (a.shape[-2] if a.ndim > 1 else 1, b.shape[-1], b.shape[-2])


def _spy_products(monkeypatch):
    """Each mlp.matmul product's (m, n, k), with the np.matmul calls it
    makes on whichever thread it runs, each call as the list of its BLAS
    calls' (m, n, k): one per matrix of a stacked call."""
    products, here = [], threading.local()
    real_product, real_call = mlp.matmul, np.matmul

    def product(a, b, out=None):
        here.calls = []
        products.append((_dims(a, b), here.calls))
        return real_product(a, b, out=out)

    def call(a, b, out=None):
        stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        here.calls.append([_dims(a, b)] * int(np.prod(stack)))
        return real_call(a, b, out=out)

    for module in (mlp, cnn):
        monkeypatch.setattr(module, "matmul", product)
    monkeypatch.setattr(np, "matmul", call)
    return products


class TestGemmRule:
    """Every BLAS call of a matrix product is at most GEMM_SLAB m*n*k, so
    OpenBLAS runs it on the calling thread, and a product within it is one
    call. Along each dimension a call spans the product's whole extent, a
    multiple of 16, or what is left after a multiple of 16; so the conv
    stack, whose im2col columns (n, or k for a weight gradient) are padded
    to a multiple of 16, covers a multiple of 16 of them in every call."""

    def _check(self, products):
        """The BLAS-call count of each product, once its calls are checked."""
        assert products
        counts = []
        for dims, calls in products:
            blas = [call for stack in calls for call in stack]
            assert blas
            if np.prod(dims) <= GEMM_SLAB:
                assert blas == [dims]
            for call in blas:
                assert np.prod(call) <= GEMM_SLAB
                for whole, part in zip(dims, call):
                    assert (part == whole or part % 16 == 0
                            or (whole - part) % 16 == 0)
            counts.append(len(blas))
        return counts

    @pytest.mark.parametrize("n", [1, 7, 9, 599])
    def test_every_gemm(self, monkeypatch, n):
        products = _spy_products(monkeypatch)
        model = cnn_init(seed=n)
        x = _patch_batch(n, seed=n).astype(np.float32)
        cnn_posteriors(model, x[:, 0])
        head_w, head_b, _, y, stats = _stage1_inputs(n)
        _stage1_grads(model, head_w, head_b, x, y, stats)
        assert max(self._check(products)) > 1
        # the ten filters (or channels) of a conv layer by im2col columns
        for (m, cols, k), _ in products:
            assert m != 10 or cols % 16 == 0 or k % 16 == 0

    def test_a_conv_block_is_few_numpy_calls(self, monkeypatch):
        # conv1's forward product on FORWARD_BLOCK patches is 59 BLAS calls,
        # 58 full 528-column tiles and the rest, made by 2 np.matmul calls;
        # no product of a block's forward and backward pass makes more
        products = _spy_products(monkeypatch)
        model = cnn_init(seed=0)
        head_w, head_b, x, y, stats = _stage1_inputs(FORWARD_BLOCK)
        _features(model, x)
        (dims, calls), *_ = products
        assert dims == (10, FORWARD_BLOCK * 88 * 44, 49)
        assert (len(calls), sum(map(len, calls))) == (2, 59)
        _stage1_grads(model, head_w, head_b, x, y, stats)
        assert max(self._check(products)) > 1
        assert max(len(calls) for _, calls in products) <= 2

    @pytest.mark.parametrize("n_in", [3, 2100])
    def test_mlp_train_and_forward(self, monkeypatch, n_in):
        rng = np.random.default_rng(n_in)
        x = rng.normal(size=(45, n_in))
        y = np.arange(45) % 2
        products = _spy_products(monkeypatch)
        model, _ = mlp_train(mlp_init(300, seed=0, n_in=n_in), x, y,
                             epochs=1)
        calls = self._check(products)
        # batches of 32 and 13: only the 2100-d input's are tiled
        assert (max(calls) > 1) == (n_in == 2100)
        products.clear()
        mlp_forward(model, rng.normal(size=(599, n_in)))
        assert max(self._check(products)) > 1

    def test_cnn_train_head_and_bias_fold(self, monkeypatch):
        x = _patch_batch(40, seed=3)[:, 0]
        y = np.arange(40) % 2
        stats = (np.zeros(PATCH_BINS), np.ones(PATCH_BINS))
        products = _spy_products(monkeypatch)
        cnn_train(x, y, stats, epochs=1, head_epochs=1)
        self._check(products)
        dims = [d for d, _ in products]
        assert (32, 300, 2100) in dims          # stage 2's forward product
        assert (2100, 300, 32) in dims          # and its weight gradient
        assert dims[-1] == (1, 300, 2100)       # the bias fold

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((32, 3), (3, 300)), ((3, 32), (32, 300)), ((32, 300), (300, 2)),
        ((8, 2100), (2100, 2)), ((2100,), (2100, 2)), ((5,), (5, 94)),
        ((10, 49), (49, 528))])
    def test_within_slab_is_numpys_product(self, a_shape, b_shape):
        rng = np.random.default_rng(len(a_shape))
        a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
        for lhs in (a, np.asfortranarray(a.T).T):
            got = mlp.matmul(lhs, b)
            assert got.tobytes() == (lhs @ b).tobytes()

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((599, 2100), (2100, 300)), ((32, 2100), (2100, 300)),
        ((2100,), (2100, 300)), ((599, 3), (3, 300)), ((10, 49), (49, 30976))])
    def test_tiled_product(self, a_shape, b_shape):
        rng = np.random.default_rng(len(a_shape))
        a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
        ref = a @ b
        np.testing.assert_allclose(mlp.matmul(a, b), ref, rtol=0,
                                   atol=1e-13 * np.abs(ref).max())

    def test_one_helper_makes_every_product(self):
        # no `@` in mlp.py or cnn.py, and numpy's products only in matmul
        products = {"matmul", "dot", "einsum", "tensordot", "inner", "vdot"}
        outside = []
        for module in (mlp, cnn):
            tree = ast.parse(Path(module.__file__).read_text("utf-8"))
            helper = [n for n in tree.body if isinstance(n, ast.FunctionDef)
                      and n.name == "matmul"]
            assert len(helper) == (module is mlp)
            inside = {id(n) for h in helper for n in ast.walk(h)}
            outside += [
                (module.__name__, node.lineno)
                for node in ast.walk(tree) if id(node) not in inside
                and (isinstance(node, (ast.BinOp, ast.AugAssign))
                     and isinstance(node.op, ast.MatMult)
                     or isinstance(node, ast.Attribute)
                     and node.attr in products)]
        assert outside == []

    def test_same_bits_at_any_blas_thread_count(self):
        # the head's products and a conv layer's forward and weight-gradient
        # products under one and two OpenBLAS threads, each in a new
        # interpreter, since OpenBLAS reads its thread count on import
        code = textwrap.dedent("""
            import hashlib
            import numpy as np
            from taanseg.mlp import matmul
            rng = np.random.default_rng(0)
            x = rng.normal(size=(599, 2100))
            w, d = rng.normal(size=(2100, 300)), rng.normal(size=(32, 300))
            f = rng.normal(size=(10, 49)).astype(np.float32)
            cols = rng.normal(size=(49, 30976)).astype(np.float32)
            h = hashlib.sha256()
            for p in (matmul(x, w), matmul(x[:32], w), matmul(x[:32].T, d),
                      matmul(x[0], w), matmul(f, cols),
                      matmul(cols[:10], cols.T)):
                h.update(p.tobytes())
            print(h.hexdigest())
            """)
        src = str(Path(mlp.__file__).parents[1])
        digests = {subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=src,
                                OPENBLAS_NUM_THREADS=str(threads))).stdout
            for threads in (1, 2)}
        assert len(digests) == 1


class TestFloat32AgainstFloat64:
    """cnn_train and cnn_posteriors in float32 against the same code run in
    float64 (PATCH_DTYPE set to float64). The model's weights are float64
    in both, and float32 is only what the conv stack computes in."""

    def test_training_losses_and_posteriors(self, monkeypatch):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, PATCH_BINS, PATCH_FRAMES))
        x[1::2, 30:33] += 3.0       # a ridge tells the classes apart
        y = np.arange(40) % 2
        stats = (np.zeros(PATCH_BINS), np.ones(PATCH_BINS))

        def run():
            m = cnn_train(x, y, stats, epochs=2, head_epochs=2, batch=8)
            return m, cnn_posteriors(m, x)

        m32, p32 = run()
        monkeypatch.setattr(cnn, "PATCH_DTYPE", np.float64)
        m64, p64 = run()
        assert m32.conv1_w.dtype == np.float64 and p32.dtype == np.float64
        for stage in ("stage1_loss", "stage2_loss"):
            np.testing.assert_allclose(m32.meta[stage], m64.meta[stage],
                                       rtol=1e-5)
        np.testing.assert_allclose(p32, p64, rtol=0, atol=1e-4)


def _train_peak(patches, labels, batch):
    stats = (np.zeros(PATCH_BINS), np.ones(PATCH_BINS))
    tracemalloc.start()
    try:
        cnn_train(patches, labels, stats, epochs=1, head_epochs=1,
                  batch=batch)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_memory_does_not_grow_with_batch():
    # stage 1 runs FORWARD_BLOCK patches at a time, so the batch size sets
    # only how often the weights move; a whole 64-patch batch would hold a
    # ~97 MB conv1 im2col matrix
    rng = np.random.default_rng(0)
    patches = [rng.normal(size=(PATCH_BINS, PATCH_FRAMES))
               for _ in range(599)]
    labels = rng.integers(0, 2, size=599)
    peak32 = _train_peak(patches, labels, 32)
    peak64 = _train_peak(patches, labels, 64)
    assert peak32 < 100 * 2**20
    assert peak64 <= 1.1 * peak32


SIGMOID_SPECIALS = [0.0, -0.0, 1e4, -1e4, 745.0, -745.0, 746.0, -746.0,
                    709.8, -709.8, 1.0, -1.0, np.finfo(np.float64).tiny,
                    -np.finfo(np.float64).tiny,
                    np.finfo(np.float64).tiny / 2**10,
                    -np.finfo(np.float64).tiny / 2**10, 5e-324, -5e-324,
                    np.inf, -np.inf]


class TestSigmoidBitIdentical:
    def test_special_values(self):
        x = np.array(SIGMOID_SPECIALS)
        got = sigmoid(x)
        assert np.array_equal(got.view(np.int64),
                              _oracle_sigmoid(x).view(np.int64))
        assert np.isnan(sigmoid(np.array([np.nan]))[0])

    def test_normal_draws(self):
        rng = np.random.default_rng(11)
        for scale in (1.0, 30.0):
            x = rng.normal(scale=scale, size=100_000)
            assert np.array_equal(sigmoid(x), _oracle_sigmoid(x))

    def test_in_place_matches_out_of_place(self):
        # every bit, NaN included, on the special values and 2e5 draws
        rng = np.random.default_rng(12)
        x = np.concatenate((SIGMOID_SPECIALS, [np.nan, -np.nan],
                            rng.normal(size=100_000),
                            rng.normal(scale=300.0, size=100_000)))
        assert np.array_equal(sigmoid(x).view(np.int64),
                              _out_of_place_sigmoid(x).view(np.int64))

    def test_two_full_size_arrays(self):
        # e and the result, beside the 1/8-size sign mask
        x = np.random.default_rng(3).normal(size=200_000)
        tracemalloc.start()
        try:
            sigmoid(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * x.nbytes

    def test_keeps_memory_layout(self):
        x = np.random.default_rng(2).normal(size=(5, 2, 4, 3))
        assert _channel_major(sigmoid(x.transpose(1, 0, 2, 3)))


def test_posteriors_memory_is_bounded():
    # 599 patches is one 10-minute concert. One unblocked forward pass
    # would hold a ~900 MB conv1 im2col buffer; blocks keep it small.
    rng = np.random.default_rng(0)
    patches = [rng.normal(size=(PATCH_BINS, PATCH_FRAMES))
               for _ in range(599)]
    model = cnn_init(seed=0)
    tracemalloc.start()
    try:
        post = cnn_posteriors(model, patches)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert post.shape == (599,)
    assert peak < 150 * 2**20
