"""Spectrogram-patch CNN: patch construction, forward inference with
from-scratch backprop, and the two-stage training procedure (conv stack
with a direct softmax head first, then a 300-unit fully connected head
trained on the frozen 2100-d pooling features).
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import dsp, mlp as mlp_mod, vocal
from .errors import EmptyInputError, InternalError, InvalidArgumentError
from .mlp import (check_arrays, cross_entropy, glorot_uniform, matmul,
                  seeded_rng, sigmoid, softmax)
from .pool import ordered_map, workers

PATCH_BINS = 94         # 0-727 Hz at 7.8125 Hz/bin (8 kHz, 1024-point DFT)
PATCH_HOP_S = 2 * vocal.TRACK_HOP_S     # 20 ms: the tracker's even frames
PATCH_FRAMES = round(1 / PATCH_HOP_S)   # 50 hops in one 1 s frame
BAND_VAR_FLOOR = 1e-12
FORWARD_BLOCK = 8       # patches per block, one block per pool work item
# patches, and every array of the conv stack, are float32; the model keeps
# its weights in float64 and the stack casts them on every call
PATCH_DTYPE = np.float32

# shape chain for the full forward pass
SHAPE_CHAIN = (
    (PATCH_BINS, PATCH_FRAMES),
    (10, 88, 44),
    (10, 44, 22),
    (10, 42, 20),
    (10, 21, 10),
    (2100,),
    (300,),
    (2,),
)


# the shape of each CnnModel array, in field order; cnn_init builds these
SHAPES = {
    "conv1_w": (10, 1, 7, 7), "conv1_b": (10,),
    "conv2_w": (10, 10, 3, 3), "conv2_b": (10,),
    "fc_w": (2100, 300), "fc_b": (300,), "out_w": (300, 2), "out_b": (2,),
    "band_mean": (PATCH_BINS,), "band_std": (PATCH_BINS,),
}


@dataclass
class CnnModel:
    """Checked on construction: SHAPES, finite, band_std positive, and the
    conv arrays (the float32 stack casts them) within float32's range."""

    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    fc_w: np.ndarray
    fc_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    band_mean: np.ndarray
    band_std: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        check_arrays(self, "cnn", SHAPES)
        if not (self.band_std > 0).all():
            raise InvalidArgumentError("band_std entries must be positive")
        bad = [name for name in SHAPES if name.startswith("conv") and (
            np.abs(getattr(self, name)) > np.finfo(np.float32).max).any()]
        if bad:
            raise InvalidArgumentError(f"{', '.join(bad)} beyond float32's "
                                       "range")

    @property
    def head(self):
        """The 2100 -> 300 -> 2 fully connected head as an MlpModel."""
        return mlp_mod.MlpModel(self.fc_w, self.fc_b, self.out_w, self.out_b)


def spectrogram_band_stats(specs):
    """Mean and floored std of the PATCH_BINS lowest bands over specs.

    Several spectrograms pool each one's frame count, mean and sum of
    squared deviations (Chan, Golub and LeVeque, 1979), so no concatenated
    copy of the bands is made; one is read with numpy's mean and var."""
    bands = [s.values[:PATCH_BINS] for s in specs]
    bands = [b for b in bands if b.shape[1]] or bands[:1]
    if len(bands) == 1:
        mean, var = bands[0].mean(axis=1), bands[0].var(axis=1)
    else:
        counts = np.array([b.shape[1] for b in bands], dtype=np.float64)
        means = np.array([b.mean(axis=1) for b in bands])
        sq_dev = matmul(counts, np.array([b.var(axis=1) for b in bands]))
        mean = matmul(counts, means) / counts.sum()
        var = (sq_dev + matmul(counts, (means - mean) ** 2)) / counts.sum()
    return mean, np.sqrt(np.maximum(var, BAND_VAR_FLOOR))


def patch_spectrogram(clip):
    """The PATCH_BINS lowest bands of the log spectrogram patches are cut
    from, at dsp.WIN_S windows every PATCH_HOP_S of the 8 kHz clip; no
    wider band is kept past the FFT."""
    return dsp.log_spectrogram(dsp.resample(clip, dsp.ANALYSIS_HZ), dsp.WIN_S,
                               PATCH_HOP_S, dsp.N_DFT, n_bins=PATCH_BINS)


def make_patches(spec, band_stats=None):
    """Cut a log spectrogram into band-normalized 94x50 patches.

    The spectrogram must have patch_spectrogram's bins and hop. Returns
    (patches, (band_mean, band_std)): one C-contiguous (n, 94, 50)
    PATCH_DTYPE array, patch k holding frames 50k..50k+49, normalized in
    float64 and rounded once, and the statistics, from this data if None.
    """
    if (abs(spec.bin_hz - dsp.ANALYSIS_HZ / dsp.N_DFT) > 1e-9
            or abs(spec.hop_s - PATCH_HOP_S) > 1e-9):
        raise InvalidArgumentError(
            f"patches require an {dsp.ANALYSIS_HZ // 1000} kHz / {dsp.N_DFT}"
            f"-point DFT / {round(PATCH_HOP_S * 1000)} ms hop spectrogram")
    if spec.n_bins < PATCH_BINS:
        raise InvalidArgumentError("spectrogram has too few bins")
    stats = spectrogram_band_stats([spec]) if band_stats is None else band_stats
    mean, std = (np.asarray(v, dtype=np.float64) for v in stats)
    if mean.shape != (PATCH_BINS,) or std.shape != (PATCH_BINS,):
        raise InvalidArgumentError("band statistics need 94 entries each")
    n = spec.n_frames // PATCH_FRAMES
    bands = spec.values[:PATCH_BINS, : n * PATCH_FRAMES].reshape(
        PATCH_BINS, n, PATCH_FRAMES).transpose(1, 0, 2)
    patches = np.empty((n, PATCH_BINS, PATCH_FRAMES), dtype=PATCH_DTYPE)
    for s in range(0, n, FORWARD_BLOCK):  # float64 one block at a time
        chunk = bands[s : s + FORWARD_BLOCK] - mean[:, None]
        chunk /= std[:, None]
        patches[s : s + FORWARD_BLOCK] = chunk
    return patches, (mean, std)


def _im2col(x, kh, kw):
    """Patch matrix of a valid kh x kw correlation: x (B,C,H,W) -> (kh*kw*C,
    n), rows in (i, j, c) order and columns in (b, h, w) order, one copy of
    the windows of x's channel-major (C,B,H,W) view. n is B*H'*W' rounded
    up to a multiple of 16 with zero columns (see matmul)."""
    b, c, h, w = x.shape
    ho, wo = h - kh + 1, w - kw + 1
    n = b * ho * wo
    cols = np.empty((kh * kw * c, -(-n // 16) * 16), dtype=x.dtype)
    cols[:, n:] = 0
    win = np.lib.stride_tricks.sliding_window_view(
        x.transpose(1, 0, 2, 3), (kh, kw), axis=(2, 3))
    cols[:, :n].reshape(kh, kw, c, b, ho, wo)[...] = win.transpose(
        4, 5, 0, 1, 2, 3)
    return cols


def _conv_valid(x, w, b, cols=None):
    """Valid cross-correlation as im2col + GEMMs, in x's dtype. x (B,C,H,W),
    w (F,C,kh,kw) -> (B,F,H',W'), an NCHW view of channel-major (F,B,H',W')
    memory. cols, when given, is x's im2col matrix, built by the caller."""
    f, _, kh, kw = w.shape
    bsz, _, h, wd = x.shape
    ho, wo = h - kh + 1, wd - kw + 1
    if cols is None:
        cols = _im2col(x, kh, kw)
    z = matmul(w.transpose(0, 2, 3, 1).reshape(f, -1).astype(x.dtype), cols)
    z += np.asarray(b, dtype=z.dtype).reshape(-1, 1)
    return z[:, : bsz * ho * wo].reshape(f, bsz, ho, wo).transpose(1, 0, 2, 3)


def _conv_backward(w, d_out, cols, input_grad=True):
    """Gradients of a valid cross-correlation of input x wrt weights, bias
    and, with input_grad, x (else None), which is the zero-padded d_out
    correlated with the flipped, channel-swapped kernel; cols: x's im2col."""
    (f, c, kh, kw), (b, _, ho, wo) = w.shape, d_out.shape
    d_cm = d_out.transpose(1, 0, 2, 3)
    d = d_cm.reshape(f, -1)
    gb = d.sum(axis=1)
    if d.shape[1] < cols.shape[1]:  # to the zero-padded width of cols
        d = np.hstack((d, np.zeros((f, cols.shape[1] - d.shape[1]), d.dtype)))
    gw = matmul(d, cols.T).reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
    if not input_grad:
        return gw, gb, None
    pad = np.zeros((f, b, ho + 2 * kh - 2, wo + 2 * kw - 2), d_cm.dtype)
    pad[:, :, kh - 1 : kh - 1 + ho, kw - 1 : kw - 1 + wo] = d_cm
    return gw, gb, _conv_valid(pad.transpose(1, 0, 2, 3),
                               w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 0.0)


def _pool2(x):
    """2x2 mean pooling; the result keeps x's memory layout."""
    out = x[:, :, 0::2, 0::2] + x[:, :, 0::2, 1::2]
    out += x[:, :, 1::2, 0::2]
    out += x[:, :, 1::2, 1::2]
    return np.divide(out, 4.0, out=out)


def _pool2_backward(d_out, in_shape):
    """Spread each pooled gradient evenly over its 2x2 block, into an NCHW
    view of channel-major memory."""
    b, f, h, w = in_shape
    up = np.empty((f, b, h, w), dtype=d_out.dtype).transpose(1, 0, 2, 3)
    q = d_out / 4.0
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        up[:, :, i::2, j::2] = q
    return up


def _check_shape(x, expected, stage):
    if x.shape[1:] != expected:
        raise InternalError(f"{stage}: shape {x.shape[1:]}, expected {expected}")


def _conv_stack_forward(model, xb, keep_cols=False):
    """Shared conv/pool stack; returns intermediates for backprop, with
    keep_cols also both im2col matrices (else each is freed after use)."""
    cols1 = _im2col(xb, *model.conv1_w.shape[2:]) if keep_cols else None
    a1 = _conv_valid(xb, model.conv1_w, model.conv1_b, cols1)
    _check_shape(a1, SHAPE_CHAIN[1], "conv1")
    p1 = _pool2(sigmoid(a1, out=a1))
    _check_shape(p1, SHAPE_CHAIN[2], "pool1")
    cols2 = _im2col(p1, *model.conv2_w.shape[2:]) if keep_cols else None
    a2 = _conv_valid(p1, model.conv2_w, model.conv2_b, cols2)
    _check_shape(a2, SHAPE_CHAIN[3], "conv2")
    p2 = _pool2(sigmoid(a2, out=a2))
    _check_shape(p2, SHAPE_CHAIN[4], "pool2")
    flat = p2.reshape(len(xb), -1)      # (B, 2100) once pool2 checks out
    return {"cols1": cols1, "a1": a1, "p1": p1, "cols2": cols2, "a2": a2,
            "p2": p2, "flat": flat}


def _features(model, x, run=ordered_map):
    """Flattened pooling features (N, 2100) of a whole patch set in x's
    dtype, computed FORWARD_BLOCK patches at a time so the im2col buffers
    stay bounded; `run` (a `pool.workers` map) computes the blocks, each
    writing its own rows."""
    flat = np.empty((len(x),) + SHAPE_CHAIN[5], dtype=x.dtype)

    def block(s):
        flat[s : s + FORWARD_BLOCK] = _conv_stack_forward(
            model, x[s : s + FORWARD_BLOCK])["flat"]

    run(block, range(0, len(x), FORWARD_BLOCK))
    return flat


def _stack_patches(patches):
    """(n, 1, 94, 50) PATCH_DTYPE batch view of an (n, 94, 50) patch array,
    checked here only: EmptyInputError if empty, else InvalidArgumentError
    if malformed."""
    try:
        x = np.asarray(patches, dtype=PATCH_DTYPE)
    except ValueError as exc:   # a ragged list of patches
        raise InvalidArgumentError(f"patches not one array: {exc}") from None
    if x.ndim and len(x) == 0:
        raise EmptyInputError("no 1 s spectrogram patch: audio too short")
    if x.shape[1:] != (PATCH_BINS, PATCH_FRAMES):
        raise InvalidArgumentError(f"patches must be n x 94 x 50, not {x.shape}")
    if not np.isfinite(x).all():
        raise InvalidArgumentError("patch contains non-finite values")
    return x[:, None]


def frame_features(model, patches):
    """The CNN's frame features, which `model.head` scores: (n, 2100) rows
    of the second pooling layer, SHAPE_CHAIN[4] maps, per (n, 94, 50) patch."""
    return _features(model, _stack_patches(patches))


def cnn_posteriors(model, patches):
    """Batched taan posteriors (unit 1) for an (n, 94, 50) patch array."""
    return mlp_mod.mlp_forward(model.head, frame_features(model, patches))[:, 1]


def cnn_init(seed):
    """Glorot-uniform conv/linear weights, zero biases, unit band stats."""
    rng = seeded_rng(seed)
    arrays = {name: glorot_uniform(rng, shape) if name.endswith("_w")
              else np.zeros(shape) for name, shape in SHAPES.items()}
    arrays["band_std"] = np.ones(PATCH_BINS)
    return CnnModel(**arrays, meta={"seed": seed})


def _stage1_block_grads(model, head_w, head_b, xb, yb, wb, mu, inv_sd):
    """_stage1_grads of one block; its im2col matrices serve both passes,
    and every intermediate is freed on return."""
    acts = _conv_stack_forward(model, xb, keep_cols=True)
    feat = (acts["flat"] - mu) * inv_sd
    delta = softmax(matmul(feat, head_w) + head_b)
    nll = cross_entropy(delta, yb, wb)
    d_p2 = (matmul(delta, head_w.T) * inv_sd).reshape(acts["p2"].shape)
    d_a2 = _pool2_backward(d_p2, acts["a2"].shape)
    d_z2 = d_a2 * acts["a2"] * (1.0 - acts["a2"])
    g2w, g2b, d_p1 = _conv_backward(model.conv2_w, d_z2, acts["cols2"])
    d_a1 = _pool2_backward(d_p1, acts["a1"].shape)
    d_z1 = d_a1 * acts["a1"] * (1.0 - acts["a1"])
    g1w, g1b, _ = _conv_backward(model.conv1_w, d_z1, acts["cols1"],
                                 input_grad=False)
    return (g1w, g1b, g2w, g2b, matmul(feat.T, delta), delta.sum(0)), nll


def _stage1_grads(model, head_w, head_b, xb, yb, wb, feat_stats,
                  run=ordered_map):
    """Gradients for conv stack + direct softmax head on one batch, and its
    NLL summed with the batch weights wb, in xb's dtype, FORWARD_BLOCK
    patches at a time on `run`'s worker threads (all is row-wise up to the
    batch sums, which add the blocks in order, so the worker count changes
    nothing and blocking only the order of those sums). feat_stats is a
    fixed (mean, std) z-scoring the 2100-d pooling vectors before the head,
    which preconditions it without changing the stack."""
    head_w, head_b, mu, inv_sd = (np.asarray(v, dtype=xb.dtype) for v in (
        head_w, head_b, feat_stats[0], 1.0 / feat_stats[1]))
    blocks = run(lambda s: _stage1_block_grads(
        model, head_w, head_b,
        *(v[s : s + FORWARD_BLOCK] for v in (xb, yb, wb)), mu, inv_sd),
        range(0, len(xb), FORWARD_BLOCK))
    grads = tuple(sum(g) for g in zip(*(g for g, _ in blocks)))
    return grads, sum(nll for _, nll in blocks)


def _feature_stats(feats):
    """Per-column float64 mean and std (floored at 1e-6) of pooling
    features."""
    return (feats.mean(axis=0, dtype=np.float64),
            np.maximum(feats.std(axis=0, dtype=np.float64), 1e-6))


# a diverging run overflows float32 before its first non-finite epoch loss
# stops it (sgd_epochs raises), so numpy's warnings would only say it first
@np.errstate(over="ignore", invalid="ignore")
def cnn_train(patches, labels, band_stats, epochs=60, lr0=0.1, halve_every=10,
              batch=32, seed=0, head_epochs=None):
    """Two-stage training.

    Stage 1 trains the conv/pool stack with the 2100-d pooling outputs
    wired straight into a softmax layer; stage 2 freezes the stack and
    trains a 300-hidden fully connected head on the extracted vectors.
    Learning rate starts at lr0 and is halved every `halve_every` epochs.
    """
    x = _stack_patches(patches)
    labels, weights = mlp_mod.training_labels(labels, len(x), batch)
    band_mean, band_std = band_stats
    model = replace(cnn_init(seed), band_mean=band_mean, band_std=band_std)

    rng = seeded_rng(seed)
    head_w = glorot_uniform(rng, (SHAPE_CHAIN[5][0], 2))
    head_b = np.zeros(2)

    # every batch's blocks run on the same worker threads: a new pool per
    # batch would leave malloc more arenas, each caching a block's memory
    with workers() as run:
        # fixed preconditioning statistics from the untrained stack; the
        # sqrt(D) factor keeps the softmax-head step size independent of
        # the 2100-d feature width
        mu0, sd0 = _feature_stats(_features(model, x, run))
        s1_stats = (mu0, sd0 * np.sqrt(SHAPE_CHAIN[5][0]))

        # conv gradients sum over every output position, so scale their
        # steps by the map size to keep updates comparable across layers
        n1, n2 = (SHAPE_CHAIN[k][1] * SHAPE_CHAIN[k][2] for k in (1, 3))
        stage1_loss = list(mlp_mod.sgd_epochs(
            (model.conv1_w, model.conv1_b, model.conv2_w, model.conv2_b,
             head_w, head_b), (n1, n1, n2, n2, 1, 1),
            lambda xb, yb, wb: _stage1_grads(model, head_w, head_b, xb, yb,
                                             wb, s1_stats, run),
            x, labels, weights, rng, lr0, epochs, batch,
            halve_every))
        feats = _features(model, x, run)

    # stage 2: frozen conv stack, train the fully connected head on
    # z-scored pooling vectors; the affine transform folds exactly into
    # the stored weights afterwards, so inference sees raw features.
    mu, sd = _feature_stats(feats)
    head = mlp_mod.mlp_init(hidden=300, seed=seed, n_in=2100)
    head, stage2_loss = mlp_mod.mlp_train(
        head, (feats - mu) / sd, labels, lr=lr0,
        epochs=epochs if head_epochs is None else head_epochs,
        batch=batch, seed=seed, class_balance=False, halve_every=halve_every)
    meta = dict(model.meta, epochs=epochs, lr0=lr0, halve_every=halve_every,
                stage1_loss=[float(v) for v in stage1_loss],
                stage2_loss=[float(v) for v in stage2_loss])
    return replace(model, fc_w=head.w1 / sd[:, None],
                   fc_b=head.b1 - matmul(mu / sd, head.w1), out_w=head.w2,
                   out_b=head.b2, meta=meta)
