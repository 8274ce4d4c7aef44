"""Spectrogram-patch CNN: patch construction, forward inference with
from-scratch backprop, and the two-stage training procedure (conv stack
with a direct softmax head first, then a 300-unit fully connected head
trained on the frozen 2100-d pooling features).
"""

from dataclasses import dataclass, field

import numpy as np

from . import mlp as mlp_mod
from .errors import EmptyInputError, InternalError, InvalidArgumentError
from .mlp import sigmoid, softmax

PATCH_BINS = 94         # 0-1469 Hz at 15.625 Hz/bin
PATCH_FRAMES = 50       # 1 s at 20 ms hop
BAND_VAR_FLOOR = 1e-12
FORWARD_BLOCK = 8       # patches per block of a whole-set forward pass

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


@dataclass
class SpectrogramPatch:
    values: np.ndarray            # (94, 50) band-normalized log magnitudes
    origin: tuple = ("", 0)       # (concert id, start second)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (PATCH_BINS, PATCH_FRAMES):
            raise InvalidArgumentError(
                f"patch must be {PATCH_BINS}x{PATCH_FRAMES}, "
                f"got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise InvalidArgumentError("patch contains non-finite values")


@dataclass
class CnnModel:
    conv1_w: np.ndarray           # (10, 1, 7, 7)
    conv1_b: np.ndarray           # (10,)
    conv2_w: np.ndarray           # (10, 10, 3, 3)
    conv2_b: np.ndarray           # (10,)
    fc_w: np.ndarray              # (2100, 300)
    fc_b: np.ndarray              # (300,)
    out_w: np.ndarray             # (300, 2)
    out_b: np.ndarray             # (2,)
    band_mean: np.ndarray         # (94,)
    band_std: np.ndarray          # (94,)
    meta: dict = field(default_factory=dict)


def spectrogram_band_stats(specs):
    """Mean and floored std of the PATCH_BINS lowest bands over specs."""
    bands = [s.values[:PATCH_BINS] for s in specs]
    bands = bands[0] if len(bands) == 1 else np.concatenate(bands, axis=1)
    return (bands.mean(axis=1),
            np.sqrt(np.maximum(bands.var(axis=1), BAND_VAR_FLOOR)))


def make_patches(spec, band_stats=None):
    """Cut a log spectrogram into band-normalized 94x50 patches.

    The spectrogram must come from 8 kHz audio with a 1024-point DFT at
    20 ms hop. Returns (patches, (band_mean, band_std)); statistics are
    computed from this data when band_stats is None.
    """
    if abs(spec.bin_hz - 8000.0 / 1024) > 1e-9 or abs(spec.hop_s - 0.02) > 1e-9:
        raise InvalidArgumentError(
            "patches require an 8 kHz / 1024-point DFT / 20 ms hop spectrogram"
        )
    if spec.n_bins < PATCH_BINS:
        raise InvalidArgumentError("spectrogram has too few bins")
    if band_stats is None:
        mean, std = spectrogram_band_stats([spec])
    else:
        mean, std = (np.asarray(v, dtype=np.float64) for v in band_stats)
        if mean.shape != (PATCH_BINS,) or std.shape != (PATCH_BINS,):
            raise InvalidArgumentError("band statistics need 94 entries each")
    normed = (spec.values[:PATCH_BINS] - mean[:, None]) / std[:, None]
    step = PATCH_FRAMES
    patches = [SpectrogramPatch(normed[:, k * step : (k + 1) * step], ("", k))
               for k in range(spec.n_frames // step)]
    return patches, (mean, std)


def _im2col(x, kh, kw):
    """Patch matrix of a valid kh x kw correlation: x (B,C,H,W) ->
    (B*H'*W', kh*kw*C), rows in channels-last (b, h, w) order and columns
    in (i, j, c) order, so each copied run is one pixel's channels."""
    win = np.lib.stride_tricks.sliding_window_view(
        x.transpose(0, 2, 3, 1), (kh, kw), axis=(1, 2))
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(
        -1, kh * kw * x.shape[1])


def _conv_valid(x, w, b, cols=None):
    """Valid cross-correlation as im2col + one matmul. x (B,C,H,W),
    w (F,C,kh,kw) -> (B,F,H',W'), an NCHW view of channels-last memory.
    cols, when given, is x's im2col matrix, built once by the caller."""
    f, _, kh, kw = w.shape
    bsz, _, h, wd = x.shape
    if cols is None:
        cols = _im2col(x, kh, kw)
    z = cols @ w.transpose(0, 2, 3, 1).reshape(f, -1).T
    z += b
    return z.reshape(bsz, h - kh + 1, wd - kw + 1, f).transpose(0, 3, 1, 2)


def _conv_backward(x, w, d_out, input_grad=True, cols=None):
    """Gradients of a valid cross-correlation wrt weights, bias and, with
    input_grad, input (else None), which is the zero-padded d_out correlated
    with the flipped, channel-swapped kernel; cols: x's im2col, if built."""
    f, c, kh, kw = w.shape
    if cols is None:
        cols = _im2col(x, kh, kw)
    d = d_out.transpose(0, 2, 3, 1).reshape(-1, f)
    gw = (d.T @ cols).reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
    gb = d.sum(axis=0)
    if not input_grad:
        return gw, gb, None
    pad = np.pad(d_out.transpose(0, 2, 3, 1),
                 ((0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1), (0, 0)))
    return gw, gb, _conv_valid(pad.transpose(0, 3, 1, 2),
                               w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 0.0)


def _pool2(x):
    """2x2 mean pooling; the result keeps x's memory layout."""
    return (x[:, :, 0::2, 0::2] + x[:, :, 0::2, 1::2]
            + x[:, :, 1::2, 0::2] + x[:, :, 1::2, 1::2]) / 4.0


def _pool2_backward(d_out, in_shape):
    """Spread each pooled gradient evenly over its 2x2 block."""
    b, f, h, w = in_shape
    up = np.empty((b, h, w, f)).transpose(0, 3, 1, 2)
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
    z1 = _conv_valid(xb, model.conv1_w, model.conv1_b, cols1)
    a1 = sigmoid(z1)
    _check_shape(a1, SHAPE_CHAIN[1], "conv1")
    p1 = _pool2(a1)
    _check_shape(p1, SHAPE_CHAIN[2], "pool1")
    cols2 = _im2col(p1, *model.conv2_w.shape[2:]) if keep_cols else None
    z2 = _conv_valid(p1, model.conv2_w, model.conv2_b, cols2)
    a2 = sigmoid(z2)
    _check_shape(a2, SHAPE_CHAIN[3], "conv2")
    p2 = _pool2(a2)
    _check_shape(p2, SHAPE_CHAIN[4], "pool2")
    flat = p2.reshape(len(xb), -1)      # (B, 2100) once pool2 checks out
    return {"cols1": cols1, "a1": a1, "p1": p1, "cols2": cols2, "a2": a2,
            "p2": p2, "flat": flat}


def _features(model, x):
    """Flattened pooling features (N, 2100) of a whole patch set, computed
    FORWARD_BLOCK patches at a time so the im2col buffers stay bounded."""
    flat = np.empty((len(x),) + SHAPE_CHAIN[5])
    for s in range(0, len(x), FORWARD_BLOCK):
        flat[s : s + FORWARD_BLOCK] = _conv_stack_forward(
            model, x[s : s + FORWARD_BLOCK])["flat"]
    return flat


def _forward(model, xb, return_maps=False):
    """Posteriors (B, 2) for a patch batch (B,1,94,50); with return_maps
    also the second pooling layer's channel maps (B, 10, 21, 10)."""
    flat = _features(model, xb)
    h = sigmoid(flat @ model.fc_w + model.fc_b)
    _check_shape(h, SHAPE_CHAIN[6], "fc")
    p = softmax(h @ model.out_w + model.out_b)
    _check_shape(p, SHAPE_CHAIN[7], "out")
    if return_maps:
        return p, flat.reshape((-1,) + SHAPE_CHAIN[4])
    return p


def cnn_forward(model, patch, return_maps=False):
    """Posterior 2-vector for one patch; optionally the second pooling
    layer's 10 channel maps (21x10 each)."""
    p, maps = _forward(model, patch.values[None, None], return_maps=True)
    return (p[0], maps[0]) if return_maps else p[0]


def _stack_patches(patches):
    """(n, 1, 94, 50) batch of a patch list; EmptyInputError when empty."""
    if not patches:
        raise EmptyInputError("no 1 s spectrogram patch: audio too short")
    return np.stack([p.values for p in patches])[:, None]


def cnn_posteriors(model, patches):
    """Batched taan posteriors (unit 1) for a patch list."""
    return _forward(model, _stack_patches(patches))[:, 1]


def export_channel_maps(model, patch, channel):
    """One 21x10 channel map from the second pooling layer."""
    if not 0 <= channel <= 9:
        raise InvalidArgumentError("channel must be in 0..9")
    _, maps = cnn_forward(model, patch, return_maps=True)
    return maps[channel]


def cnn_init(seed):
    """Glorot-uniform conv/linear weights, zero biases, unit band stats."""
    rng = np.random.default_rng(seed)

    def glorot(shape, fan_in, fan_out):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-r, r, size=shape)

    return CnnModel(
        conv1_w=glorot((10, 1, 7, 7), 49, 10 * 49),
        conv1_b=np.zeros(10),
        conv2_w=glorot((10, 10, 3, 3), 90, 10 * 9),
        conv2_b=np.zeros(10),
        fc_w=glorot((2100, 300), 2100, 300),
        fc_b=np.zeros(300),
        out_w=glorot((300, 2), 300, 2),
        out_b=np.zeros(2),
        band_mean=np.zeros(PATCH_BINS),
        band_std=np.ones(PATCH_BINS),
        meta={"seed": seed},
    )


def _stage1_block_grads(model, head_w, head_b, xb, yb, mu, inv_sd):
    """_stage1_grads of one block; its im2col matrices serve both passes,
    and every intermediate is freed on return."""
    acts = _conv_stack_forward(model, xb, keep_cols=True)
    rows = np.arange(len(xb))
    feat = (acts["flat"] - mu) * inv_sd
    p = softmax(feat @ head_w + head_b)
    delta = p.copy()
    delta[rows, yb] -= 1.0
    d_p2 = ((delta @ head_w.T) * inv_sd).reshape(acts["p2"].shape)
    d_a2 = _pool2_backward(d_p2, acts["a2"].shape)
    d_z2 = d_a2 * acts["a2"] * (1.0 - acts["a2"])
    g2w, g2b, d_p1 = _conv_backward(acts["p1"], model.conv2_w, d_z2,
                                    cols=acts["cols2"])
    d_a1 = _pool2_backward(d_p1, acts["a1"].shape)
    d_z1 = d_a1 * acts["a1"] * (1.0 - acts["a1"])
    g1w, g1b, _ = _conv_backward(None, model.conv1_w, d_z1, input_grad=False,
                                 cols=acts["cols1"])
    nll = float(np.sum(-np.log(np.maximum(p[rows, yb], 1e-300))))
    return (g1w, g1b, g2w, g2b, feat.T @ delta, delta.sum(axis=0)), nll


def _stage1_grads(model, head_w, head_b, xb, yb, feat_stats=None):
    """Gradients for conv stack + direct softmax head on one batch, and its
    summed NLL, FORWARD_BLOCK patches at a time (all is row-wise up to the
    batch sums, so blocking changes only their order). feat_stats, if
    given, is a fixed (mean, std) z-scoring the 2100-d pooling vectors
    before the head, which preconditions it without changing the stack."""
    mu, sd = (0.0, 1.0) if feat_stats is None else feat_stats
    blocks = [_stage1_block_grads(model, head_w, head_b,
                                  xb[s : s + FORWARD_BLOCK],
                                  yb[s : s + FORWARD_BLOCK], mu, 1.0 / sd)
              for s in range(0, len(xb), FORWARD_BLOCK)]
    grads = tuple(sum(g) for g in zip(*(g for g, _ in blocks)))
    return grads, sum(nll for _, nll in blocks)


def _feature_stats(feats):
    """Per-column mean and std (floored at 1e-6) of pooling features."""
    return feats.mean(axis=0), np.maximum(feats.std(axis=0), 1e-6)


def cnn_train(patches, labels, band_stats, epochs=60, lr0=0.1, halve_every=10,
              batch=32, seed=0, head_epochs=None):
    """Two-stage training.

    Stage 1 trains the conv/pool stack with the 2100-d pooling outputs
    wired straight into a softmax layer; stage 2 freezes the stack and
    trains a 300-hidden fully connected head on the extracted vectors.
    Learning rate starts at lr0 and is halved every `halve_every` epochs.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(np.unique(labels)) < 2:
        raise InvalidArgumentError("training set must contain both classes")
    x = _stack_patches(patches)
    model = cnn_init(seed)
    model.band_mean, model.band_std = band_stats

    rng = np.random.default_rng(seed)
    r = np.sqrt(6.0 / (2100 + 2))
    head_w = rng.uniform(-r, r, size=(2100, 2))
    head_b = np.zeros(2)

    # fixed preconditioning statistics from the untrained stack; the
    # sqrt(D) factor keeps the softmax-head step size independent of the
    # 2100-d feature width
    mu0, sd0 = _feature_stats(_features(model, x))
    s1_stats = (mu0, sd0 * np.sqrt(SHAPE_CHAIN[5][0]))

    # conv gradients sum over every output position, so scale their steps
    # by the map size to keep updates comparable across layers
    n1, n2 = (SHAPE_CHAIN[k][1] * SHAPE_CHAIN[k][2] for k in (1, 3))
    stage1_loss = list(mlp_mod.sgd_epochs(
        (model.conv1_w, model.conv1_b, model.conv2_w, model.conv2_b,
         head_w, head_b), (n1, n1, n2, n2, 1, 1),
        lambda xb, yb, _: _stage1_grads(model, head_w, head_b, xb, yb,
                                        s1_stats),
        x, labels, np.ones(len(x)), rng, lr0, epochs, batch, halve_every))

    # stage 2: frozen conv stack, train the fully connected head on
    # z-scored pooling vectors; the affine transform folds exactly into
    # the stored weights afterwards, so inference sees raw features.
    feats = _features(model, x)
    mu, sd = _feature_stats(feats)
    head = mlp_mod.mlp_init(hidden=300, seed=seed, n_in=2100, n_out=2)
    head, stage2_loss = mlp_mod.mlp_train(
        head, (feats - mu) / sd, labels, lr=lr0,
        epochs=epochs if head_epochs is None else head_epochs,
        batch=batch, seed=seed, class_balance=False, halve_every=halve_every,
    )
    model.fc_w = head.w1 / sd[:, None]
    model.fc_b = head.b1 - (mu / sd) @ head.w1
    model.out_w = head.w2
    model.out_b = head.b2
    model.meta.update(epochs=epochs, lr0=lr0, halve_every=halve_every,
                      stage1_loss=[float(v) for v in stage1_loss],
                      stage2_loss=[float(v) for v in stage2_loss])
    return model
