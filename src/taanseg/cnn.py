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
    bands = spec.values[:PATCH_BINS]
    if band_stats is None:
        mean = bands.mean(axis=1)
        std = np.sqrt(np.maximum(bands.var(axis=1), BAND_VAR_FLOOR))
    else:
        mean, std = band_stats
        mean = np.asarray(mean, dtype=np.float64)
        std = np.asarray(std, dtype=np.float64)
        if mean.shape != (PATCH_BINS,) or std.shape != (PATCH_BINS,):
            raise InvalidArgumentError("band statistics need 94 entries each")
    normed = (bands - mean[:, None]) / std[:, None]
    n_patches = spec.n_frames // PATCH_FRAMES
    patches = [
        SpectrogramPatch(
            values=normed[:, k * PATCH_FRAMES : (k + 1) * PATCH_FRAMES],
            origin=("", k),
        )
        for k in range(n_patches)
    ]
    return patches, (mean, std)


def _im2col(x, kh, kw):
    """Patch matrix of a valid kh x kw correlation: x (B,C,H,W) ->
    (B*H'*W', kh*kw*C), rows in channels-last (b, h, w) order and columns
    in (i, j, c) order, so each copied run is one pixel's channels."""
    win = np.lib.stride_tricks.sliding_window_view(
        x.transpose(0, 2, 3, 1), (kh, kw), axis=(1, 2))
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(
        -1, kh * kw * x.shape[1])


def _conv_valid(x, w, b):
    """Valid cross-correlation as im2col + one matmul. x (B,C,H,W),
    w (F,C,kh,kw) -> (B,F,H',W'), an NCHW view of channels-last memory."""
    f, _, kh, kw = w.shape
    bsz, _, h, wd = x.shape
    z = _im2col(x, kh, kw) @ w.transpose(0, 2, 3, 1).reshape(f, -1).T
    z += b
    return z.reshape(bsz, h - kh + 1, wd - kw + 1, f).transpose(0, 3, 1, 2)


def _conv_backward(x, w, d_out, input_grad=True):
    """Gradients of a valid cross-correlation wrt weights, bias and, with
    input_grad, input (else None). The input gradient d @ W is scattered
    back one kernel tap at a time."""
    f, c, kh, kw = w.shape
    bsz, _, ho, wo = d_out.shape
    d = d_out.transpose(0, 2, 3, 1).reshape(-1, f)
    gw = (d.T @ _im2col(x, kh, kw)).reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
    gb = d.sum(axis=0)
    if not input_grad:
        return gw, gb, None
    dcols = (d @ w.transpose(0, 2, 3, 1).reshape(f, -1)).reshape(
        bsz, ho, wo, kh, kw, c)
    gx = np.zeros((bsz, x.shape[2], x.shape[3], c))
    for i in range(kh):
        for j in range(kw):
            gx[:, i : i + ho, j : j + wo] += dcols[:, :, :, i, j]
    return gw, gb, gx.transpose(0, 3, 1, 2)


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


def _conv_stack_forward(model, xb):
    """Shared conv/pool stack; returns intermediates for backprop."""
    z1 = _conv_valid(xb, model.conv1_w, model.conv1_b)
    a1 = sigmoid(z1)
    _check_shape(a1, SHAPE_CHAIN[1], "conv1")
    p1 = _pool2(a1)
    _check_shape(p1, SHAPE_CHAIN[2], "pool1")
    z2 = _conv_valid(p1, model.conv2_w, model.conv2_b)
    a2 = sigmoid(z2)
    _check_shape(a2, SHAPE_CHAIN[3], "conv2")
    p2 = _pool2(a2)
    _check_shape(p2, SHAPE_CHAIN[4], "pool2")
    flat = p2.reshape(len(xb), -1)      # (B, 2100) once pool2 checks out
    return {"x": xb, "a1": a1, "p1": p1, "a2": a2, "p2": p2, "flat": flat}


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


def _stage1_grads(model, head_w, head_b, xb, yb, feat_stats=None):
    """Gradients for conv stack + direct softmax head on one batch.

    feat_stats, when given, is a fixed (mean, std) pair used to z-score
    the 2100-d pooling vectors before the head; this preconditions the
    head without changing what the conv stack computes.
    """
    acts = _conv_stack_forward(model, xb)
    mu, sd = (0.0, 1.0) if feat_stats is None else feat_stats
    inv_sd = 1.0 / sd
    feat = (acts["flat"] - mu) * inv_sd
    p = softmax(feat @ head_w + head_b)
    n = len(xb)
    delta = p.copy()
    delta[np.arange(n), yb] -= 1.0
    g_head_w = feat.T @ delta
    g_head_b = delta.sum(axis=0)
    d_flat = (delta @ head_w.T) * inv_sd
    d_p2 = d_flat.reshape(acts["p2"].shape)
    d_a2 = _pool2_backward(d_p2, acts["a2"].shape)
    d_z2 = d_a2 * acts["a2"] * (1.0 - acts["a2"])
    g2w, g2b, d_p1 = _conv_backward(acts["p1"], model.conv2_w, d_z2)
    d_a1 = _pool2_backward(d_p1, acts["a1"].shape)
    d_z1 = d_a1 * acts["a1"] * (1.0 - acts["a1"])
    g1w, g1b, _ = _conv_backward(acts["x"], model.conv1_w, d_z1,
                                 input_grad=False)
    nll = float(np.sum(-np.log(np.maximum(p[np.arange(n), yb], 1e-300))))
    return (g1w, g1b, g2w, g2b, g_head_w, g_head_b), nll


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
    feats0 = _features(model, x)
    s1_stats = (feats0.mean(axis=0),
                np.maximum(feats0.std(axis=0), 1e-6)
                * np.sqrt(feats0.shape[1]))

    # conv gradients sum over every output position, so scale their steps
    # by the map size to keep updates comparable across layers
    n1 = SHAPE_CHAIN[1][1] * SHAPE_CHAIN[1][2]
    n2 = SHAPE_CHAIN[3][1] * SHAPE_CHAIN[3][2]
    params = (model.conv1_w, model.conv1_b, model.conv2_w, model.conv2_b,
              head_w, head_b)
    stage1_loss = []
    for epoch in range(epochs):
        lr = lr0 * 0.5 ** (epoch // halve_every)
        order = rng.permutation(len(x))
        total = 0.0
        for s in range(0, len(x), batch):
            idx = order[s : s + batch]
            grads, nll = _stage1_grads(model, head_w, head_b,
                                       x[idx], labels[idx], s1_stats)
            step = lr / len(idx)
            for arr, grad, size in zip(params, grads, (n1, n1, n2, n2, 1, 1)):
                arr -= step / size * grad
            total += nll
        stage1_loss.append(total / len(x))

    # stage 2: frozen conv stack, train the fully connected head on
    # z-scored pooling vectors; the affine transform folds exactly into
    # the stored weights afterwards, so inference sees raw features.
    feats = _features(model, x)
    mu = feats.mean(axis=0)
    sd = np.maximum(feats.std(axis=0), 1e-6)
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
    model.meta.update({
        "epochs": epochs,
        "lr0": lr0,
        "halve_every": halve_every,
        "stage1_loss": [float(v) for v in stage1_loss],
        "stage2_loss": [float(v) for v in stage2_loss],
    })
    return model
