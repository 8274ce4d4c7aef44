"""Feed-forward classifier (sigmoid hidden layer, softmax output) trained
by mini-batch SGD on cross-entropy, with from-scratch backprop.

Also reused as the fully-connected head of the CNN (2100-d inputs).
"""

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import InvalidArgumentError

# OpenBLAS runs a GEMM of m*n*k <= 65536 * GEMM_MULTITHREAD_THRESHOLD (4), or
# a GEMV that size, on the calling thread; a bigger one is split over threads,
# whose count changes its last bits and which oversubscribe the pool's cores
GEMM_SLAB = 262_144


def check_arrays(model, kind, shapes):
    """InvalidArgumentError naming the arrays of model that differ from
    shapes (name -> shape, in field order), else those not all finite."""
    bad = [f"{name} {getattr(model, name).shape}"
           for name, shape in shapes.items()
           if getattr(model, name).shape != shape]
    if bad:
        raise InvalidArgumentError(f"{kind} model arrays of the wrong shape: "
                                   + ", ".join(bad))
    bad = [name for name in shapes
           if not np.isfinite(getattr(model, name)).all()]
    if bad:
        raise InvalidArgumentError(f"non-finite values in {', '.join(bad)}")


def seeded_rng(seed):
    """np.random.default_rng(seed), but InvalidArgumentError if seed < 0."""
    if seed < 0:
        raise InvalidArgumentError(f"seed {seed} is negative")
    return np.random.default_rng(seed)


def _tiles(x, rows, cols):
    """(p, q, rows, cols) view of the rows x cols tiles of a 2-D x."""
    return x.reshape(len(x) // rows, rows, -1, cols).swapaxes(1, 2)


def matmul(a, b):
    """a @ b for a (m, k) or (k,) and b (k, n), the same bits at any BLAS
    thread count. A product over GEMM_SLAB m*n*k is cut into fixed tiles:
    from its shortest dimension up, each is kept whole while the longer ones
    can still have 16 each, else cut to the largest multiple of 16 that
    leaves them that, and each output tile adds its k chunks in order. So a
    dimension padded to a multiple of 16 is cut only at multiples of 16, and
    each of its columns takes the same BLAS kernel path. A region of equal
    tiles is one stacked np.matmul per k chunk (the same BLAS calls, one GIL
    release); the chunks add in order, by np.add.reduce from -0.0 if they
    stack into GEMM_SLAB elements of tiles over one element (numpy sums a
    one-element stack pairwise), else a few row tiles at a time."""
    if a.size * b.shape[1] <= GEMM_SLAB:
        return np.matmul(a, b)
    a2 = np.atleast_2d(a)
    (m, k), n = a2.shape, b.shape[1]
    tile, room = [m, n, k], GEMM_SLAB
    for done, d in enumerate(sorted(range(3), key=tile.__getitem__)):
        if tile[d] * 16 ** (2 - done) > room:
            tile[d] = room // 16 ** (2 - done) // 16 * 16
        room //= tile[d]
    # each dimension's full tiles, then its rest if any, as (span, tile)
    m_cuts, n_cuts, k_cuts = (
        [(slice(0, d - d % t), t)]
        + [(slice(d - d % t, d), d % t)] * (d % t > 0)
        for d, t in zip((m, n, k), tile))
    out = np.empty((m, n), dtype=np.result_type(a, b))
    for rows, r in m_cuts:
        for cols, c in n_cuts:
            o = _tiles(out[rows, cols], r, c)
            (x, y), *rest = [  # (chunks, p, 1, r, t) @ (chunks, 1, q, t, c)
                (_tiles(a2[rows, ks], r, t).swapaxes(0, 1)[:, :, None],
                 _tiles(b[ks, cols], t, c)[:, None]) for ks, t in k_cuts]
            if 1 < len(x) <= GEMM_SLAB // o.size and r * c > 1:
                np.add.reduce(np.matmul(x, y), axis=0, out=o, initial=-0.0)
            else:  # a few row tiles at a time: their sums stay in cache
                step = max(1, GEMM_SLAB // 4 // o[0].size)
                for g in range(0, len(o), step):
                    og, xg = o[g : g + step], x[:, g : g + step]
                    np.matmul(xg[0], y[0], out=og)
                    for s in range(1, len(x)):
                        og += np.matmul(xg[s], y[s])
            for x, y in rest:
                o += np.matmul(x[0], y[0])
    return out if a.ndim == 2 else out[0]


def glorot_uniform(rng, shape):
    """U(-r, r) draws, r = sqrt(6 / (fan_in + fan_out)), for a dense (n_in,
    n_out) or a conv (out, in, kh, kw) weight, whose fans span the kernel."""
    fan_in, fan_out = shape if len(shape) == 2 else (
        shape[1] * shape[2] * shape[3], shape[0] * shape[2] * shape[3])
    r = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-r, r, size=shape)


@dataclass
class MlpModel:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n_in, hidden = (self.w1.shape if self.w1.ndim == 2
                        else (None, None))
        check_arrays(self, "mlp", {"w1": (n_in, hidden), "b1": (hidden,),
                                   "w2": (hidden, 2), "b2": (2,)})

    @property
    def n_in(self):
        return self.w1.shape[0]

    def copy(self):
        return MlpModel(self.w1.copy(), self.b1.copy(),
                        self.w2.copy(), self.b2.copy(), dict(self.meta))


@dataclass
class PosteriorSeq:
    """Per-frame taan posterior, defined on vocal frames (NaN elsewhere),
    frame k at k s."""

    p_taan: np.ndarray
    vocal_mask: np.ndarray
    frame_s: ClassVar[float] = 1.0

    def __len__(self):
        return len(self.p_taan)


def sigmoid(x):
    """Branch-free stable logistic: with e = exp(-|x|) in [0, 1], the
    numerator max(e, x >= 0) is 1 for x >= 0 and e below. Computed in
    place on two full-size arrays, e and the result."""
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    num = np.maximum(e, x >= 0)
    e += 1.0
    num /= e
    return num


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def mlp_init(hidden, seed, n_in=3):
    """Glorot-uniform weights, zero biases; deterministic given seed."""
    if hidden < 1:
        raise InvalidArgumentError("hidden layer needs at least one unit")
    rng = seeded_rng(seed)
    return MlpModel(
        w1=glorot_uniform(rng, (n_in, hidden)),
        b1=np.zeros(hidden),
        w2=glorot_uniform(rng, (hidden, 2)),
        b2=np.zeros(2),
        meta={"seed": seed},
    )


def mlp_forward(model, x):
    """Softmax posteriors for a single vector or a batch (rows)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("non-finite input to mlp_forward")
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    h = sigmoid(matmul(xb, model.w1) + model.b1)
    p = softmax(matmul(h, model.w2) + model.b2)
    return p[0] if single else p


def _grads(model, xb, yb, weights):
    """Cross-entropy gradients for one batch; weights are per-sample."""
    h = sigmoid(matmul(xb, model.w1) + model.b1)
    p = softmax(matmul(h, model.w2) + model.b2)
    n = len(xb)
    delta2 = p.copy()
    delta2[np.arange(n), yb] -= 1.0
    delta2 *= weights[:, None]
    gw2 = matmul(h.T, delta2)
    gb2 = delta2.sum(axis=0)
    delta1 = matmul(delta2, model.w2.T) * h * (1.0 - h)
    gw1 = matmul(xb.T, delta1)
    gb1 = delta1.sum(axis=0)
    nll = float(np.sum(-np.log(np.maximum(p[np.arange(n), yb], 1e-300))
                       * weights))
    return (gw1, gb1, gw2, gb2), nll


def sgd_epochs(params, scales, grad_fn, x, y, weights, rng, lr, epochs,
               batch, halve_every=None):
    """Shuffled mini-batch SGD on the arrays in params, in place; yields
    each epoch's weighted mean loss. grad_fn(xb, yb, wb) returns (fresh
    grads in params order, summed weighted loss); a batch steps by lr over
    its weight sum, divided by the parameter's scale, scaling each gradient
    in place in its parameter's dtype. A non-finite epoch loss is yielded,
    then raises InvalidArgumentError: training diverged."""
    for epoch in range(epochs):
        lr_e = lr if halve_every is None else lr * 0.5 ** (epoch // halve_every)
        order = rng.permutation(len(x))
        total = wsum = 0.0
        for s in range(0, len(x), batch):
            idx = order[s : s + batch]
            wb = weights[idx]
            grads, loss = grad_fn(x[idx], y[idx], wb)
            bw = wb.sum()
            step = lr_e / max(bw, 1e-12)
            for arr, grad, scale in zip(params, grads, scales):
                grad = grad.astype(arr.dtype, copy=False)  # float32: a copy
                grad *= step / scale
                arr -= grad
            total += loss
            wsum += bw
        mean = total / wsum
        yield mean
        if not np.isfinite(mean):
            raise InvalidArgumentError("training diverged: non-finite loss")


def mlp_train(model, x, y, lr=0.05, epochs=200, batch=32, seed=0,
              class_balance=True, halve_every=None):
    """Mini-batch SGD; returns (trained model, per-epoch mean loss).

    With class_balance, samples are weighted inversely to class frequency.
    halve_every, when set, halves the learning rate every that many
    epochs. Deterministic given the shuffle seed.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(x) == 0:
        raise InvalidArgumentError("empty training set")
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise InvalidArgumentError("training set must contain both classes")
    if class_balance:
        freq = counts / counts.sum()
        wmap = dict(zip(classes, 1.0 / (len(classes) * freq)))
        weights = np.array([wmap[c] for c in y])
    else:
        weights = np.ones(len(y))

    model = model.copy()
    losses = list(sgd_epochs(
        (model.w1, model.b1, model.w2, model.b2), (1, 1, 1, 1),
        lambda xb, yb, wb: _grads(model, xb, yb, wb), x, y, weights,
        seeded_rng(seed), lr, epochs, batch, halve_every))
    model.meta.update({"epochs": epochs, "lr": lr,
                       "loss_history": [float(v) for v in losses]})
    return model, losses


def classify_frames(model, feature_seq, threshold=0.5):
    """Posteriors and taan decisions on the vocal frames of a feature
    sequence; taan posterior is output unit 1."""
    if not 0.0 <= threshold <= 1.0:
        raise InvalidArgumentError("threshold must lie in [0, 1]")
    feats = feature_seq.features
    if feats.shape[1] != model.n_in:
        raise InvalidArgumentError(
            f"model expects {model.n_in}-d features, got {feats.shape[1]}"
        )
    mask = feature_seq.vocal_mask
    p = np.full(len(mask), np.nan)
    if mask.any():
        p[mask] = mlp_forward(model, feats[mask])[:, 1]
    decisions = np.zeros(len(mask), dtype=bool)
    decisions[mask] = p[mask] >= threshold
    return PosteriorSeq(p_taan=p, vocal_mask=mask), decisions
