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


def matmul(a, b, out=None):
    """a @ b for a (m, k) or (k,) and b (k, n), the same bits at any BLAS
    thread count, written into out if given. A product over GEMM_SLAB m*n*k is
    cut into fixed tiles: from its shortest dimension up, each is kept whole
    while the longer ones can still have 16 each, else cut to the largest
    multiple of 16 that leaves them that, and each output tile adds its k
    chunks in order. So a dimension padded to a multiple of 16 is cut only at
    multiples of 16, and each of its columns takes the same BLAS kernel path.
    A region of equal tiles is one stacked np.matmul per k chunk (the same
    BLAS calls, one GIL release); the chunks add in order, by np.add.reduce
    from -0.0 if they stack into GEMM_SLAB elements of tiles over one element
    (numpy sums a one-element stack pairwise), else a few row tiles at once."""
    if a.size * b.shape[1] <= GEMM_SLAB:
        return np.matmul(a, b, out=out)
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
    if out is None:
        out = np.empty(a.shape[:-1] + (n,), dtype=np.result_type(a, b))
    out2 = np.atleast_2d(out)
    for rows, r in m_cuts:
        for cols, c in n_cuts:
            o = _tiles(out2[rows, cols], r, c)
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
    return out


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
        n_in, hidden = self.w1.shape if self.w1.ndim == 2 else (None, None)
        check_arrays(self, "mlp", {"w1": (n_in, hidden), "b1": (hidden,),
                                   "w2": (hidden, 2), "b2": (2,)})

    @property
    def n_in(self):
        return self.w1.shape[0]


@dataclass
class PosteriorSeq:
    """Per-frame taan posterior, defined on vocal frames (NaN elsewhere),
    frame k at k s."""

    p_taan: np.ndarray
    vocal_mask: np.ndarray
    frame_s: ClassVar[float] = 1.0

    def __post_init__(self):
        p, m = np.shape(self.p_taan), np.shape(self.vocal_mask)
        if len(p) != 1 or m != p:
            raise InvalidArgumentError(f"shapes {p}, {m}: not (n,), (n,)")

    def __len__(self):
        return len(self.p_taan)


def sigmoid(x, out=None, scratch=None):
    """Branch-free stable logistic: with e = exp(-|x|) in [0, 1], the
    numerator max(e, x >= 0) is 1 for x >= 0 and e below. Made in out
    (which may be x) and the scratch e if given, else in e and the result,
    two new arrays that keep x's memory layout."""
    e = np.abs(x, out=scratch)
    np.exp(np.negative(e, out=e), out=e)
    num = np.maximum(e, np.greater_equal(x, 0, out=out), out=out)
    e += 1.0
    num /= e
    return num


def softmax(logits, out=None, scratch=None):
    """Softmax over the last axis, made in out (which may be logits) if
    given, with the (..., 1) scratch for each row's max and sum."""
    z = np.subtract(logits, logits.max(axis=-1, keepdims=True, out=scratch),
                    out=out)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True, out=scratch)
    return z


def cross_entropy(p, y, weights, twice_row=None):
    """Summed weighted NLL, in float64, of labels y under C-order 2-class
    softmax rows p, which become the weighted output delta (p - onehot(y))
    * weights in place; twice_row, if kept, is 2 * arange(len(p) or more)."""
    p_flat = p.reshape(-1)
    at = y + (2 * np.arange(len(p)) if twice_row is None
              else twice_row[: len(p)])  # each row's true class in p_flat
    nll = float(np.add.reduce(-np.log(np.maximum(
        p_flat.take(at), 1e-300, dtype=np.float64)) * weights))
    p_flat[at] -= 1.0
    p *= weights[:, None]
    return nll


def mlp_init(hidden, seed, n_in=3):
    """Glorot-uniform weights, zero biases; deterministic given seed."""
    if hidden < 1:
        raise InvalidArgumentError("hidden layer needs at least one unit")
    rng = seeded_rng(seed)
    return MlpModel(glorot_uniform(rng, (n_in, hidden)), np.zeros(hidden),
                    glorot_uniform(rng, (hidden, 2)), np.zeros(2),
                    meta={"seed": seed})


def _forward(model, xb, h=None, p=None, e=None, col=None):
    """(hidden activations, posteriors) of rows xb, each made in place in
    one array, h and p if given, with the kernels' scratch e and col."""
    h = matmul(xb, model.w1, out=h)
    h += model.b1
    sigmoid(h, out=h, scratch=e)
    p = matmul(h, model.w2, out=p)
    p += model.b2
    return h, softmax(p, out=p, scratch=col)


def mlp_forward(model, x):
    """Softmax posteriors for a single vector or a batch (rows)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("non-finite input to mlp_forward")
    p = _forward(model, np.atleast_2d(x))[1]
    return p[0] if x.ndim == 1 else p


def _mlp_views(flat, n_in, hidden):
    """w1, b1, w2 and b2 as views of one flat vector, in that order."""
    w1, b1, w2, b2 = np.split(flat, np.cumsum([n_in, 1, 2]) * hidden)
    return w1.reshape(n_in, hidden), b1, w2.reshape(hidden, 2), b2


def _grad_fn(model, rows):
    """sgd_epochs' grad_fn for model: a batch's cross-entropy gradients, laid
    out as _mlp_views in one vector, and weighted NLL; _forward and
    cross_entropy run in temporaries made here for up to rows rows."""
    n_in, hidden = model.w1.shape
    grad = np.empty((n_in + 3) * hidden + 2)
    gw1, gb1, gw2, gb2 = _mlp_views(grad, n_in, hidden)
    temps = [np.empty((rows, k)) for k in (hidden, hidden, hidden, 2, 1)]
    twice_row = 2 * np.arange(rows)

    def grads(xb, yb, weights):
        h, e, delta1, p, col = (t[: len(xb)] for t in temps)
        _forward(model, xb, h, p, e, col)
        nll = cross_entropy(p, yb, weights, twice_row)
        matmul(h.T, p, out=gw2)
        p.sum(axis=0, out=gb2)
        matmul(p, model.w2.T, out=delta1)
        delta1 *= h
        delta1 *= np.subtract(1.0, h, out=e)
        matmul(xb.T, delta1, out=gw1)
        delta1.sum(axis=0, out=gb1)
        return (grad,), nll
    return grads


def sgd_epochs(params, scales, grad_fn, x, y, weights, rng, lr, epochs,
               batch, halve_every=None):
    """Shuffled mini-batch SGD on the arrays in params, in place; yields
    each epoch's weighted mean loss. grad_fn(xb, yb, wb) returns (grads in
    params order, summed weighted loss); a batch steps by lr over its weight
    sum, divided by the parameter's scale, scaling each gradient (grad_fn's
    buffer or not) in place in its parameter's dtype. A non-finite epoch
    loss is yielded, then raises InvalidArgumentError: training diverged."""
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
    if x.ndim != 2 or x.shape[1] != model.n_in:
        raise InvalidArgumentError(f"model expects rows of {model.n_in} "
                                   f"features, got an array of {x.shape}")
    if y.shape != (len(x),):
        raise InvalidArgumentError(f"{len(x)} feature rows but labels of "
                                   f"shape {y.shape}")
    if not np.isfinite(x).all():
        raise InvalidArgumentError("non-finite values in training features")
    if batch < 1:
        raise InvalidArgumentError(f"batch must be at least 1, got {batch}")
    classes, counts = np.unique(y, return_counts=True)
    if not np.array_equal(classes, (0, 1)):
        raise InvalidArgumentError("training labels must be 0 and 1, both "
                                   f"present, got {classes}")
    weights = ((1.0 / (len(classes) * (counts / counts.sum())))[y]
               if class_balance else np.ones(len(y)))

    # the trained arrays are views of one vector, which one step updates
    flat = np.concatenate([a.ravel() for a in (model.w1, model.b1, model.w2,
                                               model.b2)], dtype=np.float64)
    model = MlpModel(*_mlp_views(flat, *model.w1.shape), meta=dict(model.meta))
    losses = list(sgd_epochs(
        (flat,), (1,), _grad_fn(model, min(batch, len(x))), x, y, weights,
        seeded_rng(seed), lr, epochs, batch, halve_every))
    model.meta.update({"epochs": epochs, "lr": lr,
                       "loss_history": [float(v) for v in losses]})
    return model, losses


def classify_frames(model, feature_seq, threshold=0.5):
    """Posteriors and taan decisions (unit 1) on the vocal frames of any
    model's frame features: style features, or a CNN's frame_features."""
    if not 0.0 <= threshold <= 1.0:
        raise InvalidArgumentError("threshold must lie in [0, 1]")
    feats = feature_seq.features
    if feats.shape[1] != model.n_in:
        raise InvalidArgumentError(f"model expects {model.n_in}-d features, "
                                   f"got {feats.shape[1]}")
    mask = feature_seq.vocal_mask
    p = np.full(len(mask), np.nan)
    if mask.any():
        p[mask] = mlp_forward(model, feats[mask])[:, 1]
    decisions = np.zeros(len(mask), dtype=bool)
    decisions[mask] = p[mask] >= threshold
    return PosteriorSeq(p_taan=p, vocal_mask=mask), decisions
