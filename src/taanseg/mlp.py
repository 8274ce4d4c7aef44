"""Feed-forward classifier (sigmoid hidden layer, softmax output) trained
by mini-batch SGD on cross-entropy, with from-scratch backprop.

Also reused as the fully-connected head of the CNN (2100-d inputs).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError


@dataclass
class MlpModel:
    w1: np.ndarray          # (n_in, hidden)
    b1: np.ndarray          # (hidden,)
    w2: np.ndarray          # (hidden, n_out)
    b2: np.ndarray          # (n_out,)
    meta: dict = field(default_factory=dict)

    @property
    def n_in(self):
        return self.w1.shape[0]

    def copy(self):
        return MlpModel(self.w1.copy(), self.b1.copy(),
                        self.w2.copy(), self.b2.copy(), dict(self.meta))


@dataclass
class PosteriorSeq:
    """Per-frame taan posterior, defined on vocal frames (NaN elsewhere)."""

    p_taan: np.ndarray
    vocal_mask: np.ndarray
    frame_s: float = 1.0

    def __len__(self):
        return len(self.p_taan)


def sigmoid(x):
    """Branch-free stable logistic: with e = exp(-|x|) in [0, 1], the
    numerator max(e, x >= 0) is 1 for x >= 0 and e below. Computed in
    place on two full-size arrays, e and the result, once |x| is freed."""
    e = -np.abs(x)
    np.exp(e, out=e)
    num = np.maximum(e, x >= 0)
    e += 1.0
    num /= e
    return num


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def mlp_init(hidden, seed, n_in=3, n_out=2):
    """Glorot-uniform weights, zero biases; deterministic given seed."""
    if hidden < 1:
        raise InvalidArgumentError("hidden layer needs at least one unit")
    rng = np.random.default_rng(seed)
    r1 = np.sqrt(6.0 / (n_in + hidden))
    r2 = np.sqrt(6.0 / (hidden + n_out))
    return MlpModel(
        w1=rng.uniform(-r1, r1, size=(n_in, hidden)),
        b1=np.zeros(hidden),
        w2=rng.uniform(-r2, r2, size=(hidden, n_out)),
        b2=np.zeros(n_out),
        meta={"seed": seed},
    )


def mlp_forward(model, x):
    """Softmax posteriors for a single vector or a batch (rows)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("non-finite input to mlp_forward")
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    h = sigmoid(xb @ model.w1 + model.b1)
    p = softmax(h @ model.w2 + model.b2)
    return p[0] if single else p


def _grads(model, xb, yb, weights):
    """Cross-entropy gradients for one batch; weights are per-sample."""
    h = sigmoid(xb @ model.w1 + model.b1)
    p = softmax(h @ model.w2 + model.b2)
    n = len(xb)
    delta2 = p.copy()
    delta2[np.arange(n), yb] -= 1.0
    delta2 *= weights[:, None]
    gw2 = h.T @ delta2
    gb2 = delta2.sum(axis=0)
    delta1 = (delta2 @ model.w2.T) * h * (1.0 - h)
    gw1 = xb.T @ delta1
    gb1 = delta1.sum(axis=0)
    nll = float(np.sum(-np.log(np.maximum(p[np.arange(n), yb], 1e-300))
                       * weights))
    return (gw1, gb1, gw2, gb2), nll


def sgd_epochs(params, scales, grad_fn, x, y, weights, rng, lr, epochs,
               batch, halve_every=None):
    """Shuffled mini-batch SGD on the arrays in params, in place; yields
    each epoch's weighted mean loss. grad_fn(xb, yb, wb) returns (grads in
    params order, summed weighted loss). A batch steps by lr over its
    weight sum, divided by the parameter's scale."""
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
                arr -= step / scale * grad
            total += loss
            wsum += bw
        yield total / wsum


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
    losses = []
    for loss in sgd_epochs(
            (model.w1, model.b1, model.w2, model.b2), (1, 1, 1, 1),
            lambda xb, yb, wb: _grads(model, xb, yb, wb), x, y, weights,
            np.random.default_rng(seed), lr, epochs, batch, halve_every):
        losses.append(loss)
        if not np.isfinite(loss):
            raise InvalidArgumentError("training diverged: non-finite loss")
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
    return PosteriorSeq(p_taan=p, vocal_mask=mask,
                        frame_s=feature_seq.frame_s), decisions
