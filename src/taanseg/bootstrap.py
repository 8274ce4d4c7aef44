"""Bootstrapped frame labeling: a 2-mixture full-covariance GMM fit by EM,
re-initialized from the current labels and used to relabel all frames
until the assignment stabilizes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, InvalidArgumentError
from .table import Table, finite

COV_EIG_FLOOR = 1e-8
LOG_2PI = np.log(2.0 * np.pi)
MAX_ROUNDS = 50     # relabelling rounds before giving up
EM_ITER = 20        # EM iterations in each round
EM_TOL = 1e-6       # a log-likelihood gain below this ends EM early


@dataclass
class Gmm2:
    means: np.ndarray        # (2, d)
    covs: np.ndarray         # (2, d, d)
    weights: np.ndarray      # (2,)
    degenerate: bool = False

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.covs = np.asarray(self.covs, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if abs(self.weights.sum() - 1.0) > 1e-9 or np.any(self.weights <= 0):
            raise InvalidArgumentError("mixture weights must be positive, sum 1")


def _floor_cov(cov):
    """Symmetrize and floor eigenvalues; flags whether flooring fired."""
    cov = 0.5 * (cov + cov.T)
    if not np.isfinite(cov).all():
        raise InvalidArgumentError("covariance overflows: features too large")
    vals, vecs = np.linalg.eigh(cov)
    floored = bool(np.any(vals < COV_EIG_FLOOR))
    vals = np.maximum(vals, COV_EIG_FLOOR)
    return (vecs * vals) @ vecs.T, floored


def _log_gauss(x, mean, cov):
    d = x.shape[1]
    chol = np.linalg.cholesky(cov)
    diff = x - mean
    sol = np.linalg.solve(chol, diff.T)
    maha = np.sum(sol**2, axis=0)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (d * LOG_2PI + logdet + maha)


def gmm_from_labels(x, labels):
    """Per-class sample mean/covariance/weight as a Gmm2."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    means, covs, weights = [], [], []
    degenerate = False
    for c in (0, 1):
        xc = x[labels == c]
        if len(xc) < 2:
            raise InvalidArgumentError(f"class {c} needs at least 2 points")
        means.append(xc.mean(axis=0))
        cov, fl = _floor_cov(np.cov(xc, rowvar=False, bias=True))
        degenerate |= fl
        covs.append(cov)
        weights.append(len(xc) / len(x))
    return Gmm2(np.array(means), np.array(covs), np.array(weights),
                degenerate=degenerate)


def gmm_log_likelihood(gmm, x):
    """Per-point log-densities (n, 2) including mixture weights."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return np.stack([
        np.log(gmm.weights[c]) + _log_gauss(x, gmm.means[c], gmm.covs[c])
        for c in (0, 1)
    ], axis=1)


def gmm_fit_em(x, init, max_iter=100):
    """EM for the 2-mixture GMM; returns (model, log-likelihood trace).

    The trace is non-decreasing up to numerical tolerance; covariance
    eigenvalues are floored each M-step and the model is flagged
    degenerate when flooring fires.
    """
    x = np.asarray(x, dtype=np.float64)
    if len(x) < 4:
        raise InvalidArgumentError("EM needs at least 4 points")
    gmm = Gmm2(init.means.copy(), init.covs.copy(), init.weights.copy(),
               degenerate=init.degenerate)
    trace = []
    for _ in range(max_iter):
        logp = gmm_log_likelihood(gmm, x)
        mx = logp.max(axis=1, keepdims=True)
        lse = mx[:, 0] + np.log(np.exp(logp - mx).sum(axis=1))
        trace.append(float(lse.sum()))
        resp = np.exp(logp - lse[:, None])
        nk = resp.sum(axis=0)
        if np.any(nk < 1e-12):
            gmm.degenerate = True
            break
        means = (resp.T @ x) / nk[:, None]
        covs = []
        degenerate = gmm.degenerate
        for c in (0, 1):
            diff = x - means[c]
            cov = (resp[:, c, None] * diff).T @ diff / nk[c]
            cov, fl = _floor_cov(cov)
            degenerate |= fl
            covs.append(cov)
        gmm = Gmm2(means, np.array(covs), nk / nk.sum(), degenerate=degenerate)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < EM_TOL:
            break
    return gmm, trace


def bootstrap_labels(x, seed_labels):
    """Iterative self-training from a sparse seed-label map.

    seed_labels maps frame index -> class (0/1), each class seeded with
    at least 2 frames. Returns (labels, rounds, converged).
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if not all(0 <= i < n for i in seed_labels):
        raise InvalidArgumentError("seed index out of range")
    seed_idx = np.array(sorted(seed_labels), dtype=np.int64)
    seed_vals = np.array([seed_labels[i] for i in seed_idx], dtype=np.int64)
    for c in (0, 1):
        if np.sum(seed_vals == c) < 2:
            raise InvalidArgumentError(f"seed needs >= 2 frames of class {c}")

    # initial assignment: classify every frame with the seed-built GMM
    gmm = gmm_from_labels(x[seed_idx], seed_vals)
    labels = np.argmax(gmm_log_likelihood(gmm, x), axis=1)
    labels[seed_idx] = seed_vals
    for rounds in range(1, MAX_ROUNDS + 1):
        gmm, _ = gmm_fit_em(x, gmm_from_labels(x, labels), max_iter=EM_ITER)
        new = np.argmax(gmm_log_likelihood(gmm, x), axis=1)
        new[seed_idx] = seed_vals
        if np.array_equal(new, labels):
            return labels, rounds, True
        labels = new
    return labels, MAX_ROUNDS, False


def _label_rows(rows, first_line):
    """Frame-label rows: each time finite, a whole second >= 0, and the
    first row of its second."""
    t = rows["time_s"]
    repeat = np.ones(len(t), dtype=bool)
    repeat[np.unique(t, return_index=True)[1]] = False
    return finite("time_s")(rows, first_line) + [
        ((t < 0) | (t != np.floor(t)), DataError,
         "time {time_s} s is not a whole second >= 0"),
        (repeat, DataError, "a second row at {time_s} s")]


LABEL_TABLE = Table([("time_s", "f8"), ("label", "O")], delimiter="\t",
                    header=False, check=_label_rows)


def write_frame_labels(labels, path, names=("non-taan", "taan")):
    """Frame-label TSV: time_s<TAB>label, row k at k s, the 1 s frames
    `textgrid.read_sections` checks; integer labels index `names`."""
    LABEL_TABLE.write(path, (
        np.arange(len(labels)),
        [lab if isinstance(lab, str) else names[int(lab)] for lab in labels]))


def read_frame_labels(path):
    """Read a frame-label TSV, or a seed file naming some of its rows;
    returns (times, label strings)."""
    rows = LABEL_TABLE.read(path)
    return rows["time_s"].copy(), rows["label"].tolist()
