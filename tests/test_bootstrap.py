"""Tests for the 2-mixture GMM and the bootstrapped frame labeler."""

import numpy as np
import pytest

from taanseg.bootstrap import (
    COV_EIG_FLOOR,
    Gmm2,
    _floor_cov,
    _log_gauss,
    bootstrap_labels,
    gmm_fit_em,
    gmm_from_labels,
    gmm_log_likelihood,
    read_frame_labels,
    write_frame_labels,
)
from taanseg.errors import InvalidArgumentError, ParseError


def _clusters(n=150, sep=4.0, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(loc=[0.0, 0.0, 0.0], scale=0.5, size=(n, 3))
    x1 = rng.normal(loc=[sep, sep, 0.0], scale=0.5, size=(n, 3))
    x = np.vstack([x0, x1])
    y = np.r_[np.zeros(n, np.int64), np.ones(n, np.int64)]
    return x, y


class TestLogGauss:
    def test_standard_normal_at_origin(self):
        x = np.zeros((1, 3))
        lg = _log_gauss(x, np.zeros(3), np.eye(3))
        assert lg[0] == pytest.approx(-1.5 * np.log(2 * np.pi))

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        mean = rng.normal(size=3)
        x = rng.normal(size=(5, 3))
        expected = (
            -0.5 * (3 * np.log(2 * np.pi) + np.log(np.linalg.det(cov)))
            - 0.5 * np.einsum(
                "ni,ij,nj->n", x - mean, np.linalg.inv(cov), x - mean)
        )
        assert np.allclose(_log_gauss(x, mean, cov), expected)


class TestCovFloor:
    def test_floors_rank_deficient(self):
        cov = np.outer([1.0, 2.0], [1.0, 2.0])  # rank 1
        out, flagged = _floor_cov(cov)
        assert flagged
        assert np.all(np.linalg.eigvalsh(out) >= COV_EIG_FLOOR * 0.999)

    def test_leaves_healthy_cov(self):
        cov = np.diag([1.0, 2.0])
        out, flagged = _floor_cov(cov)
        assert not flagged
        assert np.allclose(out, cov)


class TestGmmFromLabels:
    def test_recovers_stats(self):
        x, y = _clusters()
        gmm = gmm_from_labels(x, y)
        assert np.allclose(gmm.means[0], x[y == 0].mean(axis=0))
        assert gmm.weights[0] == pytest.approx(0.5)

    def test_tiny_class_rejected(self):
        x = np.zeros((5, 2))
        y = np.array([0, 0, 0, 0, 1])
        with pytest.raises(InvalidArgumentError):
            gmm_from_labels(x, y)

    def test_weight_validation(self):
        with pytest.raises(InvalidArgumentError):
            Gmm2(np.zeros((2, 2)), np.stack([np.eye(2)] * 2),
                 np.array([0.7, 0.7]))


class TestEm:
    def test_recovers_separated_clusters(self):
        x, y = _clusters()
        init = gmm_from_labels(x, y)
        gmm, trace = gmm_fit_em(x, init)
        post = np.argmax(gmm_log_likelihood(gmm, x), axis=1)
        acc = max(np.mean(post == y), np.mean(post != y))
        assert acc >= 0.99
        assert len(trace) <= 3  # start near the optimum; converge fast

    def test_trace_monotone(self):
        x, _ = _clusters(sep=1.5, seed=2)
        rough = np.array([0, 1] * (len(x) // 2))
        gmm, trace = gmm_fit_em(x, gmm_from_labels(x, rough), max_iter=30)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-7)

    def test_zero_iterations(self):
        x, y = _clusters(n=10)
        init = gmm_from_labels(x, y)
        gmm, trace = gmm_fit_em(x, init, max_iter=0)
        assert trace == []
        assert np.allclose(gmm.means, init.means)

    def test_too_few_points(self):
        init = Gmm2(np.zeros((2, 2)), np.stack([np.eye(2)] * 2),
                    np.array([0.5, 0.5]))
        with pytest.raises(InvalidArgumentError):
            gmm_fit_em(np.zeros((3, 2)), init)


class TestBootstrap:
    def test_sparse_seed_recovers_clusters(self):
        x, y = _clusters(n=200, seed=3)
        seed = {0: 0, 1: 0, 2: 0, 200: 1, 201: 1, 202: 1}
        labels, rounds, converged = bootstrap_labels(x, seed)
        assert converged
        assert rounds <= 10
        assert np.mean(labels == y) >= 0.95

    def test_seed_labels_pinned(self):
        x, y = _clusters(n=50, seed=4)
        # deliberately mislabel two frames; they must stay pinned
        seed = {0: 0, 1: 0, 50: 1, 51: 1, 25: 1, 75: 0}
        labels, _, _ = bootstrap_labels(x, seed)
        assert labels[25] == 1 and labels[75] == 0

    def test_full_seed_single_round(self):
        x, y = _clusters(n=40, seed=5)
        seed = {i: int(y[i]) for i in range(len(x))}
        labels, rounds, converged = bootstrap_labels(x, seed)
        assert converged and rounds == 1
        assert np.array_equal(labels, y)

    def test_label_symmetry(self):
        x, y = _clusters(n=100, seed=6)
        seed_a = {0: 0, 1: 0, 100: 1, 101: 1}
        seed_b = {0: 1, 1: 1, 100: 0, 101: 0}
        la, _, _ = bootstrap_labels(x, seed_a)
        lb, _, _ = bootstrap_labels(x, seed_b)
        assert np.array_equal(la, 1 - lb)

    def test_seed_out_of_range(self):
        x, _ = _clusters(n=10)
        with pytest.raises(InvalidArgumentError):
            bootstrap_labels(x, {0: 0, 1: 0, 99: 1, 5: 1})

    def test_seed_class_too_small(self):
        x, _ = _clusters(n=10)
        with pytest.raises(InvalidArgumentError):
            bootstrap_labels(x, {0: 0, 1: 0, 2: 1})


class TestLabelIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.tsv"
        write_frame_labels([0, 1, 1, 0], path)
        times, labels = read_frame_labels(path)
        assert np.allclose(times, [0.0, 1.0, 2.0, 3.0])
        assert labels == ["non-taan", "taan", "taan", "non-taan"]

    def test_string_labels_pass_through(self, tmp_path):
        path = tmp_path / "labels.tsv"
        write_frame_labels(["taan", "instrumental"], path)
        times, labels = read_frame_labels(path)
        assert np.allclose(times, [0.0, 1.0])
        assert labels == ["taan", "instrumental"]

    def test_sparse_seed_times(self, tmp_path):
        # a seed-label file names a few frames by their time, not every one
        path = tmp_path / "seeds.tsv"
        path.write_text("0.0\ttaan\n2.0\tinstrumental\n")
        times, labels = read_frame_labels(path)
        assert np.allclose(times, [0.0, 2.0])
        assert labels == ["taan", "instrumental"]

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0.0\ttaan\noops\n")
        with pytest.raises(ParseError) as exc:
            read_frame_labels(path)
        assert exc.value.line == 2
