"""Acceptance suite: ten end-to-end criteria, each printing one pass/fail
line. Heavy artifacts (synthetic concerts, trained models) are shared via
session fixtures.
"""

import time

import numpy as np
import pytest

from taanseg import evaluation, features, mlp, pipeline
from taanseg import cnn as cnn_mod
from taanseg import segmentation as seg_mod
from taanseg.bootstrap import bootstrap_labels, gmm_fit_em, gmm_from_labels
from taanseg.config import PipelineConfig
from taanseg.dsp import AudioClip
from taanseg.modelio import load_model, save_model
from taanseg.segmentation import (
    Section,
    SectionTimeline,
    checkerboard_kernel,
    group_sections,
    novelty,
    pick_boundaries,
    posterior_sdm,
)
from taanseg.synth import (
    REF_HZ,
    SectionSpec,
    default_test_script,
    synth_concert,
    synth_pitch_contour,
)
from taanseg.textgrid import emit_textgrid, parse_textgrid, timeline_to_doc
from taanseg.vocal import PitchEnergyTrack
from taanseg.wavio import read_wav, write_wav


def _verdict(num, desc, checks):
    """Print the one-line verdict for a criterion, then assert it."""
    ok = all(checks.values())
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"criterion {num} failed: {failed}"


@pytest.fixture(scope="session")
def concerts():
    """Two 10-minute synthetic concerts with extracted features."""
    cfg = PipelineConfig()
    out = {}
    for name, seed in (("a", 7), ("b", 11)):
        clip, timeline, labels = synth_concert(default_test_script(seed=seed))
        track = pipeline.extract_track(clip, cfg)
        seq = pipeline.track_features(track, cfg)
        out[name] = {"clip": clip, "timeline": timeline, "labels": labels,
                     "track": track, "seq": seq}
    return out


@pytest.fixture(scope="session")
def trained_mlp(concerts):
    cfg = PipelineConfig()
    x, y = pipeline.training_set(concerts["a"]["seq"], concerts["a"]["labels"])
    model = mlp.mlp_init(cfg.mlp_hidden, seed=cfg.mlp_seed)
    model, _ = mlp.mlp_train(model, x, y, lr=cfg.mlp_lr, epochs=cfg.mlp_epochs,
                             batch=cfg.mlp_batch, seed=cfg.mlp_seed,
                             class_balance=cfg.class_balance)
    return model


def _patch_corpus(n_per_class, seed):
    """Synthetic spectrogram patches: oscillating vs steady harmonic
    ridges with varied base bins, rates, and phases."""
    rng = np.random.default_rng(seed)
    patches, labels = [], []
    t = np.arange(cnn_mod.PATCH_FRAMES)
    for k in range(2 * n_per_class):
        taan = k % 2
        base = 25 + rng.integers(0, 30)
        rate = rng.uniform(5.0, 10.0)
        if taan:
            row = base + 6 * np.sin(
                2 * np.pi * rate * t / 50.0 + rng.uniform(0, 2 * np.pi))
        else:
            row = np.full(cnn_mod.PATCH_FRAMES, float(base))
        vals = rng.normal(scale=0.3,
                          size=(cnn_mod.PATCH_BINS, cnn_mod.PATCH_FRAMES))
        for fi in range(cnn_mod.PATCH_FRAMES):
            r = int(round(row[fi]))
            vals[r - 1 : r + 2, fi] += 3.0
            h2 = min(2 * r, cnn_mod.PATCH_BINS - 2)
            vals[h2 - 1 : h2 + 2, fi] += 1.5
        patches.append(vals)
        labels.append(taan)
    return patches, np.array(labels)


def _synthetic_track(style, duration_s=60.0, **kw):
    spec = SectionSpec(style, duration_s, **kw)
    cents = synth_pitch_contour(spec, np.random.default_rng(3))
    f0 = REF_HZ * 2.0 ** (cents / 1200.0)
    if style == "taan":
        energy = -20.0 + 3.0 * np.sin(
            2 * np.pi * spec.mod_rate_hz * np.arange(len(f0)) * 0.01)
    else:
        energy = np.full(len(f0), -20.0)
    return PitchEnergyTrack(f0_hz=f0, energy_db=energy,
                            voiced=np.ones(len(f0), dtype=bool))


class TestCriterion1FeatureOracle:
    def test_modulation_features(self):
        t0 = time.time()
        taan = _synthetic_track("taan", f0_hz=220.0, mod_rate_hz=6.0,
                                mod_depth_cents=150.0)
        steady = _synthetic_track("steady-vocal", f0_hz=220.0)
        mask = np.ones(6000, dtype=bool)
        seq_t = features.smooth_and_normalize(
            *features.raw_features(taan, mask))
        seq_s = features.smooth_and_normalize(
            *features.raw_features(steady, mask))
        rates = seq_t.raw[seq_t.vocal_mask, 0]
        taan_energy = np.median(seq_t.raw[seq_t.vocal_mask, 1])
        steady_energy = seq_s.raw[seq_s.vocal_mask, 1].max()
        elapsed = time.time() - t0
        _verdict(1, "feature oracle (mod rate / mod energy)", {
            "rate_within_0.8hz_on_90pct":
                np.mean(np.abs(rates - 6.0) <= 0.8) >= 0.9,
            "steady_energy_10x_lower": taan_energy >= 10.0 * steady_energy,
            "runtime_under_5s": elapsed < 5.0,
        })


class TestCriterion2GradientChecks:
    @staticmethod
    def _rel(a, b):
        return abs(a - b) / max(1.0, abs(a), abs(b))

    def test_backprop_vs_central_differences(self):
        t0 = time.time()
        rng = np.random.default_rng(11)
        worst = 0.0

        # MLP 3 -> 5 -> 2, every parameter
        model = mlp.MlpModel(
            w1=rng.normal(scale=0.5, size=(3, 5)),
            b1=rng.normal(scale=0.1, size=5),
            w2=rng.normal(scale=0.5, size=(5, 2)),
            b2=rng.normal(scale=0.1, size=2),
        )
        xb = rng.normal(size=(6, 3))
        yb = rng.integers(0, 2, size=6)
        weights = np.ones(6)
        step = mlp._grad_fn(model, len(xb))  # the step mlp_train runs
        (gvec,), _ = step(xb, yb, weights)
        grads = mlp._mlp_views(gvec.copy(), 3, 5)  # step reuses its buffer
        eps = 1e-6
        for gi, name in enumerate(("w1", "b1", "w2", "b2")):
            arr = getattr(model, name)
            flat, gflat = arr.reshape(-1), grads[gi].reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                lp = step(xb, yb, weights)[1]
                flat[k] = orig - eps
                lm = step(xb, yb, weights)[1]
                flat[k] = orig
                worst = max(worst, self._rel(gflat[k], (lp - lm) / (2 * eps)))

        # CNN stage-1 path, sampled parameters
        cnn = cnn_mod.cnn_init(seed=5)
        r = np.sqrt(6.0 / (2100 + 2))
        head_w = rng.uniform(-r, r, size=(2100, 2))
        head_b = np.zeros(2)
        pxb = rng.normal(scale=0.5, size=(2, 1, 94, 50))
        pyb, pwb = np.array([0, 1]), np.ones(2)
        cgrads, _ = cnn_mod._stage1_grads(cnn, head_w, head_b, pxb, pyb, pwb)
        eps = 1e-5
        params = ((cnn.conv1_w, cgrads[0]), (cnn.conv1_b, cgrads[1]),
                  (cnn.conv2_w, cgrads[2]), (cnn.conv2_b, cgrads[3]),
                  (head_b, cgrads[5]))
        for arr, grad in params:
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for k in rng.choice(flat.size, size=min(12, flat.size),
                                replace=False):
                orig = flat[k]
                flat[k] = orig + eps
                lp = cnn_mod._stage1_grads(cnn, head_w, head_b, pxb, pyb,
                                           pwb)[1]
                flat[k] = orig - eps
                lm = cnn_mod._stage1_grads(cnn, head_w, head_b, pxb, pyb,
                                           pwb)[1]
                flat[k] = orig
                worst = max(worst, self._rel(gflat[k], (lp - lm) / (2 * eps)))

        elapsed = time.time() - t0
        _verdict(2, "MLP and CNN gradient checks", {
            "relative_error_below_1e-4": worst < 1e-4,
            "runtime_under_30s": elapsed < 30.0,
        })


class TestCriterion3ShapeContract:
    def test_forward_trace(self):
        expected = (
            (94, 50), (10, 88, 44), (10, 44, 22), (10, 42, 20),
            (10, 21, 10), (2100,), (300,), (2,),
        )
        model = cnn_mod.cnn_init(seed=0)
        patch = np.random.default_rng(0).normal(size=(94, 50))
        acts = cnn_mod._conv_stack_forward(model, patch[None, None, :, :])
        h = mlp.sigmoid(acts["flat"] @ model.fc_w + model.fc_b)
        p = mlp.softmax(h @ model.out_w + model.out_b)
        trace = (
            patch.shape, acts["a1"].shape[1:], acts["p1"].shape[1:],
            acts["a2"].shape[1:], acts["p2"].shape[1:], acts["flat"].shape[1:],
            h.shape[1:], p.shape[1:],
        )
        _verdict(3, "CNN shape contract", {
            "chain_constant_matches": cnn_mod.SHAPE_CHAIN == expected,
            "forward_trace_matches": trace == expected,
        })


class TestCriterion4ClassifierLearnability:
    def test_mlp_and_cnn_learn(self, concerts, trained_mlp):
        t0 = time.time()
        cfg = PipelineConfig()
        # MLP: held-out concert F1
        held = concerts["b"]
        y, truth_vocal = pipeline.labels_to_frame_targets(held["labels"])
        _, decisions = mlp.classify_frames(trained_mlp, held["seq"],
                                           threshold=cfg.taan_threshold)
        n = min(len(decisions), len(y))
        use = held["seq"].vocal_mask[:n] & truth_vocal[:n]
        metrics = evaluation.frame_metrics(decisions[:n], y[:n].astype(bool),
                                           mask=use)

        # CNN: 200+200 synthetic patch corpus, held-out accuracy
        train_p, train_l = _patch_corpus(150, seed=1)
        test_p, test_l = _patch_corpus(50, seed=2)
        stats = (np.zeros(cnn_mod.PATCH_BINS), np.ones(cnn_mod.PATCH_BINS))
        model = cnn_mod.cnn_train(train_p, train_l, stats, epochs=10,
                                  lr0=cfg.cnn_lr0, halve_every=5,
                                  batch=cfg.cnn_batch, seed=cfg.cnn_seed)
        post = cnn_mod.cnn_posteriors(model, test_p)
        acc = np.mean((post >= 0.5) == test_l.astype(bool))

        elapsed = time.time() - t0
        _verdict(4, "classifier learnability (MLP F1 / CNN accuracy)", {
            "mlp_heldout_f1_at_least_0.9": metrics["f1"] >= 0.9,
            "cnn_heldout_accuracy_at_least_0.9": acc >= 0.9,
            "runtime_under_10min": elapsed < 600.0,
        })


class TestCriterion5SegmentationOracle:
    def test_novelty_against_brute_force(self):
        t0 = time.time()
        p = np.r_[np.full(20, 0.05), np.full(25, 0.95)]
        seq = mlp.PosteriorSeq(p_taan=p, vocal_mask=np.ones(45, dtype=bool))
        q = posterior_sdm(seq)
        nov = novelty(q, half_width_s=5.0, frame_s=1.0)

        # independent brute-force oracle with explicit loops over the
        # matrix that q generates, including the edge crop-and-rescale
        # behavior
        sdm = np.sqrt(2.0) * np.abs(np.subtract.outer(q, q))
        kernel = checkerboard_kernel(5)
        total = np.abs(kernel).sum()
        n = len(p)
        oracle = np.zeros(n)
        for t in range(n):
            acc = 0.0
            cov = 0.0
            for i in range(-5, 5):
                for j in range(-5, 5):
                    if 0 <= t + i < n and 0 <= t + j < n:
                        acc += kernel[i + 5, j + 5] * sdm[t + i, t + j]
                        cov += abs(kernel[i + 5, j + 5])
            oracle[t] = acc * total / cov if cov > 0 else 0.0

        elapsed = time.time() - t0
        _verdict(5, "novelty oracle and boundary location", {
            "argmax_within_1_frame_of_step": abs(int(np.argmax(nov)) - 20) <= 1,
            "matches_brute_force_within_1e-9":
                bool(np.max(np.abs(nov - oracle)) <= 1e-9),
            "runtime_under_1s": elapsed < 1.0,
        })


class TestCriterion6GroupingRules:
    def test_boundary_cases(self):
        t0 = time.time()

        def taans_after(gap_label, gap_s):
            tl = SectionTimeline([
                Section(0, 30, "taan"),
                Section(30, 30 + gap_s, gap_label),
                Section(30 + gap_s, 60 + gap_s, "taan"),
            ])
            return len(group_sections(tl).taan_sections())

        merged_19 = taans_after("non-taan", 19.0) == 1
        kept_21 = taans_after("non-taan", 21.0) == 2
        merged_49 = taans_after("instrumental", 49.0) == 1
        kept_51 = taans_after("instrumental", 51.0) == 2

        tl = SectionTimeline([
            Section(0, 30, "taan"), Section(30, 45, "non-taan"),
            Section(45, 80, "taan"), Section(80, 140, "instrumental"),
            Section(140, 170, "taan"),
        ])
        once = group_sections(tl)
        idempotent = group_sections(once).sections == once.sections

        elapsed = time.time() - t0
        _verdict(6, "grouping boundary cases and idempotence", {
            "vocal_gap_19s_merges": merged_19,
            "vocal_gap_21s_kept": kept_21,
            "instrumental_gap_49s_merges": merged_49,
            "instrumental_gap_51s_kept": kept_51,
            "idempotent": idempotent,
            "runtime_under_1s": elapsed < 1.0,
        })


class TestCriterion7EndToEnd:
    def test_full_pipeline(self, concerts, trained_mlp):
        t0 = time.time()
        cfg = PipelineConfig()
        held = concerts["b"]
        detected = pipeline.segment_audio(held["clip"], trained_mlp, cfg)
        report = evaluation.match_sections(detected, held["timeline"])
        dev = evaluation.boundary_deviation(report)
        retrieved = report.exact + report.over_segmented + report.under_segmented
        max_dev = 0.0 if dev.get("empty") else max(dev["max_onset"],
                                                   dev["max_offset"])
        elapsed = time.time() - t0
        _verdict(7, "end-to-end taan retrieval on a held-out concert", {
            "recall_at_least_5_of_6": retrieved >= 5,
            "zero_false_alarms": report.false_alarm == 0,
            "max_boundary_deviation_5s": max_dev <= 5.0,
            "runtime_under_2min": elapsed < 120.0,
        })


class TestCriterion8Bootstrap:
    def test_self_training(self):
        t0 = time.time()
        rng = np.random.default_rng(9)
        n = 200
        x0 = rng.normal(loc=[0.0, 0.0, 0.0], scale=1.0, size=(n, 3))
        x1 = rng.normal(loc=[3.0, 3.0, 3.0], scale=1.0, size=(n, 3))
        x = np.vstack([x0, x1])
        y = np.r_[np.zeros(n, np.int64), np.ones(n, np.int64)]
        seed = {0: 0, 1: 0, n: 1, n + 1: 1}
        labels, rounds, converged = bootstrap_labels(x, seed)
        acc = max(np.mean(labels == y), np.mean(labels != y))

        rough = np.array([0, 1] * n)
        _, trace = gmm_fit_em(x, gmm_from_labels(x, rough), max_iter=30)
        monotone = bool(np.all(np.diff(trace) >= -1e-7))

        elapsed = time.time() - t0
        _verdict(8, "bootstrap labeling from a 2+2 seed", {
            "accuracy_at_least_95pct": acc >= 0.95,
            "em_loglik_monotone": monotone,
            "fixpoint_within_10_rounds": converged and rounds <= 10,
            "runtime_under_5s": elapsed < 5.0,
        })


class TestCriterion9EvaluationTaxonomy:
    def test_taxonomy_scenarios(self):
        def tl(*spans):
            return SectionTimeline(
                [Section(a, b, lab) for a, b, lab in spans])

        checks = {}
        # (a) false alarm: detection far from any truth taan
        r = evaluation.match_sections(tl((200, 240, "taan")),
                                      tl((0, 40, "taan")))
        checks["a_false_alarm"] = (r.false_alarm == 1 and r.missed == 1)
        # (b) over-segmentation: two detections on one truth section
        r = evaluation.match_sections(
            tl((0, 18, "taan"), (18, 22, "non-taan"), (22, 40, "taan")),
            tl((0, 40, "taan")))
        checks["b_over_segmented"] = (r.over_segmented == 1 and r.exact == 0)
        # (c) exact detection
        r = evaluation.match_sections(tl((1, 39, "taan")),
                                      tl((0, 40, "taan")))
        checks["c_exact"] = (r.exact == 1 and r.boundary_deviations
                             == [(1.0, 1.0)])
        # (d) missed detection: under 50% coverage
        r = evaluation.match_sections(tl((30, 45, "taan")),
                                      tl((0, 40, "taan")))
        checks["d_missed"] = (r.missed == 1)
        # (e) under-segmentation: one detection spanning two truths
        r = evaluation.match_sections(
            tl((0, 100, "taan")),
            tl((0, 40, "taan"), (60, 100, "taan")))
        checks["e_under_segmented"] = (r.under_segmented == 2)
        # category counts partition the ground truth
        det = tl((0, 39, "taan"), (45, 90, "taan"), (200, 240, "taan"))
        tru = tl((0, 40, "taan"), (50, 90, "taan"), (100, 140, "taan"))
        r = evaluation.match_sections(det, tru)
        checks["counts_partition_truth"] = (
            r.exact + r.over_segmented + r.under_segmented + r.missed
            == len(tru.taan_sections()))
        _verdict(9, "section-level evaluation taxonomy", checks)


class TestCriterion10Determinism:
    def test_round_trips(self, tmp_path):
        checks = {}
        # same-seed synthesis is bit-identical
        a, _, _ = synth_concert(default_test_script(seed=7))
        b, _, _ = synth_concert(default_test_script(seed=7))
        checks["synthesis_bit_identical"] = bool(
            np.array_equal(a.samples, b.samples))

        # model containers round-trip bit-exact
        m1 = mlp.mlp_init(300, seed=4)
        save_model(m1, tmp_path / "m.tseg")
        m2 = load_model(tmp_path / "m.tseg")
        checks["mlp_serialization_bit_exact"] = all(
            np.array_equal(getattr(m1, k), getattr(m2, k))
            for k in ("w1", "b1", "w2", "b2"))
        c1 = cnn_mod.cnn_init(seed=4)
        save_model(c1, tmp_path / "c.tseg")
        c2 = load_model(tmp_path / "c.tseg")
        checks["cnn_serialization_bit_exact"] = all(
            np.array_equal(getattr(c1, k), getattr(c2, k))
            for k in ("conv1_w", "conv1_b", "conv2_w", "conv2_b", "fc_w",
                      "fc_b", "out_w", "out_b", "band_mean", "band_std"))

        # TextGrid round-trip identity
        tl = SectionTimeline([
            Section(0.0, 30.0, "taan"), Section(30.0, 55.5, "non-taan"),
            Section(55.5, 80.0, "instrumental"),
        ])
        doc = timeline_to_doc(tl)
        emit_textgrid(doc, tmp_path / "t.TextGrid")
        checks["textgrid_round_trip"] = (
            parse_textgrid(tmp_path / "t.TextGrid") == doc)

        # WAV round-trip identity on exactly representable samples
        ints = np.random.default_rng(0).integers(-32768, 32768, size=4000)
        clip = AudioClip(ints / 32768.0, 8000)
        write_wav(clip, tmp_path / "x.wav")
        back = read_wav(tmp_path / "x.wav")
        checks["wav_round_trip"] = bool(
            np.array_equal(back.samples, clip.samples))

        _verdict(10, "determinism and round-trips", checks)
