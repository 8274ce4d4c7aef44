"""The benchmark's three workloads: input generation, set-up, one
operation, and the checks on its output.

Every input is generated here from the workload seed; the library only
ever sees the generated clips, tracks and files. `--seed n` trains on the
concert of seed n and holds out the concert of seed n + 4, so the default
seed 7 gives the ROADMAP pair 7/11.

Untraced operations call the library's own composition (`pipeline.*`).
Traced operations rebuild the same chain from the public per-module
calls, each wrapped in a span, so the per-layer times add up to the real
pipeline; the run checks that both give the same timelines.
"""

from dataclasses import dataclass

import numpy as np

from taanseg import (bootstrap, cnn, dsp, evaluation, features, mlp, modelio,
                     pipeline, segmentation, synth, textgrid, vocal, wavio)
from taanseg.config import PipelineConfig

CFG = PipelineConfig()
HELD_OUT_OFFSET = 4
TRACK_CONCERTS = 8
TRACK_HELD_OUT = (4, 7)     # concert offsets from the seed; seed 7 -> 11, 14


@dataclass
class Concert:
    clip: dsp.AudioClip
    timeline: segmentation.SectionTimeline
    labels: list


def concert_script(seed, short):
    """The 10-minute ROADMAP concert, or a 2-minute one for the self-check."""
    if not short:
        return synth.default_test_script(seed)
    mk = synth.SectionSpec
    return synth.ConcertScript(seed=seed, sections=[
        mk("instrumental", 15.0),
        mk("taan", 25.0, f0_hz=220.0, mod_rate_hz=6.0),
        mk("steady-vocal", 25.0, f0_hz=196.0),
        mk("taan", 25.0, f0_hz=247.0, mod_rate_hz=5.5),
        mk("glide-vocal", 15.0, f0_hz=220.0, mod_rate_hz=0.5,
           mod_depth_cents=200.0),
        mk("instrumental", 15.0),
    ])


def synth_concert(tr, script):
    return Concert(*tr.call("synth.synth_concert", synth.synth_concert, script))


def frame_labels(timeline, n):
    """Label of each 1 s frame, read at the frame's midpoint."""
    ends = np.array([s.end_s for s in timeline])
    idx = np.searchsorted(ends, np.arange(n) + 0.5, side="right")
    names = [s.label for s in timeline] + ["instrumental"]
    return [names[i] for i in idx]


def script_truth(script):
    """Truth timeline and 1 s frame labels, as synth_concert builds them."""
    sections, start = [], 0.0
    for spec in script.sections:
        label = {"instrumental": "instrumental", "taan": "taan"}.get(
            spec.style, "non-taan")
        sections.append(segmentation.Section(start, start + spec.duration_s,
                                             label))
        start += spec.duration_s
    timeline = segmentation.SectionTimeline(sections)
    return timeline, frame_labels(timeline, int(np.floor(start)))


# -- the pipeline, rebuilt from public calls (mirrors taanseg/pipeline.py) --

def track_features(tr, track):
    if not tr.enabled:
        return pipeline.track_features(track, CFG)
    mask = tr.call("vocal.detect_vocal_activity", vocal.detect_vocal_activity,
                   track, min_run_s=CFG.vocal_min_run_s,
                   max_gap_s=CFG.vocal_max_gap_s)
    feats, valid = tr.call("features.raw_features", features.raw_features,
                           track, mask, max_gap_frac=CFG.feature_gap_frac)
    tr.count("features.valid_windows", int(valid.sum()))
    tr.count("features.windows", len(valid))
    return tr.call("features.smooth_and_normalize",
                   features.smooth_and_normalize, feats, valid,
                   smooth_s=CFG.smooth_window_s, var_floor=CFG.norm_var_floor)


def segment_posteriors(tr, posteriors, decisions):
    if not tr.enabled:
        return pipeline.segment_posteriors(posteriors, decisions, CFG)
    sdm = tr.call("segmentation.posterior_sdm", segmentation.posterior_sdm,
                  posteriors)
    nov = tr.call("segmentation.novelty", segmentation.novelty, sdm,
                  half_width_s=CFG.novelty_half_width_s,
                  frame_s=posteriors.frame_s,
                  gaussian_taper=CFG.gaussian_taper)
    bounds = tr.call("segmentation.pick_boundaries",
                     segmentation.pick_boundaries, nov,
                     neighborhood_s=CFG.pick_neighborhood_s,
                     rel_threshold=CFG.pick_rel_threshold,
                     frame_s=posteriors.frame_s)
    timeline = tr.call("segmentation.label_segments",
                       segmentation.label_segments, bounds, decisions,
                       posteriors.vocal_mask, frame_s=posteriors.frame_s)
    grouped = tr.call("segmentation.group_sections",
                      segmentation.group_sections, timeline,
                      vocal_gap_s=CFG.group_vocal_gap_s,
                      instr_gap_s=CFG.group_instr_gap_s)
    tr.count("segmentation.boundaries", len(bounds))
    tr.count("segmentation.sections_before_group", len(timeline))
    tr.count("segmentation.sections_after_group", len(grouped))
    return grouped


def count_voicing(tr, track):
    tr.count("vocal.voiced_frames", int(track.voiced.sum()))
    tr.count("vocal.track_frames", len(track))


def traced_segment_audio(tr, clip, model):
    """pipeline.segment_audio, one span per public call; returns the
    intermediate track too, for the bit-identity guard."""
    clip8 = tr.call("dsp.resample", dsp.resample, clip, 8000)
    spec = tr.call("dsp.log_spectrogram", dsp.log_spectrogram, clip8,
                   win_s=0.04, hop_s=0.01, n_dft=1024, peak_mem=True)
    tr.count("dsp.frames", spec.n_frames)
    base = tr.call("vocal.detect_f0_baseline", vocal.detect_f0_baseline, spec,
                   f_min=CFG.f0_min_hz, f_max=CFG.f0_max_hz,
                   voicing_factor=CFG.voicing_factor,
                   grid_cents=CFG.f0_grid_cents,
                   tol_cents=CFG.harmonic_tol_cents,
                   n_harmonics=CFG.n_harmonics, peak_mem=True)
    energy = tr.call("vocal.harmonic_energy", vocal.harmonic_energy, spec,
                     base.f0_hz, tol_cents=CFG.harmonic_tol_cents,
                     n_harmonics=CFG.n_harmonics)
    del spec
    track = vocal.PitchEnergyTrack(f0_hz=base.f0_hz, energy_db=energy,
                                   voiced=base.voiced)
    count_voicing(tr, track)
    seq = track_features(tr, track)
    posteriors, decisions = tr.call("mlp.classify_frames", mlp.classify_frames,
                                    model, seq, threshold=CFG.taan_threshold)
    return track, segment_posteriors(tr, posteriors, decisions)


# -- scoring and output checks --

def spans_concert(timeline, duration_s):
    """Gap-free from 0 to the last whole 1 s frame of the concert."""
    secs = timeline.sections
    return bool(secs) and secs[0].start_s == 0.0 and all(
        a.end_s == b.start_s for a, b in zip(secs, secs[1:])
    ) and duration_s - 1.0 <= secs[-1].end_s <= duration_s


def score(tr, detected, truths):
    """Quality of detected timelines against (truth timeline, labels)."""
    exact = n_truth = false_alarm = 0
    devs, preds, ys, masks = [], [], [], []
    for det, (truth, labels) in zip(detected, truths):
        rep = tr.call("evaluation.match_sections", evaluation.match_sections,
                      det, truth)
        exact += rep.exact
        false_alarm += rep.false_alarm
        n_truth += len(truth.taan_sections())
        devs += [d for pair in rep.boundary_deviations for d in pair]
        y, truth_vocal = pipeline.labels_to_frame_targets(labels)
        preds.append(np.array(frame_labels(det, len(y))) == "taan")
        ys.append(y.astype(bool))
        masks.append(truth_vocal)
    fm = tr.call("evaluation.frame_metrics", evaluation.frame_metrics,
                 np.concatenate(preds), np.concatenate(ys),
                 mask=np.concatenate(masks))
    return {
        "frame_f1": fm["f1"],
        "sections_exact": exact,
        "section_errors": n_truth - exact + false_alarm,
        "boundary_dev_s": float(np.mean(devs)) if devs else None,
    }


def finish(tr, state, timelines, checks):
    """Outcome of one operation: timelines, their quality, and checks."""
    for k, (tl, concert) in enumerate(zip(timelines, state["held_out"])):
        checks[f"timeline_spans_concert_{k}"] = spans_concert(
            tl, concert.timeline.span()[1])
    quality = score(tr, timelines,
                    [(c.timeline, c.labels) for c in state["held_out"]])
    checks["exact_section_found"] = quality["boundary_dev_s"] is not None
    return {"timelines": [tl.sections for tl in timelines],
            "quality": quality, "checks": checks}


def train_mlp(tr, x, y):
    """Trained model and whether every epoch's loss is finite."""
    model = mlp.mlp_init(CFG.mlp_hidden, seed=CFG.mlp_seed)
    model, losses = tr.call("mlp.mlp_train", mlp.mlp_train, model, x, y,
                            lr=CFG.mlp_lr, epochs=CFG.mlp_epochs,
                            batch=CFG.mlp_batch, seed=CFG.mlp_seed,
                            class_balance=CFG.class_balance)
    return model, bool(np.all(np.isfinite(losses)))


# -- concert10_mlp: the paper's main use, audio to timeline with the MLP --

def setup_concert10(seed, short, work, tr):
    train = synth_concert(tr, concert_script(seed, short))
    held = synth_concert(tr, concert_script(seed + HELD_OUT_OFFSET, short))
    wav = work / "concert10_mlp_heldout.wav"
    tr.call("wavio.write_wav", wavio.write_wav, held.clip, wav)
    track = pipeline.extract_track(train.clip, CFG)
    x, y = pipeline.training_set(pipeline.track_features(track, CFG),
                                 train.labels)
    model, losses_finite = train_mlp(tr, x, y)
    return {"wav": wav, "model": model, "losses_finite": losses_finite,
            "held_out": [held], "concert_s": held.clip.duration_s}


def op_concert10(state, tr):
    clip = tr.call("wavio.read_wav", wavio.read_wav, state["wav"])
    track = None
    if tr.enabled:
        track, timeline = traced_segment_audio(tr, clip, state["model"])
    else:
        timeline = pipeline.segment_audio(clip, state["model"], CFG)
    out = finish(tr, state, [timeline],
                 {"losses_finite": state["losses_finite"]})
    out["track"] = track
    return out


def guard_concert10(state, out):
    """The traced chain's track is bit-identical to pipeline.extract_track."""
    ref = pipeline.extract_track(wavio.read_wav(state["wav"]), CFG)
    return {"track_matches_pipeline": same_track(ref, out["track"])}


# -- cnn_train_infer: the CNN path, forward+backward and batched forward --

def setup_cnn(seed, short, work, tr):
    train = synth_concert(tr, concert_script(seed, short))
    held = synth_concert(tr, concert_script(seed + HELD_OUT_OFFSET, short))
    return {"train": train, "held_out": [held],
            "concert_s": train.clip.duration_s + held.clip.duration_s}


def patch_spectrogram(tr, clip):
    """20 ms-hop spectrogram at 8 kHz, as `taanseg train-cnn` builds it."""
    clip8 = tr.call("dsp.resample", dsp.resample, clip, 8000)
    return tr.call("dsp.log_spectrogram", dsp.log_spectrogram, clip8,
                   win_s=0.04, hop_s=0.02, n_dft=1024, peak_mem=True)


def op_cnn(state, tr):
    train, held = state["train"], state["held_out"][0]
    train_p, stats = tr.call("cnn.make_patches", cnn.make_patches,
                             patch_spectrogram(tr, train.clip))
    y, _ = pipeline.labels_to_frame_targets(train.labels)
    n = min(len(train_p), len(y))
    model = tr.call("cnn.cnn_train", cnn.cnn_train, train_p[:n], y[:n], stats,
                    epochs=1, lr0=CFG.cnn_lr0, halve_every=CFG.cnn_halve_every,
                    batch=CFG.cnn_batch, seed=CFG.cnn_seed, head_epochs=1,
                    peak_mem=True)
    held_p, _ = tr.call("cnn.make_patches", cnn.make_patches,
                        patch_spectrogram(tr, held.clip), band_stats=stats)
    tr.count("cnn.patches", len(train_p) + len(held_p))
    p = tr.call("cnn.cnn_posteriors", cnn.cnn_posteriors, model, held_p)
    # every frame enters segmentation, as `taanseg classify` does for a CNN
    posteriors = mlp.PosteriorSeq(p_taan=p, vocal_mask=np.ones(len(p), bool))
    timeline = segment_posteriors(tr, posteriors, p >= CFG.taan_threshold)
    losses = model.meta["stage1_loss"] + model.meta["stage2_loss"]
    checks = {
        "posteriors_in_unit_interval": bool(
            np.all(np.isfinite(p)) and p.min() >= 0.0 and p.max() <= 1.0),
        "losses_finite": bool(losses) and bool(np.all(np.isfinite(losses))),
    }
    return finish(tr, state, [timeline], checks)


# -- tracks_corpus: pitch-track CSVs in, no F0 search and no CNN --

def contour_track(tr, script):
    """Pitch/energy track straight from the script's contours, built like
    the acceptance suite's synthetic tracks; instrumental is unvoiced."""
    rng = np.random.default_rng(script.seed)
    f0, energy = [], []
    for spec in script.sections:
        cents = tr.call("synth.synth_pitch_contour", synth.synth_pitch_contour,
                        spec, rng)
        n = int(round(spec.duration_s / synth.CONTOUR_HOP_S))
        if cents is None:
            f0.append(np.zeros(n))
            energy.append(np.full(n, vocal.UNVOICED_DB))
            continue
        f0.append(synth.REF_HZ * 2.0 ** (cents / 1200.0))
        if spec.style == "taan":
            t = np.arange(n) * synth.CONTOUR_HOP_S
            energy.append(-20.0 + 3.0 * np.sin(2 * np.pi * spec.mod_rate_hz * t))
        else:
            energy.append(np.full(n, -20.0))
    f0 = np.concatenate(f0)
    return vocal.PitchEnergyTrack(f0_hz=f0, energy_db=np.concatenate(energy),
                                  voiced=f0 > 0)


@dataclass
class TrackConcert:
    path: object
    track: vocal.PitchEnergyTrack
    timeline: segmentation.SectionTimeline
    labels: list


def setup_tracks(seed, short, work, tr):
    concerts = []
    for k in range(TRACK_CONCERTS):
        script = concert_script(seed + k, short)
        track = contour_track(tr, script)
        path = work / f"tracks_corpus_{k}.csv"
        tr.call("vocal.write_track", vocal.write_track, track, path)
        concerts.append(TrackConcert(path, track, *script_truth(script)))
    return {"concerts": concerts, "work": work,
            "held_out": [concerts[k] for k in TRACK_HELD_OUT],
            "concert_s": sum(len(c.track) for c in concerts) * vocal.TRACK_HOP_S}


def same_track(a, b):
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("f0_hz", "energy_db", "voiced"))


def op_tracks(state, tr):
    concerts, work = state["concerts"], state["work"]
    checks = {}
    seqs = []
    for k, c in enumerate(concerts):
        track = tr.call("vocal.ingest_track", vocal.ingest_track, c.path)
        seqs.append(track_features(tr, track))
        count_voicing(tr, track)
        checks[f"track_csv_round_trip_{k}"] = same_track(track, c.track)
    parts = [pipeline.training_set(seqs[k], concerts[k].labels)
             for k in range(len(concerts)) if k not in TRACK_HELD_OUT]
    x = np.concatenate([p[0] for p in parts])
    y = np.concatenate([p[1] for p in parts])
    model, checks["losses_finite"] = train_mlp(tr, x, y)
    tr.count("mlp.train_samples", len(x))

    path = work / "tracks_corpus_mlp.tseg"
    with tr.span("modelio.save_load"):
        modelio.save_model(model, path)
        back = modelio.load_model(path)
    checks["model_round_trip"] = all(np.array_equal(getattr(model, k),
                                                    getattr(back, k))
                                     for k in ("w1", "b1", "w2", "b2"))
    timelines = []
    for k in TRACK_HELD_OUT:
        seq, c = seqs[k], concerts[k]
        fpath = work / f"tracks_corpus_{k}_features.csv"
        with tr.span("features.csv_roundtrip"):
            features.write_features(seq, fpath)
            back = features.read_features(fpath)
        checks[f"feature_csv_round_trip_{k}"] = bool(
            np.array_equal(back.features, seq.features, equal_nan=True)
            and np.array_equal(back.vocal_mask, seq.vocal_mask))

        posteriors, decisions = tr.call("mlp.classify_frames",
                                        mlp.classify_frames, model, seq,
                                        threshold=CFG.taan_threshold)
        timeline = segment_posteriors(tr, posteriors, decisions)
        timelines.append(timeline)

        tpath = work / f"tracks_corpus_{k}_timeline.tsv"
        with tr.span("segmentation.timeline_io"):
            segmentation.write_timeline(timeline, tpath)
            back = segmentation.read_timeline(tpath)
        checks[f"timeline_tsv_round_trip_{k}"] = back.sections == timeline.sections

        gpath = work / f"tracks_corpus_{k}.TextGrid"
        with tr.span("textgrid.roundtrip"):
            doc = textgrid.timeline_to_doc(timeline)
            textgrid.emit_textgrid(doc, gpath)
            parsed = textgrid.parse_textgrid(gpath)
            back = textgrid.tier_to_timeline(parsed.tiers[0])
        checks[f"textgrid_round_trip_{k}"] = (
            parsed == doc and back.sections == timeline.sections)

        y_k, truth_vocal = pipeline.labels_to_frame_targets(c.labels)
        n = min(len(posteriors), len(y_k))
        use = posteriors.vocal_mask[:n] & truth_vocal[:n]
        points, _ = tr.call("evaluation.roc_curve", evaluation.roc_curve,
                            posteriors.p_taan[:n], y_k[:n].astype(bool),
                            mask=use)
        tr.count("evaluation.roc_points", len(points))

        # grow labels from two truth frames of each class
        feats, truth = seq.features[:n][use], y_k[:n][use]
        seeds = {int(i): int(cls) for cls in (0, 1)
                 for i in np.flatnonzero(truth == cls)[:2]}
        labels, rounds, _ = tr.call("bootstrap.bootstrap_labels",
                                    bootstrap.bootstrap_labels, feats, seeds)
        tr.count("bootstrap.rounds", rounds)
        checks[f"bootstrap_keeps_seeds_{k}"] = all(
            labels[i] == cls for i, cls in seeds.items())
    return finish(tr, state, timelines, checks)


@dataclass
class Workload:
    setup: object
    op: object
    setup_repeats: int      # set-ups per run; setup_s is their median
    layers: tuple           # modules a traced run must have spans for
    guard: object = None    # extra checks after a traced operation


WORKLOADS = {
    # set-up includes an 18 s extract_track, so it runs once per run
    "concert10_mlp": Workload(
        setup_concert10, op_concert10, 1,
        ("synth", "wavio", "dsp", "vocal", "features", "mlp", "segmentation",
         "evaluation"), guard_concert10),
    "cnn_train_infer": Workload(
        setup_cnn, op_cnn, 3,
        ("synth", "dsp", "cnn", "segmentation", "evaluation")),
    "tracks_corpus": Workload(
        setup_tracks, op_tracks, 3,
        ("synth", "vocal", "features", "mlp", "modelio", "segmentation",
         "textgrid", "evaluation", "bootstrap")),
}
