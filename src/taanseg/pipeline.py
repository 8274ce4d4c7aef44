"""End-to-end wiring: audio -> posteriors of an MLP or a CNN model
(`classify_audio`) -> labeled taan timeline (`segment_posteriors`), and
the one training path of each model from truth (`train_mlp`, `train_cnn`).
"""

import functools
import math

import numpy as np

from . import cnn, dsp, features, mlp, segmentation, vocal
from .config import PipelineConfig
from .errors import EmptyInputError, InvalidArgumentError
from .pool import ordered_map


def _track_block(spec, cfg):
    """(f0, energy, voiced) of one spectrogram block."""
    track = vocal.detect_f0_baseline(
        spec, f_min=cfg.f0_min_hz, f_max=cfg.f0_max_hz,
        voicing_factor=cfg.voicing_factor, grid_cents=cfg.f0_grid_cents,
        tol_cents=cfg.harmonic_tol_cents, n_harmonics=cfg.n_harmonics,
    )
    energy = vocal.harmonic_energy(spec, track.f0_hz,
                                   tol_cents=cfg.harmonic_tol_cents,
                                   n_harmonics=cfg.n_harmonics)
    return track.f0_hz, energy, track.voiced


def extract_track(clip, cfg=None):
    """Baseline vocal attributes from audio: F0, harmonic energy, voicing.

    Tracking streams the 8 kHz clip through C-contiguous (n_bins, n_frames)
    spectrogram blocks of dsp.FRAME_BLOCK frames: F0 search and harmonic
    energy are frame-local, so the per-block tracks concatenate to the
    whole-spectrogram result while memory stays O(block), not O(length).
    Blocks are tracked on `pool.ordered_map`'s threads, with at most
    pool.WORKERS blocks in flight.
    """
    cfg = cfg or PipelineConfig()
    clip = dsp.resample(clip, dsp.ANALYSIS_HZ)
    blocks = dsp.log_spectrogram_blocks(clip, dsp.WIN_S, vocal.TRACK_HOP_S,
                                        dsp.N_DFT)
    parts = ordered_map(functools.partial(_track_block, cfg=cfg), blocks)
    f0, energy, voiced = zip(*parts)
    return vocal.PitchEnergyTrack(f0_hz=np.concatenate(f0),
                                  energy_db=np.concatenate(energy),
                                  voiced=np.concatenate(voiced))


def track_features(track, cfg=None):
    """Style features from a pitch/energy track."""
    cfg = cfg or PipelineConfig()
    mask = vocal.detect_vocal_activity(track, min_run_s=cfg.vocal_min_run_s,
                                       max_gap_s=cfg.vocal_max_gap_s)
    feats, valid = features.raw_features(track, mask, cfg.feature_gap_frac)
    return features.smooth_and_normalize(feats, valid, cfg.smooth_window_s,
                                         cfg.norm_var_floor)


def segment_posteriors(posteriors, decisions, cfg=None):
    """Posterior sequence -> grouped taan timeline."""
    cfg = cfg or PipelineConfig()
    sdm = segmentation.posterior_sdm(posteriors)
    nov = segmentation.novelty(sdm, half_width_s=cfg.novelty_half_width_s,
                               gaussian_taper=cfg.gaussian_taper)
    bounds = segmentation.pick_boundaries(
        nov, neighborhood_s=cfg.pick_neighborhood_s,
        rel_threshold=cfg.pick_rel_threshold)
    timeline = segmentation.label_segments(bounds, decisions,
                                           posteriors.vocal_mask)
    return segmentation.group_sections(timeline,
                                       vocal_gap_s=cfg.group_vocal_gap_s,
                                       instr_gap_s=cfg.group_instr_gap_s)


def classify_audio(clip, model, cfg=None):
    """classify_frames' (PosteriorSeq, taan decisions) of a concert; the one
    model-kind branch picks its frame features. MLP: extract_track ->
    track_features. CNN: patch_spectrogram -> make_patches under its band
    statistics -> frame_features, scored by its head with every frame vocal
    (no vocal detector), so a CNN timeline never has `instrumental`."""
    cfg = cfg or PipelineConfig()
    if isinstance(model, cnn.CnnModel):
        feats = cnn.frame_features(model, cnn.make_patches(
            cnn.patch_spectrogram(clip), (model.band_mean, model.band_std))[0])
        seq = features.StyleFeatureSeq(feats, np.ones(len(feats), bool))
        model = model.head
    else:
        seq = track_features(extract_track(clip, cfg), cfg)
    return mlp.classify_frames(model, seq, threshold=cfg.taan_threshold)


def segment_audio(clip, model, cfg=None):
    """Full pipeline on one concert, with an MLP or a CNN model."""
    return segment_posteriors(*classify_audio(clip, model, cfg), cfg)


def labels_to_frame_targets(labels):
    """Frame-label strings -> (binary taan targets, vocal mask)."""
    labels = np.asarray(labels, dtype=object)
    return (labels == "taan").astype(np.int64), labels != "instrumental"


def training_set(seq, labels):
    """Aligned (features, targets) on frames vocal in both views."""
    y, truth_vocal = labels_to_frame_targets(labels)
    n = min(len(seq), len(y))
    use = seq.vocal_mask[:n] & truth_vocal[:n]
    return seq.features[:n][use], y[:n][use]


def _truth_labels(timeline, n):
    """The 1 s frame labels of a truth timeline up to its end, n at most."""
    if not len(timeline):
        raise EmptyInputError("a truth timeline has no sections")
    return timeline.frame_labels(min(math.floor(timeline.span()[1]), n))


def train_mlp(pairs, cfg=None):
    """An MlpModel from (StyleFeatureSeq, truth SectionTimeline) pairs."""
    cfg = cfg or PipelineConfig()
    sets = [training_set(seq, _truth_labels(t, len(seq))) for seq, t in pairs]
    if not sets:
        raise InvalidArgumentError("no training pairs")
    x, y = map(np.concatenate, zip(*sets))
    model = mlp.mlp_init(cfg.mlp_hidden, seed=cfg.mlp_seed)
    return mlp.mlp_train(model, x, y, lr=cfg.mlp_lr, epochs=cfg.mlp_epochs,
                         batch=cfg.mlp_batch, seed=cfg.mlp_seed,
                         class_balance=cfg.class_balance)[0]


def train_cnn(pairs, cfg=None):
    """A CnnModel trained on (AudioClip, truth SectionTimeline) pairs, an
    iterable read once. Band statistics pool every clip's spectrogram, and
    each is dropped once cut, so training holds the patches alone."""
    cfg = cfg or PipelineConfig()
    specs, timelines = [], []
    for clip, t in pairs:
        _truth_labels(t, 0)     # an empty truth fails before its spectrogram
        specs.append(cnn.patch_spectrogram(clip))
        timelines.append(t)
    if not specs:
        raise InvalidArgumentError("no training pairs")
    stats = cnn.spectrogram_band_stats(specs)
    patches, targets = [], []
    for t in timelines:
        pats = cnn.make_patches(specs.pop(0), band_stats=stats)[0]
        targets.append(labels_to_frame_targets(_truth_labels(t, len(pats)))[0])
        patches.append(pats[: len(targets[-1])])
    del clip, pats  # the concatenated patches alone go into training
    patches = np.concatenate(patches)
    return cnn.cnn_train(patches, np.concatenate(targets), stats,
                         epochs=cfg.cnn_epochs, lr0=cfg.cnn_lr0,
                         halve_every=cfg.cnn_halve_every,
                         batch=cfg.cnn_batch, seed=cfg.cnn_seed)
