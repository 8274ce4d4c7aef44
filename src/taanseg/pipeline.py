"""End-to-end wiring: audio -> vocal attributes -> style features ->
posteriors -> labeled taan timeline.
"""

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import dsp, features, mlp, segmentation, vocal
from .config import PipelineConfig
from .errors import DataError


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# spectrogram blocks tracked at once, one per worker thread: numpy releases
# the interpreter lock inside the array operations of the F0 search, so two
# blocks overlap on two cores
TRACK_WORKERS = min(2, _usable_cpus())


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
    Blocks are tracked on TRACK_WORKERS threads, with at most that many
    blocks in flight; the pool is gone when this returns or raises, and a
    block's exception is raised here as it is.
    """
    cfg = cfg or PipelineConfig()
    clip = dsp.resample(clip, 8000)
    blocks = dsp.log_spectrogram_blocks(clip, win_s=0.04, hop_s=0.01,
                                        n_dft=1024)
    parts, pending = [], deque()
    pool = ThreadPoolExecutor(max_workers=TRACK_WORKERS)
    try:
        for spec in blocks:
            pending.append(pool.submit(_track_block, spec, cfg))
            if len(pending) == TRACK_WORKERS:
                parts.append(pending.popleft().result())
        parts.extend(future.result() for future in pending)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    f0, energy, voiced = zip(*parts)
    return vocal.PitchEnergyTrack(f0_hz=np.concatenate(f0),
                                  energy_db=np.concatenate(energy),
                                  voiced=np.concatenate(voiced))


def track_features(track, cfg=None):
    """Style features from a pitch/energy track."""
    cfg = cfg or PipelineConfig()
    mask = vocal.detect_vocal_activity(track, min_run_s=cfg.vocal_min_run_s,
                                       max_gap_s=cfg.vocal_max_gap_s)
    return features.extract_features(track, mask,
                                     max_gap_frac=cfg.feature_gap_frac,
                                     smooth_s=cfg.smooth_window_s,
                                     var_floor=cfg.norm_var_floor)


def segment_posteriors(posteriors, decisions, cfg=None):
    """Posterior sequence -> grouped taan timeline."""
    cfg = cfg or PipelineConfig()
    sdm = segmentation.posterior_sdm(posteriors)
    nov = segmentation.novelty(sdm, half_width_s=cfg.novelty_half_width_s,
                               frame_s=posteriors.frame_s,
                               gaussian_taper=cfg.gaussian_taper)
    bounds = segmentation.pick_boundaries(
        nov, neighborhood_s=cfg.pick_neighborhood_s,
        rel_threshold=cfg.pick_rel_threshold, frame_s=posteriors.frame_s,
    )
    timeline = segmentation.label_segments(bounds, decisions,
                                           posteriors.vocal_mask,
                                           frame_s=posteriors.frame_s)
    return segmentation.group_sections(timeline,
                                       vocal_gap_s=cfg.group_vocal_gap_s,
                                       instr_gap_s=cfg.group_instr_gap_s)


def segment_audio(clip, model, cfg=None):
    """Full MLP-path pipeline on one concert."""
    if not isinstance(model, mlp.MlpModel):
        raise DataError(f"segment needs an MLP model, got "
                        f"{type(model).__name__}; a CNN model classifies "
                        "audio with `taanseg classify --audio`")
    cfg = cfg or PipelineConfig()
    track = extract_track(clip, cfg)
    seq = track_features(track, cfg)
    posteriors, decisions = mlp.classify_frames(model, seq,
                                                threshold=cfg.taan_threshold)
    return segment_posteriors(posteriors, decisions, cfg)


def labels_to_frame_targets(labels):
    """Frame-label strings -> (binary taan targets, vocal mask)."""
    y = np.array([1 if lab == "taan" else 0 for lab in labels], dtype=np.int64)
    vocal_mask = np.array([lab != "instrumental" for lab in labels], dtype=bool)
    return y, vocal_mask


def training_set(seq, labels):
    """Aligned (features, targets) on frames vocal in both views."""
    y, truth_vocal = labels_to_frame_targets(labels)
    n = min(len(seq), len(y))
    use = seq.vocal_mask[:n] & truth_vocal[:n]
    return seq.features[:n][use], y[:n][use]
