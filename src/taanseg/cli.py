"""Command-line entry points binding the pipeline end to end.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation.
"""

import argparse
import json
import sys

import numpy as np

from . import cnn, dsp, evaluation, features, modelio, mlp, pipeline
from . import bootstrap as bootstrap_mod
from . import segmentation as seg_mod
from . import synth as synth_mod
from . import vocal as vocal_mod
from . import wavio
from .config import load_config
from .errors import DataError, InternalError, InvalidArgumentError, TaansegError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def _build_parser():
    parser = _Parser(prog="taanseg",
                     description="Taan section detection and segmentation")
    parser.add_argument("--config", help="JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic concert")
    p.add_argument("--script", help="concert script JSON (default test script)")
    p.add_argument("--seed", type=int, help="override the script seed")
    p.add_argument("--out-wav", required=True)
    p.add_argument("--out-timeline")
    p.add_argument("--out-labels")

    p = sub.add_parser("tracks", help="baseline pitch/energy track from audio")
    p.add_argument("--audio", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("features", help="style features from a track or audio")
    p.add_argument("--track")
    p.add_argument("--audio")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-mlp", help="train the feature classifier")
    p.add_argument("--features", required=True, action="append")
    p.add_argument("--labels", required=True, action="append")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-cnn", help="train the spectrogram-patch CNN")
    p.add_argument("--audio", required=True, action="append")
    p.add_argument("--labels", required=True, action="append")
    p.add_argument("--out", required=True)

    p = sub.add_parser("classify", help="frame posteriors from a model")
    p.add_argument("--features")
    p.add_argument("--audio")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float)

    p = sub.add_parser("segment", help="audio -> grouped taan timeline")
    p.add_argument("--audio", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="compare detected vs truth timelines")
    p.add_argument("--detected", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("inspect-cnn", help="export second-pooling channel maps")
    p.add_argument("--model", required=True)
    p.add_argument("--audio", required=True)
    p.add_argument("--second", type=int, default=0,
                   help="patch start second (1 s grid)")
    p.add_argument("--channel", type=int, default=9)
    p.add_argument("--out-csv")
    p.add_argument("--out-pgm")

    p = sub.add_parser("bootstrap-labels", help="GMM self-training labels")
    p.add_argument("--features", required=True)
    p.add_argument("--seed-labels", required=True)
    p.add_argument("--out", required=True)
    return parser


def _load_labels_as_targets(path, n_frames):
    times, labels = bootstrap_mod.read_frame_labels(path)
    y, vmask = pipeline.labels_to_frame_targets(labels)
    return y[:n_frames], vmask[:n_frames]


def _cnn_patch_spec(path):
    clip = dsp.resample(wavio.read_wav(path), 8000)
    return dsp.log_spectrogram(clip, win_s=0.04, hop_s=0.02, n_dft=1024)


def _run(args, cfg):
    if args.command == "synth":
        script = (synth_mod.script_from_json(args.script) if args.script
                  else synth_mod.default_test_script())
        if args.seed is not None:
            script.seed = args.seed
        clip, timeline, labels = synth_mod.synth_concert(script)
        wavio.write_wav(clip, args.out_wav)
        if args.out_timeline:
            seg_mod.write_timeline(timeline, args.out_timeline)
        if args.out_labels:
            bootstrap_mod.write_frame_labels(labels, args.out_labels)
        return 0

    if args.command == "tracks":
        clip = wavio.read_wav(args.audio)
        track = pipeline.extract_track(clip, cfg)
        vocal_mod.write_track(track, args.out)
        return 0

    if args.command == "features":
        if bool(args.track) == bool(args.audio):
            raise UsageError("give exactly one of --track / --audio")
        if args.track:
            track = vocal_mod.ingest_track(args.track)
        else:
            track = pipeline.extract_track(wavio.read_wav(args.audio), cfg)
        seq = pipeline.track_features(track, cfg)
        features.write_features(seq, args.out)
        return 0

    if args.command == "train-mlp":
        if len(args.features) != len(args.labels):
            raise UsageError("--features and --labels must pair up")
        xs, ys = [], []
        for fpath, lpath in zip(args.features, args.labels):
            seq = features.read_features(fpath)
            _, labels = bootstrap_mod.read_frame_labels(lpath)
            x, y = pipeline.training_set(seq, labels)
            xs.append(x)
            ys.append(y)
        x = np.concatenate(xs)
        y = np.concatenate(ys)
        model = mlp.mlp_init(cfg.mlp_hidden, seed=cfg.mlp_seed)
        model, _ = mlp.mlp_train(model, x, y, lr=cfg.mlp_lr,
                                 epochs=cfg.mlp_epochs, batch=cfg.mlp_batch,
                                 seed=cfg.mlp_seed,
                                 class_balance=cfg.class_balance)
        modelio.save_model(model, args.out)
        return 0

    if args.command == "train-cnn":
        if len(args.audio) != len(args.labels):
            raise UsageError("--audio and --labels must pair up")
        patches, targets = [], []
        specs = [_cnn_patch_spec(a) for a in args.audio]
        stats = cnn.spectrogram_band_stats(specs)
        for spec, lpath in zip(specs, args.labels):
            pats, _ = cnn.make_patches(spec, band_stats=stats)
            y, _ = _load_labels_as_targets(lpath, len(pats))
            patches.extend(pats[: len(y)])
            targets.extend(y)
        model = cnn.cnn_train(patches, targets, stats, epochs=cfg.cnn_epochs,
                              lr0=cfg.cnn_lr0, halve_every=cfg.cnn_halve_every,
                              batch=cfg.cnn_batch, seed=cfg.cnn_seed)
        modelio.save_model(model, args.out)
        return 0

    if args.command == "classify":
        model = modelio.load_model(args.model)
        thr = cfg.taan_threshold if args.threshold is None else args.threshold
        if isinstance(model, cnn.CnnModel):
            if not args.audio:
                raise UsageError("CNN models classify --audio")
            spec = _cnn_patch_spec(args.audio)
            pats, _ = cnn.make_patches(
                spec, band_stats=(model.band_mean, model.band_std))
            p = cnn.cnn_posteriors(model, pats)
            mask = np.ones(len(p), dtype=bool)
        else:
            if not args.features:
                raise UsageError("MLP models classify --features")
            seq = features.read_features(args.features)
            posteriors, _ = mlp.classify_frames(model, seq, threshold=thr)
            p, mask = posteriors.p_taan, posteriors.vocal_mask
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("frame_s,p_taan,vocal\n")
            for t in range(len(p)):
                val = "nan" if not np.isfinite(p[t]) else repr(float(p[t]))
                fh.write(f"{float(t)!r},{val},{int(mask[t])}\n")
        return 0

    if args.command == "segment":
        model = modelio.load_model(args.model)
        clip = wavio.read_wav(args.audio)
        timeline = pipeline.segment_audio(clip, model, cfg)
        seg_mod.write_timeline(timeline, args.out)
        return 0

    if args.command == "evaluate":
        detected = seg_mod.read_timeline(args.detected)
        truth = seg_mod.read_timeline(args.truth)
        report = evaluation.match_sections(detected, truth)
        dev = evaluation.boundary_deviation(report)
        if args.json:
            print(json.dumps({**report.as_dict(), "boundary_deviation": dev},
                             indent=2))
            return 0
        print(report.table())
        print(f"{'Boundary deviation':<20}" + (
            "no exact matches" if dev["empty"] else
            f"onset mean {dev['mean_onset']:.2f} s, max {dev['max_onset']:.2f} s;"
            f" offset mean {dev['mean_offset']:.2f} s,"
            f" max {dev['max_offset']:.2f} s"))
        return 0

    if args.command == "inspect-cnn":
        model = modelio.load_model(args.model)
        if not isinstance(model, cnn.CnnModel):
            raise DataError("inspect-cnn needs a CNN model")
        spec = _cnn_patch_spec(args.audio)
        pats, _ = cnn.make_patches(
            spec, band_stats=(model.band_mean, model.band_std))
        if not 0 <= args.second < len(pats):
            raise UsageError(f"--second must be in 0..{len(pats) - 1}")
        cmap = cnn.export_channel_maps(model, pats[args.second], args.channel)
        if args.out_csv:
            modelio.write_matrix_csv(cmap, args.out_csv)
        if args.out_pgm:
            modelio.write_pgm(cmap, args.out_pgm)
        return 0

    if args.command == "bootstrap-labels":
        seq = features.read_features(args.features)
        times, labels = bootstrap_mod.read_frame_labels(args.seed_labels)
        seed = {}
        names = sorted(set(labels))
        if len(names) != 2:
            raise DataError("seed labels must contain exactly 2 classes")
        for t, lab in zip(times, labels):
            seed[int(round(t))] = names.index(lab)
        x = seq.features.copy()
        x[~seq.vocal_mask] = 0.0
        out, rounds, converged = bootstrap_mod.bootstrap_labels(x, seed)
        bootstrap_mod.write_frame_labels(out, args.out,
                                         names=(names[0], names[1]))
        if not converged:
            print(f"warning: no fixpoint after {rounds} rounds",
                  file=sys.stderr)
        return 0

    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config)
        return _run(args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (TaansegError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
