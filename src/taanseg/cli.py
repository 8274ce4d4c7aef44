"""Command-line entry points binding the pipeline end to end.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal invariant
violation.
"""

import argparse
import json
import sys
import warnings

import numpy as np

from . import cnn, evaluation, features, modelio, mlp, pipeline
from . import bootstrap as bootstrap_mod
from . import synth as synth_mod
from . import vocal as vocal_mod
from . import textgrid, wavio
from .config import load_config
from .errors import DataError, TaansegError
from .table import Table

POSTERIOR_TABLE = Table([("frame_s", "f8"), ("p_taan", "f8"), ("vocal", "i8")])


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
    p.add_argument("--channel", type=int, default=9,
                   choices=range(cnn.SHAPE_CHAIN[4][0]))
    p.add_argument("--out-csv")
    p.add_argument("--out-pgm")

    p = sub.add_parser("bootstrap-labels", help="GMM self-training labels")
    p.add_argument("--features", required=True)
    p.add_argument("--seed-labels", required=True)
    p.add_argument("--out", required=True)
    return parser


def _run(args, cfg):
    if args.command == "synth":
        script = (synth_mod.script_from_json(args.script) if args.script
                  else synth_mod.default_test_script())
        if args.seed is not None:
            script.seed = args.seed
        clip, timeline, labels = synth_mod.synth_concert(script)
        wavio.write_wav(clip, args.out_wav)
        if args.out_timeline:
            textgrid.write_sections(timeline, args.out_timeline)
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
        modelio.save_model(pipeline.train_mlp(
            ((features.read_features(f), textgrid.read_sections(t))
             for f, t in zip(args.features, args.labels)), cfg), args.out)
        return 0

    if args.command == "train-cnn":
        if len(args.audio) != len(args.labels):
            raise UsageError("--audio and --labels must pair up")
        modelio.save_model(pipeline.train_cnn(
            ((wavio.read_wav(a), textgrid.read_sections(t))
             for a, t in zip(args.audio, args.labels)), cfg), args.out)
        return 0

    if args.command == "classify":
        if bool(args.features) == bool(args.audio):
            raise UsageError("give exactly one of --features / --audio")
        model = modelio.load_model(args.model)
        if args.audio:
            posteriors, _ = pipeline.classify_audio(
                wavio.read_wav(args.audio), model, cfg)
        elif isinstance(model, cnn.CnnModel):
            raise UsageError("CNN models classify --audio")
        else:
            posteriors, _ = mlp.classify_frames(
                model, features.read_features(args.features))
        p = posteriors.p_taan
        POSTERIOR_TABLE.write(args.out, (np.arange(len(p)), p,
                                         posteriors.vocal_mask))
        return 0

    if args.command == "segment":
        model = modelio.load_model(args.model)
        clip = wavio.read_wav(args.audio)
        timeline = pipeline.segment_audio(clip, model, cfg)
        textgrid.write_sections(timeline, args.out)
        return 0

    if args.command == "evaluate":
        detected = textgrid.read_sections(args.detected)
        truth = textgrid.read_sections(args.truth)
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
        pats, _ = cnn.make_patches(cnn.patch_spectrogram(wavio.read_wav(
            args.audio)), (model.band_mean, model.band_std))
        # no patch at all is bad data, which frame_features reports
        if len(pats) and not 0 <= args.second < len(pats):
            raise UsageError(f"--second must be in 0..{len(pats) - 1}")
        cmap = cnn.frame_features(model, pats[args.second:][:1]).reshape(
            cnn.SHAPE_CHAIN[4])[args.channel]
        if args.out_csv:
            modelio.write_matrix_csv(cmap, args.out_csv)
        if args.out_pgm:
            modelio.write_pgm(cmap, args.out_pgm)
        return 0

    if args.command == "bootstrap-labels":
        seq = features.read_features(args.features)
        times, labels = bootstrap_mod.read_frame_labels(args.seed_labels)
        names = sorted(set(labels))
        if len(names) != 2:
            raise DataError(f"seed labels must contain exactly 2 classes, "
                            f"not {names}", path=args.seed_labels)
        seed = {int(t): names.index(lab) for t, lab in zip(times, labels)}
        x = seq.features.copy()
        x[~seq.vocal_mask] = 0.0
        out, rounds, converged = bootstrap_mod.bootstrap_labels(x, seed)
        bootstrap_mod.write_frame_labels(out, args.out, names=names)
        if not converged:
            warnings.warn(f"no fixpoint after {rounds} rounds")
        return 0

    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None):
    """Run one command. Warnings that the library or numpy raise while it
    runs, on any thread, are printed as one `warning: <message>` line
    each, before the error line of a failed command."""
    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = _build_parser().parse_args(argv)
            code = _run(args, load_config(args.config))
        except UsageError as exc:
            code, error = 1, f"usage error: {exc}"
        except (TaansegError, OSError) as exc:
            code, error = 2, f"error: {exc}"
        except Exception as exc:    # a bug, InternalError included
            code, error = 3, f"internal error: {type(exc).__name__}: {exc}"
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if error:   # one line, never a traceback
        print(error, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
