"""Property-based fuzzing of the input contract (Hypothesis, MacIver et al.,
JOSS 2019): on arbitrary bytes and on mutated valid files, every table,
JSON and TextGrid reader (TextGrids in the long and the short form), the
truth reader, the model reader (binary and sidecar) and the WAV reader
raise only TaansegError, and `cli.main` returns only 0, 1 or 2, also when
`classify`, `tracks`, `segment` and `inspect-cnn` read a fuzzed WAV or
model."""

import re
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from textgrid_forms import short_form

from taanseg.bootstrap import read_frame_labels, write_frame_labels
from taanseg.cli import main
from taanseg.cnn import cnn_init
from taanseg.config import load_config
from taanseg.dsp import AudioClip
from taanseg.errors import TaansegError
from taanseg.features import StyleFeatureSeq, read_features, write_features
from taanseg.mlp import mlp_init
from taanseg.modelio import load_model, save_model
from taanseg.segmentation import read_timeline
from taanseg.synth import script_from_json
from taanseg.textgrid import (emit_textgrid, parse_textgrid, read_sections,
                              tier_to_timeline, timeline_to_doc)
from taanseg.vocal import PitchEnergyTrack, ingest_track, write_track
from taanseg.wavio import read_wav, write_wav

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=60, suppress_health_check=[HealthCheck.too_slow])

# cells, delimiters and JSON words that make the likely faults
TOKENS = [b"nan", b"inf", b"-inf", b"1e300", b"-1", b"0", b"", b"\n", b"\t",
          b",", b"\xff", b"{", b"]", b'"', b"NaN", b"taan"]


@st.composite
def mutated(draw, valid):
    """valid split into cells and delimiters, with 1 to 4 of these pieces
    replaced by a token or a few arbitrary bytes."""
    pieces = re.split(rb"([,\t\n:{}\[\]])", valid)
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, len(pieces) - 1))
        pieces[k] = draw(st.sampled_from(TOKENS) | st.binary(max_size=4))
    return b"".join(pieces)


def inputs(valid):
    return st.binary(max_size=200) | mutated(valid)


@st.composite
def spliced(draw, valid, head):
    """valid with 1 to 4 spans of up to 8 bytes replaced by a token or a few
    arbitrary bytes, each starting in the first `head` bytes (where the
    headers are) or anywhere; for files too big to split into cells."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, head) | st.integers(0, len(data)))
        data[k : k + draw(st.integers(0, 8))] = draw(
            st.sampled_from(TOKENS) | st.binary(max_size=8))
    return bytes(data)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small valid file of every fuzzed format, and a model."""
    root = tmp_path_factory.mktemp("fuzz")
    t = np.arange(250) * 0.01
    f0 = np.where(t < 2.0, 220.0 * 2 ** (np.sin(2 * np.pi * 6 * t) / 12), 0.0)
    write_track(PitchEnergyTrack(f0, np.where(f0 > 0, -20.0, -120.0), f0 > 0),
                root / "track")
    rng = np.random.default_rng(0)
    x = np.vstack((rng.normal(-1, 0.3, (10, 3)), rng.normal(1, 0.3, (10, 3))))
    x[[4, 15]] = np.nan
    write_features(StyleFeatureSeq(x, np.isfinite(x).all(axis=1)),
                   root / "features")
    (root / "timeline").write_text(
        "0.0\t10.0\ttaan\n10.0\t20.0\tinstrumental\n20.0\t30.0\ttaan\n")
    emit_textgrid(timeline_to_doc(read_timeline(root / "timeline")),
                  root / "textgrid")
    # seed labels every 3 s: the label reader takes sparse times
    (root / "labels").write_text("".join(
        f"{3.0 * k}\t{lab}\n"
        for k, lab in enumerate(["taan"] * 3 + ["non-taan"] * 3)))
    # 1 s frames, which the truth reader merges into sections
    write_frame_labels(["taan"] * 3 + ["non-taan"] * 3 + ["instrumental"] * 2,
                       root / "frames")
    assert len(read_sections(root / "frames")) == 3
    (root / "config").write_text('{"mlp_hidden": 20, "taan_threshold": 0.6, '
                                 '"class_balance": false}')
    (root / "script").write_text(
        '{"seed": 3, "sample_rate": 8000, "sections": [{"style": "taan", '
        '"duration_s": 5.0, "mod_rate_hz": 6.0}]}')
    save_model(mlp_init(5, seed=0), root / "model")
    save_model(cnn_init(seed=0), root / "cnn")
    (root / "cnn.json").rename(root / "sidecar")
    t = np.arange(9600) / 8000     # 1.2 s: one 1 s CNN patch
    write_wav(AudioClip(0.3 * np.sin(2 * np.pi * 220 * t), 8000),
              root / "wav")
    return root


def binary_inputs(files, kind):
    """A fuzzed CNN model binary (its JSON header, then 5 MB of arrays) or
    WAV file."""
    valid = (files / kind).read_bytes()
    if kind == "wav":
        return st.binary(max_size=200) | spliced(valid, 44)
    end = 10 + int.from_bytes(valid[6:10], "little")   # magic, version, size
    return st.binary(max_size=200) | spliced(valid, end) | renumbered(
        valid[:end]).map(lambda header: header + valid[end:])


READERS = {"track": ingest_track, "features": read_features,
           "timeline": read_timeline, "labels": read_frame_labels,
           "config": load_config, "script": script_from_json}


@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(data=st.data())
def test_reader_raises_only_taanseg_errors(files, kind, data):
    path = files / "fuzzed"
    path.write_bytes(data.draw(inputs((files / kind).read_bytes())))
    try:
        READERS[kind](path)
    except TaansegError:
        pass


# numbers a TextGrid may hold where a time or a count belongs
NUMBERS = [b"1e9992", b"-1e9992", b"1e300", b"-1", b"-0", b"1.5", b"0", b"."]


@st.composite
def renumbered(draw, valid):
    """valid with 1 to 4 of its numbers replaced by one of NUMBERS."""
    pieces = re.split(rb"(\d[\d.eE+-]*)", valid)
    for _ in range(draw(st.integers(1, 4))):
        k = 2 * draw(st.integers(0, len(pieces) // 2 - 1)) + 1
        pieces[k] = draw(st.sampled_from(NUMBERS))
    return b"".join(pieces)


# 200 examples of the long and the short form: the first 60 never put a
# bad count where a count belongs
@settings(FUZZ, max_examples=200)
@given(data=st.data())
def test_textgrid_raises_only_taanseg_errors(files, data):
    long = (files / "textgrid").read_text("utf-8")
    valid = data.draw(st.sampled_from([long, short_form(long)])).encode()
    path = files / "fuzzed"
    path.write_bytes(data.draw(inputs(valid) | renumbered(valid)))
    try:
        for tier in parse_textgrid(path).tiers:
            tier_to_timeline(tier)
    except TaansegError:
        pass


# a CNN model's arrays take ~5 ms to read, so fewer examples than the rest
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(FUZZ, max_examples=40)
@given(data=st.data())
def test_model_binary_raises_only_taanseg_errors(files, data):
    (files / "fuzzed_model").write_bytes(data.draw(binary_inputs(files, "cnn")))
    (files / "fuzzed_model.json").write_bytes((files / "sidecar").read_bytes())
    try:
        load_model(files / "fuzzed_model")
    except TaansegError:
        pass


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(FUZZ, max_examples=40)
@given(data=st.data())
def test_model_sidecar_raises_only_taanseg_errors(files, data):
    shutil.copyfile(files / "cnn", files / "fuzzed_model")
    (files / "fuzzed_model.json").write_bytes(
        data.draw(inputs((files / "sidecar").read_bytes())))
    try:
        load_model(files / "fuzzed_model")
    except TaansegError:
        pass


@FUZZ
@given(data=st.data())
def test_wav_raises_only_taanseg_errors(files, data):
    (files / "fuzzed").write_bytes(data.draw(binary_inputs(files, "wav")))
    try:
        read_wav(files / "fuzzed")
    except TaansegError:
        pass


@pytest.mark.parametrize("kind", ["textgrid", "timeline", "labels", "frames"])
@settings(FUZZ, max_examples=100)
@given(data=st.data())
def test_truth_reader_raises_only_taanseg_errors(files, kind, data):
    valid = (files / kind).read_bytes()
    path = files / "fuzzed"
    path.write_bytes(data.draw(inputs(valid) | renumbered(valid)))
    try:
        read_sections(path)
    except TaansegError:
        pass


COMMANDS = {
    "features-track": ("track", ["features", "--track", "{fuzzed}",
                                 "--out", "{out}"]),
    "evaluate": ("timeline", ["evaluate", "--detected", "{fuzzed}",
                              "--truth", "{fuzzed}"]),
    "classify-features": ("features", ["classify", "--model", "{model}",
                                       "--features", "{fuzzed}",
                                       "--out", "{out}"]),
    "bootstrap-labels": ("labels", ["bootstrap-labels",
                                    "--features", "{features}",
                                    "--seed-labels", "{fuzzed}",
                                    "--out", "{out}"]),
    "train-mlp-truth": ("textgrid", ["train-mlp", "--features", "{features}",
                                     "--labels", "{fuzzed}", "--out", "{out}"]),
    "bootstrap-features": ("features", ["bootstrap-labels",
                                        "--features", "{fuzzed}",
                                        "--seed-labels", "{labels}",
                                        "--out", "{out}"]),
    "config": ("config", ["--config", "{fuzzed}", "evaluate",
                          "--detected", "{timeline}",
                          "--truth", "{timeline}"]),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
@FUZZ
@given(data=st.data())
def test_cli_exit_code(files, name, data):
    kind, argv = COMMANDS[name]
    fuzzed = data.draw(inputs((files / kind).read_bytes()))
    (files / "fuzzed").write_bytes(fuzzed)
    paths = {k: files / k for k in ("fuzzed", "timeline", "model", "features",
                                    "labels", "out")}
    assert main([a.format(**paths) for a in argv]) in (0, 1, 2)


# `classify --audio` with a fuzzed CNN model and the valid WAV, or with a
# fuzzed WAV and the valid CNN model
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["cnn", "wav"])
@settings(FUZZ, max_examples=30)
@given(data=st.data())
def test_classify_audio_exit_code(files, kind, data):
    paths = {"cnn": files / "cnn", "wav": files / "wav"}
    paths[kind] = files / "fuzzed_classify"
    paths[kind].write_bytes(data.draw(binary_inputs(files, kind)))
    if kind == "cnn":
        shutil.copyfile(files / "sidecar", str(paths[kind]) + ".json")
    assert main(["classify", "--audio", str(paths["wav"]), "--model",
                 str(paths["cnn"]), "--out", str(files / "out")]) in (0, 1, 2)


# `tracks` and `segment` (with the MLP model) over a fuzzed WAV, and
# `inspect-cnn` over a fuzzed WAV or a fuzzed CNN model
AUDIO_COMMANDS = {
    "tracks": ("wav", ["tracks", "--audio", "{wav}", "--out", "{out}"]),
    "segment": ("wav", ["segment", "--audio", "{wav}", "--model", "{model}",
                        "--out", "{out}"]),
    "inspect-cnn-wav": ("wav", ["inspect-cnn", "--audio", "{wav}", "--model",
                                "{cnn}", "--out-csv", "{out}"]),
    "inspect-cnn-model": ("cnn", ["inspect-cnn", "--audio", "{wav}",
                                  "--model", "{cnn}", "--out-csv", "{out}"]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(AUDIO_COMMANDS))
@settings(FUZZ, max_examples=15)
@given(data=st.data())
def test_audio_command_exit_code(files, name, data):
    kind, argv = AUDIO_COMMANDS[name]
    paths = {k: files / k for k in ("wav", "cnn", "model", "out")}
    paths[kind] = files / "fuzzed_audio"
    paths[kind].write_bytes(data.draw(binary_inputs(files, kind)))
    if kind == "cnn":
        shutil.copyfile(files / "sidecar", str(paths[kind]) + ".json")
    assert main([a.format(**paths) for a in argv]) in (0, 1, 2)
