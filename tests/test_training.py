"""Tests of the library's one training path: `pipeline.train_mlp` and
`pipeline.train_cnn` against the direct composition of their stages, with
truth that ends before the audio and truth that runs past it."""

import dataclasses

import numpy as np
import pytest

from taanseg import cnn, mlp, pipeline
from taanseg.config import PipelineConfig
from taanseg.errors import InvalidArgumentError, TaansegError
from taanseg.features import StyleFeatureSeq
from taanseg.segmentation import Section, SectionTimeline
from taanseg.synth import ConcertScript, SectionSpec, synth_concert

CFG = PipelineConfig(mlp_hidden=8, mlp_epochs=5, cnn_epochs=1)

# on 40 s of audio: truth to 20.7 s trains 20 frames, since frame 20
# (midpoint 20.5 s) is not whole; truth to 60 s trains every frame
SHORT = SectionTimeline([Section(0.0, 12.0, "taan"),
                         Section(12.0, 20.7, "non-taan")])
LONG = SectionTimeline([Section(0.0, 20.0, "non-taan"),
                        Section(20.0, 60.0, "taan")])


@pytest.fixture(scope="module")
def clips():
    def concert(seed):
        return synth_concert(ConcertScript(
            [SectionSpec("taan", 20.0, f0_hz=220.0, mod_rate_hz=6.0),
             SectionSpec("steady-vocal", 20.0, f0_hz=196.0)], seed=seed))[0]
    return [concert(3), concert(4)]


def assert_same_model(a, b):
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        if f.name == "meta":
            assert a.meta == b.meta
        else:
            np.testing.assert_array_equal(getattr(a, f.name),
                                          getattr(b, f.name))


class TestTrainMlp:
    def test_equals_the_composition(self, clips):
        seqs = [pipeline.track_features(pipeline.extract_track(c, CFG), CFG)
                for c in clips]
        assert len(seqs[0]) > 21
        sets = [pipeline.training_set(seqs[0], SHORT.frame_labels(20)),
                pipeline.training_set(seqs[1], LONG.frame_labels(len(seqs[1])))]
        x, y = (np.concatenate(part) for part in zip(*sets))
        want, _ = mlp.mlp_train(mlp.mlp_init(CFG.mlp_hidden, seed=CFG.mlp_seed),
                                x, y, lr=CFG.mlp_lr, epochs=CFG.mlp_epochs,
                                batch=CFG.mlp_batch, seed=CFG.mlp_seed,
                                class_balance=CFG.class_balance)
        got = pipeline.train_mlp(zip(seqs, [SHORT, LONG]), CFG)
        assert_same_model(got, want)

    def test_no_pairs(self):
        with pytest.raises(InvalidArgumentError, match="no training pairs"):
            pipeline.train_mlp([], CFG)

    def test_empty_truth_timeline(self):
        # a data error naming the timeline, not an IndexError from its span
        seq = StyleFeatureSeq(np.zeros((20, 3)), np.ones(20, bool))
        with pytest.raises(TaansegError, match="truth timeline has no sec"):
            pipeline.train_mlp([(seq, LONG), (seq, SectionTimeline([]))], CFG)

    def test_default_config(self, clips):
        seq = pipeline.track_features(pipeline.extract_track(clips[0]))
        model = pipeline.train_mlp([(seq, LONG)])
        assert model.w1.shape == (3, PipelineConfig().mlp_hidden)


class TestTrainCnn:
    def test_equals_the_composition(self, clips):
        specs = [cnn.patch_spectrogram(c) for c in clips]
        stats = cnn.spectrogram_band_stats(specs)
        pats = [cnn.make_patches(s, band_stats=stats)[0] for s in specs]
        assert len(pats[0]) > 21
        labels = SHORT.frame_labels(20) + LONG.frame_labels(len(pats[1]))
        want = cnn.cnn_train(np.concatenate([pats[0][:20], pats[1]]),
                             pipeline.labels_to_frame_targets(labels)[0],
                             stats, epochs=CFG.cnn_epochs, lr0=CFG.cnn_lr0,
                             halve_every=CFG.cnn_halve_every,
                             batch=CFG.cnn_batch, seed=CFG.cnn_seed)
        # an iterator, read once, as the command line passes its files
        got = pipeline.train_cnn(zip(clips, [SHORT, LONG]), CFG)
        assert_same_model(got, want)
        assert got.meta["epochs"] == CFG.cnn_epochs

    def test_no_pairs(self):
        with pytest.raises(InvalidArgumentError, match="no training pairs"):
            pipeline.train_cnn(iter([]), CFG)

    def test_empty_truth_timeline(self, clips):
        with pytest.raises(TaansegError, match="truth timeline has no sec"):
            pipeline.train_cnn(zip(clips, [SHORT, SectionTimeline([])]), CFG)

    def test_truth_far_past_the_audio(self, clips):
        """Truth labels stop at the last patch, however far the truth runs."""
        far = SectionTimeline([Section(0.0, 20.0, "non-taan"),
                               Section(20.0, 1e300, "taan")])
        assert_same_model(pipeline.train_cnn([(clips[0], far)], CFG),
                          pipeline.train_cnn([(clips[0], LONG)], CFG))

    @pytest.mark.parametrize("empty_at", [0, 1])
    def test_empty_truth_fails_before_its_spectrogram(self, clips,
                                                      monkeypatch, empty_at):
        calls, patch_spectrogram = [], cnn.patch_spectrogram

        def spy(clip):
            calls.append(clip)
            return patch_spectrogram(clip)

        monkeypatch.setattr(cnn, "patch_spectrogram", spy)
        truths = [LONG, LONG]
        truths[empty_at] = SectionTimeline([])
        with pytest.raises(TaansegError, match="truth timeline has no sec"):
            pipeline.train_cnn(zip(clips, truths), CFG)
        assert len(calls) == empty_at
