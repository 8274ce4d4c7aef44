"""Tests for the deterministic synthetic-concert generator.

The oracle below is the one-section-at-a-time renderer that drew and
rendered each section in turn from one generator, kept as the reference
the pooled, chunked renderer must match bit for bit.
"""

import itertools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taanseg import pool, synth
from taanseg.cli import main
from taanseg.errors import (DataError, InternalError, InvalidArgumentError,
                            ResourceLimitError)
from taanseg.segmentation import LABELS, Section, SectionTimeline
from taanseg.synth import (
    CONTOUR_HOP_S,
    DRONE_REL_DB,
    N_HARMONICS,
    REF_HZ,
    RENDER_CHUNK,
    STYLES,
    VOCAL_RMS,
    ConcertScript,
    SectionSpec,
    default_test_script,
    script_from_json,
    script_to_json,
    synth_concert,
    synth_pitch_contour,
)


def serial_voice(cents, section, sr, rng):
    n = int(round(section.duration_s * sr))
    t_c = np.arange(len(cents)) * CONTOUR_HOP_S
    t = np.arange(n) / sr
    f0 = REF_HZ * 2.0 ** (np.interp(t, t_c, cents) / 1200.0)
    phase = 2.0 * np.pi * np.cumsum(f0) / sr
    x = np.zeros(n)
    for h in range(1, N_HARMONICS + 1):
        x += np.sin(h * phase + rng.uniform(0, 2 * np.pi)) / h
    rms = np.sqrt(np.mean(x**2))
    x *= VOCAL_RMS / max(rms, 1e-12)
    if section.style == "taan" and section.am_depth_db > 0:
        gain_db = section.am_depth_db * np.sin(
            2 * np.pi * section.mod_rate_hz * t + rng.uniform(0, 2 * np.pi)
        )
        x *= 10.0 ** (gain_db / 20.0)
    return x


def serial_drone(duration_s, sr, rng, percussion=False):
    n = int(round(duration_s * sr))
    t = np.arange(n) / sr
    x = np.zeros(n)
    for f, a in ((110.0, 1.0), (165.0, 0.7), (220.0, 0.5)):
        x += a * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    rms = np.sqrt(np.mean(x**2)) if n else 1.0
    x *= VOCAL_RMS * 10.0 ** (DRONE_REL_DB / 20.0) / max(rms, 1e-12)
    if percussion:
        burst = int(0.05 * sr)
        env = np.exp(-np.arange(burst) / (0.01 * sr))
        for onset in np.arange(0.0, duration_s - 0.06, 1.0):
            s = int(onset * sr)
            x[s : s + burst] += 0.05 * env * rng.standard_normal(burst)
    return x


def serial_concert(script):
    """(samples, [(start, end, label)], frame labels), one section at a
    time."""
    rng = np.random.default_rng(script.seed)
    sr = script.sample_rate
    pieces, sections, start = [], [], 0.0
    for spec in script.sections:
        drone = serial_drone(spec.duration_s, sr, rng,
                             percussion=spec.style == "instrumental")
        if spec.style == "instrumental":
            pieces.append(drone)
            label = "instrumental"
        else:
            cents = synth_pitch_contour(spec, rng)
            pieces.append(serial_voice(cents, spec, sr, rng) + drone)
            label = "taan" if spec.style == "taan" else "non-taan"
        sections.append((start, start + spec.duration_s, label))
        start += spec.duration_s
    x = np.concatenate(pieces)
    peak = np.abs(x).max()
    if peak > 0.9:
        x *= 0.9 / peak
    return x, sections, serial_frame_labels(
        sections, int(np.floor(script.total_duration())))


def serial_frame_labels(sections, n):
    """The label of each of n 1 s frames at its midpoint: the first of the
    (start, end, label) sections holding it, else instrumental."""
    labels = []
    for f in range(n):
        mid = f + 0.5
        labels.append(next((lab for s, e, lab in sections if s <= mid < e),
                           "instrumental"))
    return labels


def assert_matches_serial(script):
    clip, timeline, labels = synth_concert(script)
    x, sections, want_labels = serial_concert(script)
    assert clip.samples.tobytes() == x.tobytes()
    assert [(s.start_s, s.end_s, s.label) for s in timeline] == sections
    assert labels == want_labels


def all_styles_script(sr, am_depth_db, seed=3):
    mk = SectionSpec
    return ConcertScript(seed=seed, sample_rate=sr, sections=[
        mk("instrumental", 6.3),
        mk("taan", 9.7, f0_hz=247.0, mod_rate_hz=9.0, am_depth_db=am_depth_db),
        mk("steady-vocal", 4.1, f0_hz=196.0),
        mk("glide-vocal", 5.77, mod_rate_hz=0.5, mod_depth_cents=200.0),
        mk("taan", 7.0, mod_rate_hz=5.0, am_depth_db=am_depth_db),
        mk("instrumental", 3.05),
    ])


def long_taan_script():
    """5 minutes at 44.1 kHz, 4 of them one taan section."""
    mk = SectionSpec
    return ConcertScript(seed=7, sample_rate=44100, sections=[
        mk("instrumental", 30.0), mk("taan", 240.0), mk("steady-vocal", 30.0),
    ])


def peak_ratio(script):
    """tracemalloc peak of synth_concert over the clip's bytes."""
    tracemalloc.start()
    try:
        clip, _, _ = synth_concert(script)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / clip.samples.nbytes


class TestSectionSpec:
    def test_taan_rate_bounds(self):
        SectionSpec("taan", 30.0, mod_rate_hz=5.0)
        SectionSpec("taan", 30.0, mod_rate_hz=10.0)
        with pytest.raises(InvalidArgumentError):
            SectionSpec("taan", 30.0, mod_rate_hz=4.0)
        with pytest.raises(InvalidArgumentError):
            SectionSpec("taan", 30.0, mod_rate_hz=12.0)

    def test_unknown_style(self):
        with pytest.raises(InvalidArgumentError):
            SectionSpec("chorus", 30.0)

    def test_non_positive_duration(self):
        with pytest.raises(InvalidArgumentError):
            SectionSpec("taan", 0.0)

    @pytest.mark.parametrize("f0_hz", [0.0, -220.0, np.nan, np.inf])
    def test_f0_finite_and_positive(self, f0_hz):
        with pytest.raises(InvalidArgumentError, match="f0_hz"):
            SectionSpec("steady-vocal", 5.0, f0_hz=f0_hz)


class TestPitchContour:
    def test_steady_zero_depth_is_constant(self):
        spec = SectionSpec("steady-vocal", 10.0, f0_hz=220.0,
                           mod_depth_cents=0.0)
        cents = synth_pitch_contour(spec, np.random.default_rng(0))
        base = 1200.0 * np.log2(220.0 / 55.0)
        assert np.allclose(cents, base)

    def test_steady_jitter_bounded(self):
        spec = SectionSpec("steady-vocal", 10.0, f0_hz=220.0,
                           mod_depth_cents=150.0)
        cents = synth_pitch_contour(spec, np.random.default_rng(0))
        base = 1200.0 * np.log2(220.0 / 55.0)
        assert np.all(np.abs(cents - base) <= 10.0)

    def test_taan_dominant_modulation_bin(self):
        spec = SectionSpec("taan", 10.0, f0_hz=220.0, mod_rate_hz=6.0,
                           mod_depth_cents=150.0)
        cents = synth_pitch_contour(spec, np.random.default_rng(1))
        # remove the triangle ramp by differencing against a taan with
        # zero FM depth, then find the dominant DFT bin of one second
        flat = synth_pitch_contour(
            SectionSpec("taan", 10.0, f0_hz=220.0, mod_rate_hz=6.0,
                        mod_depth_cents=0.0),
            np.random.default_rng(1),
        )
        fm = (cents - flat)[:128]
        mag = np.abs(np.fft.rfft(fm * np.hanning(128)))
        peak_hz = np.argmax(mag[1:]) + 1
        # 128 samples at 100 Hz -> 0.78125 Hz per bin
        assert peak_hz * 100.0 / 128 == pytest.approx(6.0, abs=0.8)

    def test_taan_triangle_span(self):
        spec = SectionSpec("taan", 20.0, f0_hz=220.0, mod_depth_cents=0.0)
        cents = synth_pitch_contour(spec, np.random.default_rng(0))
        assert cents.max() - cents.min() == pytest.approx(700.0, abs=1.0)

    def test_glide_is_slow(self):
        spec = SectionSpec("glide-vocal", 20.0, f0_hz=220.0,
                           mod_rate_hz=0.5, mod_depth_cents=200.0)
        cents = synth_pitch_contour(spec, np.random.default_rng(2))
        c = cents - cents.mean()
        n = len(c)
        mag2 = np.abs(np.fft.rfft(c)) ** 2
        freqs = np.fft.rfftfreq(n, d=CONTOUR_HOP_S)
        fast = mag2[freqs > 3.0].sum()
        assert fast < 0.1 * mag2.sum()

    def test_instrumental_has_no_contour(self):
        assert synth_pitch_contour(SectionSpec("instrumental", 10.0),
                                   np.random.default_rng(0)) is None

    def test_contour_length(self):
        cents = synth_pitch_contour(SectionSpec("steady-vocal", 3.5),
                                    np.random.default_rng(0))
        assert len(cents) == 350


class TestSynthConcert:
    @pytest.mark.parametrize("script", [
        ConcertScript(sections=[]),
        ConcertScript(sections=[SectionSpec("instrumental", 1.0)], seed=-1),
    ], ids=["no-sections", "negative-seed"])
    def test_rejects_unrenderable_script(self, script):
        with pytest.raises(InvalidArgumentError):
            synth_concert(script)

    @pytest.mark.parametrize("rate", [-8000, 0, 12345, 96000, 8000.5])
    def test_rate_checked_before_drawing(self, monkeypatch, rate):
        def draw(*args):
            raise AssertionError("a section was drawn")

        monkeypatch.setattr(synth, "_draw_section", draw)
        script = ConcertScript([SectionSpec("taan", 1800.0)], sample_rate=rate)
        with pytest.raises(InvalidArgumentError,
                           match=f"sample_rate {rate} not in accepted set"):
            synth_concert(script)

    def test_whole_float_rate_renders_as_its_int(self):
        script = ConcertScript([SectionSpec("instrumental", 1.0)], seed=3)
        a, _, _ = synth_concert(script)
        script.sample_rate = 8000.0
        b, _, _ = synth_concert(script)
        assert type(b.sample_rate) is int
        assert np.array_equal(b.samples, a.samples)

    def test_deterministic(self):
        a, _, _ = synth_concert(default_test_script(seed=7))
        b, _, _ = synth_concert(default_test_script(seed=7))
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_audio(self):
        a, _, _ = synth_concert(default_test_script(seed=7))
        b, _, _ = synth_concert(default_test_script(seed=8))
        assert not np.array_equal(a.samples, b.samples)

    def test_timeline_tiles_duration(self):
        script = default_test_script()
        clip, timeline, labels = synth_concert(script)
        assert timeline.span() == (0.0, 600.0)
        assert len(clip.samples) == 600 * 8000
        assert len(labels) == 600
        starts = [s.start_s for s in timeline]
        ends = [s.end_s for s in timeline]
        assert starts[1:] == ends[:-1]

    def test_labels_follow_sections(self):
        script = ConcertScript([
            SectionSpec("instrumental", 3.0),
            SectionSpec("taan", 5.0),
            SectionSpec("steady-vocal", 2.0),
        ])
        _, _, labels = synth_concert(script)
        assert labels == (["instrumental"] * 3 + ["taan"] * 5
                          + ["non-taan"] * 2)

    def test_amplitude_bounded(self):
        clip, _, _ = synth_concert(ConcertScript([
            SectionSpec("taan", 10.0, am_depth_db=6.0)]))
        assert np.abs(clip.samples).max() <= 0.9 + 1e-12

    def test_duration_cap(self):
        script = ConcertScript([SectionSpec("instrumental", 1801.0)])
        with pytest.raises(ResourceLimitError):
            synth_concert(script)

    def test_default_script_taans(self):
        script = default_test_script()
        _, timeline, _ = synth_concert(script)
        taans = timeline.taan_sections()
        assert len(taans) == 6
        # every gap between consecutive taans is wide enough that the
        # grouping rules keep the sections apart
        for a, b in zip(taans[:-1], taans[1:]):
            assert b.start_s - a.end_s > 20.0


class TestScriptIo:
    def test_round_trip(self, tmp_path):
        script = default_test_script(seed=3)
        path = tmp_path / "script.json"
        script_to_json(script, path)
        back = script_from_json(path)
        assert back.seed == 3
        assert back.sample_rate == script.sample_rate
        assert back.sections == script.sections

    def test_whole_float_rate_round_trips(self, tmp_path):
        script = ConcertScript([SectionSpec("instrumental", 1.0)], seed=3,
                               sample_rate=8000.0)
        path = tmp_path / "script.json"
        script_to_json(script, path)
        back = script_from_json(path)
        assert type(back.sample_rate) is int and back.sample_rate == 8000
        assert back.sections == script.sections and back.seed == 3

    def test_defaults_when_absent(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(
            '{"sections": [{"style": "instrumental", "duration_s": 5.0}]}'
        )
        script = script_from_json(path)
        assert script.seed == 0 and script.sample_rate == 8000


class TestSerialOracle:
    """The pooled renderer against the one-section-at-a-time oracle."""

    @pytest.mark.parametrize("seed", [7, 11, 20, 24])
    def test_default_script(self, seed):
        assert_matches_serial(default_test_script(seed))

    @pytest.mark.parametrize("sr", [8000, 44100])
    @pytest.mark.parametrize("am_depth_db", [0.0, 4.0])
    def test_all_styles(self, sr, am_depth_db):
        assert_matches_serial(all_styles_script(sr, am_depth_db))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [
        1, RENDER_CHUNK - 1, RENDER_CHUNK, RENDER_CHUNK + 1,
        2 * RENDER_CHUNK + 123,
    ])
    def test_section_lengths(self, monkeypatch, workers, n):
        # every section exactly n samples long; a one-sample section is
        # shorter than a contour step, so only an instrumental one renders
        monkeypatch.setattr(pool, "WORKERS", workers)
        sr = 8000
        styles = STYLES if n > 1 else ("instrumental",)
        assert_matches_serial(ConcertScript(seed=n, sample_rate=sr, sections=[
            SectionSpec(style, n / sr, am_depth_db=3.0)
            for style in styles * 2]))

    def test_more_workers_than_cores(self, monkeypatch):
        # four workers writing disjoint slices of one clip, switching
        # threads as often as the interpreter allows
        monkeypatch.setattr(pool, "WORKERS", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert_matches_serial(all_styles_script(8000, 3.0, seed=9))
        finally:
            sys.setswitchinterval(interval)

    def test_section_shorter_than_half_a_sample(self):
        # rounds to no samples: the oracle's np.abs(x).max() had nothing
        # to reduce
        clip, timeline, labels = synth_concert(
            ConcertScript([SectionSpec("instrumental", 1e-5)]))
        assert len(clip.samples) == 0 and labels == []
        assert timeline.span() == (0.0, 1e-5)

    def test_voice_shorter_than_contour_step(self):
        script = ConcertScript([SectionSpec("instrumental", 1.0),
                                SectionSpec("steady-vocal", 1 / 8000)])
        with pytest.raises(ValueError):
            serial_concert(script)
        with pytest.raises(InvalidArgumentError, match="contour step"):
            synth_concert(script)


# bounds on the half-second grid put frame midpoints exactly on section
# edges; a -1e-10 gap overlaps two sections within the timeline's
# tolerance (a midpoint inside such an overlap is tested on its own below)
EDGES = st.sampled_from([0.0, 0.5, 1.0, 2.5, -1e-10]) | st.floats(0.0, 3.0)
LENGTHS = (st.sampled_from([0.5, 1.0, 1.5, 3.0, 1.0 + 1e-10])
           | st.floats(1e-3, 5.0))


@st.composite
def timelines(draw):
    """(start, end, label) sections in order, with gaps and overlaps."""
    sections = []
    end = draw(st.sampled_from([0.0, 0.5, 2.0]) | st.floats(-2.0, 2.0))
    for _ in range(draw(st.integers(0, 6))):
        start = end + draw(EDGES) if sections else end
        end = start + draw(LENGTHS)
        sections.append((start, end, draw(st.sampled_from(LABELS))))
    return sections


class TestFrameLabels:
    """SectionTimeline.frame_labels, the one timeline -> frame-label rule,
    against the serial loop synth_concert used to run."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(sections=timelines(), extra=st.integers(0, 4))
    def test_matches_serial_oracle(self, sections, extra):
        timeline = SectionTimeline([Section(*s) for s in sections])
        end = sections[-1][1] if sections else 0.0
        n = max(int(np.ceil(end)), 0) + extra    # past the end
        assert timeline.frame_labels(n) == serial_frame_labels(sections, n)

    def test_midpoint_on_a_boundary(self):
        timeline = SectionTimeline([Section(0.5, 1.5, "taan"),
                                    Section(2.5, 3.0, "non-taan")])
        assert timeline.frame_labels(4) == ["taan", "instrumental",
                                            "non-taan", "instrumental"]
        assert timeline.frame_labels(0) == []
        # a truth that ends before 0 s has no frames
        assert timeline.frame_labels(-1) == []

    def test_first_of_two_overlapping_sections_wins(self):
        timeline = SectionTimeline([Section(0.0, 1.5 + 1e-10, "taan"),
                                    Section(1.5, 3.0, "non-taan")])
        assert timeline.frame_labels(3) == ["taan", "taan", "non-taan"]


def fail_on_third_section(monkeypatch, exc):
    render, calls = synth._render_section, itertools.count(1)

    def failing(job):
        if next(calls) == 3:
            raise exc
        return render(job)

    monkeypatch.setattr(synth, "_render_section", failing)


class TestSynthPool:
    def test_workers_are_bounded(self, monkeypatch):
        assert 1 <= pool.WORKERS <= 2
        lock, running, busy = threading.Lock(), [0], []
        render = synth._render_section

        def counted(job):
            with lock:
                running[0] += 1
                busy.append(running[0])
            try:
                time.sleep(0.005)
                return render(job)
            finally:
                with lock:
                    running[0] -= 1

        monkeypatch.setattr(synth, "_render_section", counted)
        synth_concert(all_styles_script(8000, 3.0))
        assert 1 <= max(busy) <= pool.WORKERS

    def test_no_thread_left(self, monkeypatch):
        script = all_styles_script(8000, 3.0)
        before = threading.active_count()
        synth_concert(script)
        assert threading.active_count() == before
        fail_on_third_section(monkeypatch, DataError("bad section"))
        with pytest.raises(DataError, match="bad section"):
            synth_concert(script)
        assert threading.active_count() == before

    @pytest.mark.parametrize("exc, code", [
        (DataError("bad section"), 2), (InternalError("broken section"), 3),
    ], ids=["data-error", "internal-error"])
    def test_worker_error_exit_code(self, monkeypatch, tmp_path, capsys, exc,
                                    code):
        script = tmp_path / "script.json"
        script_to_json(all_styles_script(8000, 3.0), script)
        fail_on_third_section(monkeypatch, exc)
        assert main(["synth", "--script", str(script),
                     "--out-wav", str(tmp_path / "a.wav")]) == code
        assert str(exc) in capsys.readouterr().err


class TestSynthMemory:
    # the one-section-at-a-time renderer peaked at 3.02x and 6.50x: its
    # section-length temporaries, the concatenated copy and np.abs(x)
    def test_default_script(self):
        assert peak_ratio(default_test_script()) <= 2.5

    def test_long_taan_at_44k(self):
        assert peak_ratio(long_taan_script()) <= 3.5
