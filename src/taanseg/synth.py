"""Deterministic synthetic-concert generator: pitch contours, harmonic
voice rendering over a drone-and-percussion bed, plus ground-truth
timelines and 1 s frame labels. Serves as the test corpus.
"""

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import check_object
from .dsp import ANALYSIS_HZ, AudioClip, accepted_rate
from .errors import (DataError, InvalidArgumentError, ResourceLimitError,
                     open_text)
from .mlp import seeded_rng
from .pool import ordered_map
from .segmentation import Section, SectionTimeline

STYLES = ("taan", "steady-vocal", "glide-vocal", "instrumental")
CONTOUR_HOP_S = 0.01
MAX_DURATION_S = 1800.0
N_HARMONICS = 8
VOCAL_RMS = 0.1
DRONE_REL_DB = -10.0     # drone level relative to the voice
DRONE_PARTIALS = ((110.0, 1.0), (165.0, 0.7), (220.0, 0.5))   # (Hz, amplitude)
REF_HZ = 55.0

# samples per render step: bounds a worker's temporaries whatever the
# section's length
RENDER_CHUNK = 1 << 16


@dataclass
class SectionSpec:
    style: str
    duration_s: float
    f0_hz: float = 220.0
    mod_rate_hz: float = 6.0
    mod_depth_cents: float = 150.0
    am_depth_db: float = 3.0

    def __post_init__(self):
        if self.style not in STYLES:
            raise InvalidArgumentError(f"unknown style {self.style!r}")
        if self.duration_s <= 0:
            raise InvalidArgumentError("section duration must be positive")
        if not (math.isfinite(self.f0_hz) and self.f0_hz > 0):
            raise InvalidArgumentError(f"f0_hz {self.f0_hz} is not finite "
                                       "and > 0")
        if self.mod_depth_cents < 0 or self.am_depth_db < 0:
            raise InvalidArgumentError("modulation depths must be non-negative")
        if self.style == "taan" and not 5.0 <= self.mod_rate_hz <= 10.0:
            raise InvalidArgumentError("taan modulation rate must be 5-10 Hz")


@dataclass
class ConcertScript:
    sections: list
    seed: int = 0
    sample_rate: int = ANALYSIS_HZ

    def total_duration(self):
        return sum(s.duration_s for s in self.sections)


_SCRIPT_TYPES = {"sections": list, "seed": int, "sample_rate": int}


def script_from_json(path):
    """Read a concert script. Malformed content raises DataError naming
    the path and the offending key."""
    with open_text(path) as fh:
        data = json.load(fh)
    check_object(path, "script", data, _SCRIPT_TYPES, ("sections",))
    types = {f.name: f.type for f in dataclasses.fields(SectionSpec)}
    try:
        sample_rate = accepted_rate(data.get("sample_rate", ANALYSIS_HZ))
    except InvalidArgumentError as exc:
        raise DataError(str(exc), path=path) from None
    sections = []
    for k, spec in enumerate(data["sections"]):
        where = f"section {k}"
        check_object(path, where, spec, types, ("style", "duration_s"))
        try:
            sections.append(SectionSpec(**spec))
        except InvalidArgumentError as exc:
            raise DataError(f"{where}: {exc}", path=path) from None
    return ConcertScript(sections=sections, seed=data.get("seed", 0),
                         sample_rate=sample_rate)


def script_to_json(script, path):
    data = {"seed": script.seed,
            "sample_rate": accepted_rate(script.sample_rate),
            "sections": [dataclasses.asdict(s) for s in script.sections]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def synth_pitch_contour(section, rng=None):
    """Cents contour (re 55 Hz) at 10 ms hop, or None for instrumental.

    taan: alternating linear ascent/descent ramps spanning 700 cents plus
    sinusoidal FM; steady: constant with +/- 10 cent jitter; glide: a slow
    (<= 2 Hz) wide sinusoid.
    """
    if section.style == "instrumental":
        return None
    if rng is None:
        rng = np.random.default_rng(0)
    n = int(round(section.duration_s / CONTOUR_HOP_S))
    t = np.arange(n) * CONTOUR_HOP_S
    base = 1200.0 * np.log2(section.f0_hz / REF_HZ)
    if section.style == "taan":
        # triangle wave: 700-cent leg every 5 s
        leg = 5.0
        phase = (t / leg) % 2.0
        ramp = 700.0 * np.where(phase < 1.0, phase, 2.0 - phase)
        fm_phase = rng.uniform(0, 2 * np.pi)
        fm = section.mod_depth_cents * np.sin(
            2 * np.pi * section.mod_rate_hz * t + fm_phase
        )
        return base + ramp + fm
    if section.style == "steady-vocal":
        jitter = min(10.0, section.mod_depth_cents)
        return base + rng.uniform(-jitter, jitter, size=n)
    # glide-vocal
    rate = min(section.mod_rate_hz, 2.0)
    ph = rng.uniform(0, 2 * np.pi)
    return base + section.mod_depth_cents * np.sin(2 * np.pi * rate * t + ph)


@dataclass
class SectionDraws:
    """Every random value one section's render uses (see `_draw_section`)."""

    drone_phases: list
    bursts: list = field(default_factory=list)   # (start sample, noise)
    cents: np.ndarray = None                     # contour; None if instrumental
    harmonic_phases: list = field(default_factory=list)
    am_phase: float = None                       # taan AM with depth > 0 only


def _draw_section(spec, sr, rng):
    """Every draw of one section, in this order: the 3 drone phases; for
    an instrumental section one standard_normal(burst) per percussion
    onset; otherwise the contour's draws, the 8 harmonic phases, and the
    AM phase of a taan with am_depth_db > 0. A concert's sections draw
    one after another from one generator, so this order is what fixes a
    seed's audio."""
    draws = SectionDraws(drone_phases=[rng.uniform(0, 2 * np.pi)
                                       for _ in DRONE_PARTIALS])
    if spec.style == "instrumental":
        burst = int(0.05 * sr)
        draws.bursts = [(int(onset * sr), rng.standard_normal(burst))
                        for onset in np.arange(0.0, spec.duration_s - 0.06,
                                               1.0)]
        return draws
    draws.cents = synth_pitch_contour(spec, rng)
    if not len(draws.cents):
        raise InvalidArgumentError(
            f"{spec.style} section of {spec.duration_s} s is shorter than "
            f"one {CONTOUR_HOP_S} s contour step")
    draws.harmonic_phases = [rng.uniform(0, 2 * np.pi)
                             for _ in range(N_HARMONICS)]
    if spec.style == "taan" and spec.am_depth_db > 0:
        draws.am_phase = rng.uniform(0, 2 * np.pi)
    return draws


def _chunks(x):
    """(first sample, view) of x in RENDER_CHUNK pieces."""
    for lo in range(0, len(x), RENDER_CHUNK):
        yield lo, x[lo : lo + RENDER_CHUNK]


def _rms(x, scratch):
    """sqrt(mean(x**2)), with the squares written into scratch."""
    sq = np.square(x, out=scratch[: len(x)])
    return np.sqrt(np.mean(sq))


def _render_drone(x, draws, sr, scratch):
    """Constant drone triad into x; noise-burst percussion at 1 Hz when
    drawn."""
    for lo, seg in _chunks(x):
        t = np.arange(lo, lo + len(seg)) / sr
        seg[:] = 0.0
        for (f, a), ph in zip(DRONE_PARTIALS, draws.drone_phases):
            seg += a * np.sin(2 * np.pi * f * t + ph)
    x *= VOCAL_RMS * 10.0 ** (DRONE_REL_DB / 20.0) / max(_rms(x, scratch),
                                                         1e-12)
    if draws.bursts:
        burst = int(0.05 * sr)
        env = np.exp(-np.arange(burst) / (0.01 * sr))
        for s, noise in draws.bursts:
            x[s : s + burst] += 0.05 * env * noise


def _render_voice(x, draws, section, sr, scratch):
    """8-harmonic source following the contour into x, 1/h rolloff,
    optional AM. The phase is a running sum of f0 that each chunk carries
    on from the last."""
    cents = draws.cents
    t_c = np.arange(len(cents)) * CONTOUR_HOP_S
    acc = np.empty(min(len(x), RENDER_CHUNK) + 1)
    carry = 0.0
    for lo, seg in _chunks(x):
        t = np.arange(lo, lo + len(seg)) / sr
        run = acc[: len(seg) + 1]
        run[0] = carry
        run[1:] = REF_HZ * 2.0 ** (np.interp(t, t_c, cents) / 1200.0)
        np.cumsum(run, out=run)
        carry = run[-1]
        phase = 2.0 * np.pi * run[1:] / sr
        seg[:] = 0.0
        for h, ph in enumerate(draws.harmonic_phases, start=1):
            seg += np.sin(h * phase + ph) / h
    x *= VOCAL_RMS / max(_rms(x, scratch), 1e-12)
    if draws.am_phase is not None:
        for lo, seg in _chunks(x):
            t = np.arange(lo, lo + len(seg)) / sr
            gain_db = section.am_depth_db * np.sin(
                2 * np.pi * section.mod_rate_hz * t + draws.am_phase)
            seg *= 10.0 ** (gain_db / 20.0)


def _render_section(job):
    """Drone plus voice of one section into its slice of the clip; returns
    the slice's (max, min). Runs on a worker thread."""
    spec, draws, sr, out, voice, scratch = job
    _render_drone(out, draws, sr, scratch)
    if voice is not None:
        _render_voice(voice, draws, spec, sr, scratch)
        out += voice
    return out.max(), out.min()


def synth_concert(script):
    """Render a concert; returns (AudioClip, SectionTimeline, frame labels).

    Frame labels are per 1 s frame: taan / non-taan / instrumental.
    Fully deterministic given the script's seed: every random value is
    drawn first, section by section, and the sections are then rendered
    on `pool.ordered_map`'s threads, each into its own slice of the clip,
    so the clip does not depend on the worker count.
    """
    if not script.sections:
        raise InvalidArgumentError("script has no sections")
    sr = accepted_rate(script.sample_rate)
    total = script.total_duration()
    if total > MAX_DURATION_S:
        raise ResourceLimitError(
            f"script of {total:.0f} s exceeds the {MAX_DURATION_S:.0f} s cap"
        )
    rng = seeded_rng(script.seed)
    draws = [_draw_section(spec, sr, rng) for spec in script.sections]
    lengths = [int(round(spec.duration_s * sr)) for spec in script.sections]
    x = np.empty(sum(lengths))

    def jobs():
        # a job's two section-length buffers are allocated only when
        # ordered_map draws it, so at most pool.WORKERS jobs hold them
        lo = 0
        for spec, d, n in zip(script.sections, draws, lengths):
            if n:
                voice = None if spec.style == "instrumental" else np.empty(n)
                yield spec, d, sr, x[lo : lo + n], voice, np.empty(n)
            lo += n

    extremes = ordered_map(_render_section, jobs())
    peak = max((max(hi, -lo) for hi, lo in extremes), default=0.0)
    if peak > 0.9:
        x *= 0.9 / peak
    bounds = list(itertools.accumulate(
        (spec.duration_s for spec in script.sections), initial=0.0))
    timeline = SectionTimeline([
        Section(a, b, spec.style if spec.style in ("taan", "instrumental")
                else "non-taan")
        for spec, a, b in zip(script.sections, bounds, bounds[1:])])
    return (AudioClip(samples=x, sample_rate=sr), timeline,
            timeline.frame_labels(int(np.floor(total))))


def default_test_script(seed=7):
    """10-minute concert with six taan sections separated by gaps wide
    enough that grouping must keep them apart."""
    mk = SectionSpec
    sections = [
        mk("instrumental", 55.0),
        mk("taan", 40.0, f0_hz=220.0, mod_rate_hz=6.0),
        mk("steady-vocal", 30.0, f0_hz=196.0),
        mk("taan", 45.0, f0_hz=247.0, mod_rate_hz=5.5),
        mk("glide-vocal", 30.0, f0_hz=220.0, mod_rate_hz=0.5,
           mod_depth_cents=200.0),
        mk("taan", 40.0, f0_hz=220.0, mod_rate_hz=7.0),
        mk("instrumental", 60.0),
        mk("taan", 45.0, f0_hz=262.0, mod_rate_hz=6.5),
        mk("steady-vocal", 30.0, f0_hz=220.0),
        mk("taan", 40.0, f0_hz=220.0, mod_rate_hz=6.0),
        mk("glide-vocal", 30.0, f0_hz=196.0, mod_rate_hz=0.5,
           mod_depth_cents=200.0),
        mk("taan", 45.0, f0_hz=233.0, mod_rate_hz=8.0),
        mk("steady-vocal", 30.0, f0_hz=220.0),
        mk("instrumental", 80.0),
    ]
    assert sum(s.duration_s for s in sections) == 600.0
    return ConcertScript(sections=sections, seed=seed)
