"""Deterministic synthetic-concert generator: pitch contours, harmonic
voice rendering over a drone-and-percussion bed, plus ground-truth
timelines and 1 s frame labels. Serves as the test corpus.
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import fits_type
from .dsp import AudioClip
from .errors import (DataError, InvalidArgumentError, ResourceLimitError,
                     open_utf8)
from .segmentation import Section, SectionTimeline

STYLES = ("taan", "steady-vocal", "glide-vocal", "instrumental")
CONTOUR_HOP_S = 0.01
MAX_DURATION_S = 1800.0
N_HARMONICS = 8
VOCAL_RMS = 0.1
DRONE_REL_DB = -10.0     # drone level relative to the voice
REF_HZ = 55.0


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
        if self.mod_depth_cents < 0 or self.am_depth_db < 0:
            raise InvalidArgumentError("modulation depths must be non-negative")
        if self.style == "taan" and not 5.0 <= self.mod_rate_hz <= 10.0:
            raise InvalidArgumentError("taan modulation rate must be 5-10 Hz")


@dataclass
class ConcertScript:
    sections: list
    seed: int = 0
    sample_rate: int = 8000

    def total_duration(self):
        return sum(s.duration_s for s in self.sections)


_SCRIPT_TYPES = {"sections": list, "seed": int, "sample_rate": int}


def _check_object(path, where, obj, types, required):
    """DataError unless obj is a JSON object with every required key and
    only keys of `types`, each holding a value of its type (floats finite)."""
    if not isinstance(obj, dict):
        raise DataError(f"{path}: {where} must be a JSON object")
    for key in required:
        if key not in obj:
            raise DataError(f"{path}: {where} has no {key!r} key")
    for key, value in obj.items():
        if key not in types:
            raise DataError(f"{path}: {where} has unknown key {key!r}")
        kind = types[key]
        if not fits_type(value, kind) or (kind is float
                                          and not math.isfinite(value)):
            want = ("a finite number" if kind is float
                    else f"of type {kind.__name__}")
            raise DataError(f"{path}: {where} key {key!r}: {value!r} is not "
                            f"{want}")


def script_from_json(path):
    """Read a concert script. Malformed content raises DataError naming
    the path and the offending key."""
    with open_utf8(path) as fh:
        data = json.load(fh)
    _check_object(path, "script", data, _SCRIPT_TYPES, ("sections",))
    types = {f.name: f.type for f in dataclasses.fields(SectionSpec)}
    sections = []
    for k, spec in enumerate(data["sections"]):
        where = f"section {k}"
        _check_object(path, where, spec, types, ("style", "duration_s"))
        try:
            sections.append(SectionSpec(**spec))
        except InvalidArgumentError as exc:
            raise DataError(f"{path}: {where}: {exc}") from None
    return ConcertScript(sections=sections, seed=data.get("seed", 0),
                         sample_rate=data.get("sample_rate", 8000))


def script_to_json(script, path):
    data = {
        "seed": script.seed,
        "sample_rate": script.sample_rate,
        "sections": [
            {
                "style": s.style,
                "duration_s": s.duration_s,
                "f0_hz": s.f0_hz,
                "mod_rate_hz": s.mod_rate_hz,
                "mod_depth_cents": s.mod_depth_cents,
                "am_depth_db": s.am_depth_db,
            }
            for s in script.sections
        ],
    }
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


def _render_voice(cents, section, sr, rng):
    """8-harmonic source following the contour, 1/h rolloff, optional AM."""
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


def _render_drone(duration_s, sr, rng, percussion=False):
    """Constant drone triad; noise-burst percussion at 1 Hz when asked."""
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


def synth_concert(script):
    """Render a concert; returns (AudioClip, SectionTimeline, frame labels).

    Frame labels are per 1 s frame: taan / non-taan / instrumental.
    Fully deterministic given the script's seed.
    """
    if not script.sections:
        raise InvalidArgumentError("script has no sections")
    if script.seed < 0:
        raise InvalidArgumentError(f"seed {script.seed} is negative")
    total = script.total_duration()
    if total > MAX_DURATION_S:
        raise ResourceLimitError(
            f"script of {total:.0f} s exceeds the {MAX_DURATION_S:.0f} s cap"
        )
    rng = np.random.default_rng(script.seed)
    sr = script.sample_rate
    pieces = []
    sections = []
    start = 0.0
    for spec in script.sections:
        drone = _render_drone(spec.duration_s, sr, rng,
                              percussion=spec.style == "instrumental")
        if spec.style == "instrumental":
            pieces.append(drone)
            label = "instrumental"
        else:
            cents = synth_pitch_contour(spec, rng)
            pieces.append(_render_voice(cents, spec, sr, rng) + drone)
            label = "taan" if spec.style == "taan" else "non-taan"
        sections.append(Section(start, start + spec.duration_s, label))
        start += spec.duration_s
    x = np.concatenate(pieces)
    peak = np.abs(x).max()
    if peak > 0.9:
        x *= 0.9 / peak
    timeline = SectionTimeline(sections)
    n_frames = int(np.floor(total))
    labels = []
    for f in range(n_frames):
        mid = f + 0.5
        for s in timeline:
            if s.start_s <= mid < s.end_s:
                labels.append(s.label)
                break
        else:
            labels.append("instrumental")
    return AudioClip(samples=x, sample_rate=sr), timeline, labels


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
