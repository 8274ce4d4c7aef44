"""Minimal RIFF/WAVE reader and writer: PCM 16-bit and 32-bit float,
mono or stereo (stereo is averaged to mono on read). The reader also takes
WAVE_FORMAT_EXTENSIBLE files whose sub-format is one of the two.
"""

import struct

import numpy as np

from .dsp import AudioClip
from .errors import ParseError, UnsupportedFormatError

WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# the sub-format GUID of an extensible fmt chunk is the plain format code
# (1 PCM, 3 IEEE float) as its first 2 bytes, then these 14
_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def _extensible_format(fmt_body, path):
    """Plain format code (1 or 3) named by the sub-format GUID of an
    extensible fmt chunk body."""
    if len(fmt_body) < 40 or struct.unpack("<H", fmt_body[16:18])[0] < 22:
        raise ParseError(f"extensible fmt chunk of {len(fmt_body)} bytes "
                         "lacks its 22-byte extension", path=path)
    guid = bytes(fmt_body[24:40])
    code = struct.unpack("<H", guid[:2])[0]
    if guid[2:] != _GUID_TAIL or code not in (1, 3):
        raise ParseError(f"unsupported extensible sub-format {guid.hex()}; "
                         "only PCM and IEEE float are accepted", path=path)
    return code


def read_wav(path):
    """Read a WAV file into a mono AudioClip with samples in [-1, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise ParseError("not a RIFF/WAVE file", path=path)
    view = memoryview(data)
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        size = struct.unpack("<I", data[pos + 4 : pos + 8])[0]
        body = view[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise ParseError(f"fmt chunk has {len(body)} bytes, need 16",
                                 path=path)
            fmt = list(struct.unpack("<HHIIHH", body[:16]))
            if fmt[0] == WAVE_FORMAT_EXTENSIBLE:
                fmt[0] = _extensible_format(body, path)
        elif cid == b"data":
            if len(body) < size:
                raise ParseError(f"data chunk states {size} bytes but only "
                                 f"{len(body)} follow", path=path)
            payload = body
        pos += 8 + size + (size & 1)
    if fmt is None or payload is None:
        raise ParseError("missing fmt or data chunk", path=path)
    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels == 0:
        raise ParseError("fmt chunk declares 0 channels", path=path)
    if audio_format == 1 and bits == 16:
        dtype = "<i2"
    elif audio_format == 3 and bits == 32:
        dtype = "<f4"
    else:
        raise UnsupportedFormatError(
            f"{path}: unsupported WAV encoding (format {audio_format}, "
            f"{bits}-bit); only 16-bit PCM and 32-bit float are accepted"
        )
    if len(payload) % (bits // 8):
        raise ParseError(f"data chunk of {len(payload)} bytes is not a whole "
                         f"number of {bits}-bit samples", path=path)
    samples = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    if audio_format == 1:
        samples /= 32768.0
    else:
        bad = np.flatnonzero(~np.isfinite(samples))
        if len(bad):
            raise ParseError(f"non-finite sample {samples[bad[0]]} at payload "
                             f"index {bad[0]}", path=path)
    if channels > 1:
        samples = samples[: len(samples) // channels * channels]
        samples = samples.reshape(-1, channels).mean(axis=1)
    return AudioClip(samples=samples, sample_rate=int(sample_rate))


def write_wav(clip, path):
    """Write a mono 16-bit PCM WAV; full scale maps to +/- 32768."""
    ints = np.clip(np.round(clip.samples * 32768.0), -32768, 32767).astype("<i2")
    payload = ints.tobytes()
    sr = clip.sample_rate
    with open(path, "wb") as fh:
        fh.write(b"RIFF")
        fh.write(struct.pack("<I", 36 + len(payload)))
        fh.write(b"WAVEfmt ")
        fh.write(struct.pack("<IHHIIHH", 16, 1, 1, sr, sr * 2, 2, 16))
        fh.write(b"data")
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
