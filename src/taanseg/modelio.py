"""Versioned binary model container (magic `TSEG`) for the MLP and CNN,
with a JSON metadata sidecar. Serialization is bit-exact on round-trip:
arrays are stored as little-endian 64-bit floats after a JSON header
describing layer names, type tags and shapes.
"""

import json
import math
import os
import struct

import numpy as np

from .cnn import CnnModel
from .errors import FormatError, ParseError, open_utf8
from .mlp import MlpModel

MAGIC = b"TSEG"
VERSION = 1

_MLP_LAYERS = (
    ("w1", "dense"), ("b1", "bias"), ("w2", "dense"), ("b2", "bias"),
)
_CNN_LAYERS = (
    ("conv1_w", "conv"), ("conv1_b", "bias"),
    ("conv2_w", "conv"), ("conv2_b", "bias"),
    ("fc_w", "dense"), ("fc_b", "bias"),
    ("out_w", "dense"), ("out_b", "bias"),
    ("band_mean", "stat"), ("band_std", "stat"),
)
_KIND_LAYERS = {"mlp": _MLP_LAYERS, "cnn": _CNN_LAYERS}
# the shapes of cnn.cnn_init's arrays, the only ones the CNN runs with
_CNN_SHAPES = {
    "conv1_w": (10, 1, 7, 7), "conv1_b": (10,),
    "conv2_w": (10, 10, 3, 3), "conv2_b": (10,),
    "fc_w": (2100, 300), "fc_b": (300,), "out_w": (300, 2), "out_b": (2,),
    "band_mean": (94,), "band_std": (94,),
}
_KIND_MODEL = {"mlp": MlpModel, "cnn": CnnModel}
# arrays the CNN's float32 conv stack casts to float32 on every call
_CNN_FLOAT32 = ("conv1_w", "conv1_b", "conv2_w", "conv2_b")


def save_model(model, path):
    kind = next((k for k, cls in _KIND_MODEL.items()
                 if isinstance(model, cls)), None)
    if kind is None:
        raise FormatError(f"cannot serialize {type(model).__name__}")
    layers = _KIND_LAYERS[kind]
    arrays = [getattr(model, name) for name, _ in layers]
    header = {
        "kind": kind,
        "layers": [
            {"name": name, "type": tag, "shape": list(arr.shape)}
            for (name, tag), arr in zip(layers, arrays)
        ],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HI", VERSION, len(blob)))
        fh.write(blob)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(model.meta, fh, indent=2, default=str)
        fh.write("\n")


def _layer_shapes(header, path):
    """(name, shape) of each array a model header lists; ParseError unless
    the header is an object with a "kind" string and a "layers" list of
    {"name": string, "shape": [non-negative ints]} entries."""
    if not (isinstance(header, dict) and isinstance(header.get("kind"), str)
            and isinstance(header.get("layers"), list)):
        raise ParseError("model header needs a 'kind' string and a 'layers' "
                         "list", path=path)
    shapes = []
    for layer in header["layers"]:
        entry = layer if isinstance(layer, dict) else {}
        name, shape = entry.get("name"), entry.get("shape")
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(type(d) is int and d >= 0 for d in shape)):
            raise ParseError(f"malformed layer entry {layer!r}", path=path)
        shapes.append((name, tuple(shape)))
    return shapes


def _check_shapes(kind, arrays, path):
    """ParseError unless the arrays fit together as a model of kind: a CNN
    has _CNN_SHAPES, an MLP (n_in, h), (h,), (h, 2) and (2,) for some n_in
    and h."""
    if kind == "cnn":
        want = _CNN_SHAPES
    else:
        n_in, hidden = (arrays["w1"].shape if arrays["w1"].ndim == 2
                        else (None, None))
        want = {"w1": (n_in, hidden), "b1": (hidden,), "w2": (hidden, 2),
                "b2": (2,)}
    bad = [f"{name} {arrays[name].shape}" for name, shape in want.items()
           if arrays[name].shape != shape]
    if bad:
        raise ParseError(f"{kind} model arrays of the wrong shape: "
                         + ", ".join(bad), path=path)


def _check_values(kind, arrays, path):
    """ParseError unless the model's arrays are finite, and a CNN's
    band_std is positive and its conv arrays within float32's range."""
    bad = [name for name, _ in _KIND_LAYERS[kind]
           if not np.isfinite(arrays[name]).all()]
    if bad:
        raise ParseError(f"non-finite values in {', '.join(bad)}", path=path)
    if kind != "cnn":
        return
    if not (arrays["band_std"] > 0).all():
        raise ParseError("band_std entries must be positive", path=path)
    bad = [name for name in _CNN_FLOAT32
           if (np.abs(arrays[name]) > np.finfo(np.float32).max).any()]
    if bad:
        raise ParseError(f"{', '.join(bad)} beyond float32's range",
                         path=path)


def load_model(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ParseError(f"bad magic {magic!r}", path=path)
        head = fh.read(6)
        if len(head) != 6:
            raise ParseError("truncated header", path=path)
        version, hlen = struct.unpack("<HI", head)
        if version != VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError as exc:
            raise ParseError(f"bad JSON header ({exc})", path=path) from None
        size = os.fstat(fh.fileno()).st_size
        arrays = {}
        for name, shape in _layer_shapes(header, path):
            nbytes = 8 * math.prod(shape)
            if fh.tell() + nbytes > size:
                raise ParseError("truncated array payload", path=path)
            buf = fh.read(nbytes)
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    meta = {}
    try:
        with open_utf8(str(path) + ".json") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        pass
    kind = header["kind"]
    if kind not in _KIND_LAYERS:
        raise FormatError(f"{path}: unknown model kind {kind!r}")
    missing = [name for name, _ in _KIND_LAYERS[kind] if name not in arrays]
    if missing:
        raise ParseError(f"{kind} model lacks arrays {missing}", path=path)
    _check_shapes(kind, arrays, path)
    _check_values(kind, arrays, path)
    return _KIND_MODEL[kind](
        **{name: arrays[name] for name, _ in _KIND_LAYERS[kind]}, meta=meta)


def write_pgm(matrix, path):
    """8-bit grayscale PGM of a matrix, min-max scaled."""
    m = np.asarray(matrix, dtype=np.float64)
    lo, hi = m.min(), m.max()
    scaled = np.zeros_like(m) if hi <= lo else (m - lo) / (hi - lo)
    pix = np.round(scaled * 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())


def write_matrix_csv(matrix, path):
    np.savetxt(path, np.asarray(matrix), delimiter=",")
