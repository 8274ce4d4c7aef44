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


def _save(path, kind, layers, arrays, meta):
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
        json.dump(meta, fh, indent=2, default=str)
        fh.write("\n")


def save_model(model, path):
    if isinstance(model, MlpModel):
        layers = _MLP_LAYERS
        arrays = [model.w1, model.b1, model.w2, model.b2]
        kind = "mlp"
    elif isinstance(model, CnnModel):
        layers = _CNN_LAYERS
        arrays = [getattr(model, name) for name, _ in _CNN_LAYERS]
        kind = "cnn"
    else:
        raise FormatError(f"cannot serialize {type(model).__name__}")
    _save(path, kind, layers, arrays, model.meta)


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
    if kind == "mlp":
        return MlpModel(arrays["w1"], arrays["b1"], arrays["w2"], arrays["b2"],
                        meta=meta)
    return CnnModel(**{name: arrays[name] for name, _ in _CNN_LAYERS},
                    meta=meta)


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
