"""Versioned binary model container (magic `TSEG`) and its JSON metadata
sidecar, the container format only: a model's array fields, in field order,
as little-endian 64-bit floats (bit-exact on round-trip) after a JSON header
of their names, type tags and shapes. `MlpModel` and `CnnModel` check that
the arrays make a valid model when `load_model` builds one.
"""

import dataclasses
import json
import math
import os
import struct

import numpy as np

from .cnn import CnnModel
from .errors import FormatError, InvalidArgumentError, ParseError, open_text
from .mlp import MlpModel
from .table import Table

MAGIC = b"TSEG"
VERSION = 1

_MODELS = {"mlp": MlpModel, "cnn": CnnModel}


def _array_names(model):
    """Array field names of a model class or model, in field order."""
    return [f.name for f in dataclasses.fields(model) if f.name != "meta"]


def _type_tag(name, arr):
    """Header type tag: `stat` for band statistics, else by rank."""
    if name.startswith("band_"):
        return "stat"
    return {4: "conv", 2: "dense"}.get(arr.ndim, "bias")


def save_model(model, path):
    kind = next((k for k, cls in _MODELS.items() if isinstance(model, cls)),
                None)
    if kind is None:
        raise FormatError(f"cannot serialize {type(model).__name__}")
    names = _array_names(model)
    arrays = [getattr(model, name) for name in names]
    header = {"kind": kind, "layers": [
        {"name": name, "type": _type_tag(name, arr), "shape": list(arr.shape)}
        for name, arr in zip(names, arrays)]}
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
            raise FormatError(f"unsupported format version {version}",
                              path=path)
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
        with open_text(str(path) + ".json") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        pass
    kind = header["kind"]
    if kind not in _MODELS:
        raise FormatError(f"unknown model kind {kind!r}", path=path)
    names = _array_names(_MODELS[kind])
    missing = [name for name in names if name not in arrays]
    if missing:
        raise ParseError(f"{kind} model lacks arrays {missing}", path=path)
    try:
        return _MODELS[kind](**{name: arrays[name] for name in names},
                             meta=meta)
    except InvalidArgumentError as exc:
        raise ParseError(str(exc), path=path) from None


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
    """A 2-D matrix as header-less CSV, one row per line, floats as repr."""
    m = np.asarray(matrix, dtype=np.float64)
    Table([(f"c{k}", "f8") for k in range(m.shape[1])], header=False).write(
        path, m.T)
