"""Praat TextGrid parsing (the long and the short text form) and long-form
emission, interval tiers only, and `read_sections` and `write_sections`,
the one reader and writer of truth files. Point tiers are skipped with a
warning. Round-trip parse(emit(doc)) reproduces the document exactly.
"""

import re
import warnings
from dataclasses import dataclass

from .bootstrap import LABEL_TABLE
from .errors import DataError, InvalidArgumentError, ParseError, open_text
from .segmentation import (LABELS, Section, SectionTimeline, read_timeline,
                           write_timeline)

TAAN_LABELS = {"taan", "akar taan", "akartaan"}


@dataclass
class Interval:
    xmin: float
    xmax: float
    text: str


@dataclass
class IntervalTier:
    name: str
    xmin: float
    xmax: float
    intervals: list


@dataclass
class TextGridDoc:
    xmin: float
    xmax: float
    tiers: list


# A value line: an optional `key =` (or the long form's `tiers?`), then a
# "string" with "" for a quote, the <exists> flag, or a number (no inf, nan)
_VALUE = re.compile(r'(?:([A-Za-z][^"=]*?)(?:\s*=|(?<=\?))\s*)?'
                    r'(?:"([^"]*(?:""[^"]*)*)"|(<exists>)|'
                    r'([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?))')
# the long form's lines that hold no value
_HEADING = re.compile(r"(?:item|intervals|points) \[\d*\]:")
# the _VALUE group of each kind of value
_GROUP = {str: 2, "exists": 3, float: 4, int: 4}


class _Values:
    """A TextGrid's values in file order; `line` is the last one's line."""

    def __init__(self, path):
        with open_text(path) as fh:
            self.lines = enumerate(fh.read().splitlines(), start=1)
        self.line = 0
        self.path = path

    def __call__(self, key, kind=float):
        """The next value, after `key =` where its line names a key: a float,
        a count (kind int: whole, >= 0), a string (kind str) or "exists"."""
        for self.line, text in self.lines:
            text = text.strip()
            # a heading ends in ":", a value never: most lines skip the regex
            if text and not (text.endswith(":") and _HEADING.fullmatch(text)):
                break
        else:
            raise ParseError("unexpected end of file", path=self.path,
                             line=self.line)
        m = _VALUE.fullmatch(text)
        if m is None or m[1] not in (None, key) or m[_GROUP[kind]] is None:
            name = getattr(kind, "__name__", kind)
            raise ParseError(f"expected `{key} = <{name}>`, got {text!r}",
                             path=self.path, line=self.line)
        if kind is str:
            return m[2].replace('""', '"')
        if kind == "exists":
            return True
        value = float(m[4])
        if kind is int and not (value >= 0 and value.is_integer()):
            raise ParseError(f"`{key}` is not a count: {value!r}",
                             path=self.path, line=self.line)
        return kind(value)


def parse_textgrid(path):
    """Parse a long- or short-form TextGrid into a TextGridDoc: both forms
    hold the same values in the same order, the long one after keys."""
    value = _Values(path)
    if ("ooTextFile" not in value("File type", str)
            or "TextGrid" not in value("Object class", str)):
        raise ParseError("not a TextGrid", path=path, line=value.line)
    xmin, xmax = value("xmin"), value("xmax")
    value("tiers?", "exists")
    tiers = []
    for _ in range(value("size", int)):
        klass, name = value("class", str), value("name", str)
        t_xmin, t_xmax = value("xmin"), value("xmax")
        if klass == "TextTier":
            for _ in range(value("points: size", int)):
                value("number"), value("mark", str)
            warnings.warn(f"{path}: point tier {name!r} skipped")
            continue
        if klass != "IntervalTier":
            raise ParseError(f"unsupported tier class {klass!r}",
                             path=path, line=value.line)
        intervals = [Interval(value("xmin"), value("xmax"), value("text", str))
                     for _ in range(value("intervals: size", int))]
        _validate_tier(name, t_xmin, t_xmax, intervals, path)
        tiers.append(IntervalTier(name, t_xmin, t_xmax, intervals))
    return TextGridDoc(xmin=xmin, xmax=xmax, tiers=tiers)


def _validate_tier(name, xmin, xmax, intervals, path):
    prev = None
    for iv in intervals:
        if iv.xmax <= iv.xmin:
            raise DataError(f"tier {name!r} has an empty interval "
                            f"[{iv.xmin}, {iv.xmax}]", path=path)
        if iv.xmin < xmin - 1e-9 or iv.xmax > xmax + 1e-9:
            raise DataError(f"interval outside tier bounds in {name!r}",
                            path=path)
        if prev is not None and iv.xmin < prev - 1e-9:
            raise DataError(f"overlapping/unsorted intervals in {name!r}",
                            path=path)
        prev = iv.xmax


def emit_textgrid(doc, path):
    """Write a TextGridDoc in long form, UTF-8."""
    out = [
        'File type = "ooTextFile"',
        'Object class = "TextGrid"',
        "",
        f"xmin = {float(doc.xmin)!r}",
        f"xmax = {float(doc.xmax)!r}",
        "tiers? <exists>",
        f"size = {len(doc.tiers)}",
        "item []:",
    ]
    for k, tier in enumerate(doc.tiers, start=1):
        out += [
            f"    item [{k}]:",
            '        class = "IntervalTier"',
            f'        name = "{tier.name.replace(chr(34), chr(34) * 2)}"',
            f"        xmin = {float(tier.xmin)!r}",
            f"        xmax = {float(tier.xmax)!r}",
            f"        intervals: size = {len(tier.intervals)}",
        ]
        for i, iv in enumerate(tier.intervals, start=1):
            out += [
                f"        intervals [{i}]:",
                f"            xmin = {float(iv.xmin)!r}",
                f"            xmax = {float(iv.xmax)!r}",
                f'            text = "{iv.text.replace(chr(34), chr(34) * 2)}"',
            ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


def tier_to_timeline(tier):
    """Map an interval tier to a SectionTimeline.

    Labels matching taan/akar taan (case-insensitive) become taan; empty
    or `instrumental` text becomes instrumental; anything else non-taan.
    """
    sections = []
    for iv in tier.intervals:
        text = iv.text.strip().lower()
        if text in TAAN_LABELS:
            label = "taan"
        elif text in ("", "instrumental"):
            label = "instrumental"
        else:
            label = "non-taan"
        sections.append(Section(iv.xmin, iv.xmax, label))
    return SectionTimeline(sections)


def timeline_to_doc(timeline, tier_name="sections"):
    xmin, xmax = timeline.span()
    tier = IntervalTier(
        name=tier_name, xmin=xmin, xmax=xmax,
        intervals=[Interval(s.start_s, s.end_s, s.label) for s in timeline],
    )
    return TextGridDoc(xmin=xmin, xmax=xmax, tiers=[tier])


def read_sections(path):
    """The timeline of a truth file, by its first line of text: a TextGrid
    (`ooTextFile`) gives its only interval tier, 3 columns a timeline TSV,
    else row k of a frame-label TSV is [k, k+1), equal neighbours merged.
    Bad labels, frame k not at k s, invalid or empty timelines: DataError."""
    with open_text(path) as fh:
        first = fh.readline()
    try:
        if "ooTextFile" in first:
            tiers = parse_textgrid(path).tiers
            if len(tiers) != 1:
                raise DataError(f"{len(tiers)} interval tiers, not one",
                                path=path)
            timeline = tier_to_timeline(tiers[0])
        elif first.count("\t") == 2:
            timeline = read_timeline(path)
        else:
            rows = LABEL_TABLE.read(path).tolist()
            for line, row in enumerate(rows, start=1):
                if row[1] not in LABELS:
                    raise DataError(f"unknown label {row[1]!r}", path=path,
                                    line=line)
                if row[0] != line - 1:
                    raise DataError(f"frame {line - 1} at {row[0]!r} s, not "
                                    f"{line - 1} s", path=path, line=line)
            runs = [k for k in range(len(rows))
                    if k == 0 or rows[k][1] != rows[k - 1][1]]
            timeline = SectionTimeline([
                Section(float(a), float(b), rows[a][1])
                for a, b in zip(runs, runs[1:] + [len(rows)])])
    except InvalidArgumentError as exc:
        raise DataError(str(exc), path=path) from None
    if not len(timeline):
        raise DataError("no sections", path=path)
    return timeline


def write_sections(timeline, path):
    """A timeline in the file `read_sections` reads back: a TextGrid when
    path ends in .TextGrid (any case), else a timeline TSV."""
    if not len(timeline):
        raise InvalidArgumentError("no sections to write")
    if str(path).lower().endswith(".textgrid"):
        return emit_textgrid(timeline_to_doc(timeline), path)
    write_timeline(timeline, path)
