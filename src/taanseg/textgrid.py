"""Long-form PRAAT TextGrid parsing and emission (interval tiers only),
and `read_sections`, the one reader of truth files. Point tiers are
skipped with a warning; short-form files are rejected. Round-trip
parse(emit(doc)) reproduces the document exactly.
"""

import re
import warnings
from dataclasses import dataclass, field

from .bootstrap import LABEL_TABLE
from .errors import DataError, InvalidArgumentError, ParseError
from .segmentation import LABELS, Section, SectionTimeline, read_timeline

BOMS = (b"\xff\xfe", b"\xfe\xff", b"\xef\xbb\xbf")

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


def _read_text(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-16" if raw.startswith(BOMS[:2]) else
                          "utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"undecodable text ({exc.reason})", path=path) from None


class _Cursor:
    def __init__(self, lines, path):
        self.lines = lines
        self.pos = 0
        self.path = path

    def next(self):
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            self.pos += 1
            if line:
                return line
        raise ParseError("unexpected end of file", path=self.path,
                         line=self.pos)

    def expect_number(self, key, count=False):
        """The number of a `key = <number>` line; with count, an int, and
        a ParseError unless it is a finite non-negative integer."""
        line = self.next()
        m = re.match(rf"{re.escape(key)}\s*=\s*([-\d.eE+]+)", line)
        if not m:
            raise ParseError(f"expected `{key} = <number>`, got {line!r}",
                             path=self.path, line=self.pos)
        try:
            value = float(m.group(1))
        except ValueError as exc:
            raise ParseError(f"malformed number in {line!r}",
                             path=self.path, line=self.pos) from exc
        if count and (value < 0 or not value.is_integer()):
            raise ParseError(f"`{key}` is not a count: {value!r}",
                             path=self.path, line=self.pos)
        return int(value) if count else value

    def expect_string(self, key):
        line = self.next()
        m = re.match(rf"{re.escape(key)}\s*=\s*\"(.*)\"\s*$", line)
        if not m:
            raise ParseError(f"expected `{key} = \"...\"`, got {line!r}",
                             path=self.path, line=self.pos)
        return m.group(1).replace('""', '"')


def parse_textgrid(path):
    """Parse a long-form TextGrid into a TextGridDoc."""
    text = _read_text(path)
    lines = text.splitlines()
    cur = _Cursor(lines, path)
    if "ooTextFile" not in cur.next():
        raise ParseError("not an ooTextFile", path=path, line=cur.pos)
    if "TextGrid" not in cur.next():
        raise ParseError("not a TextGrid object", path=path, line=cur.pos)
    xmin = cur.expect_number("xmin")
    xmax = cur.expect_number("xmax")
    tiers_line = cur.next()
    if not tiers_line.startswith("tiers?"):
        raise ParseError("short-form TextGrid not supported (missing tiers?)",
                         path=path, line=cur.pos)
    size = cur.expect_number("size", count=True)
    cur.next()  # item []:
    tiers = []
    for _ in range(size):
        cur.next()  # item [k]:
        klass = cur.expect_string("class")
        name = cur.expect_string("name")
        t_xmin = cur.expect_number("xmin")
        t_xmax = cur.expect_number("xmax")
        if klass == "TextTier":
            for _ in range(cur.expect_number("points: size", count=True)):
                cur.next()
                cur.expect_number("number")
                cur.expect_string("mark")
            warnings.warn(f"{path}: point tier {name!r} skipped")
            continue
        if klass != "IntervalTier":
            raise ParseError(f"unsupported tier class {klass!r}",
                             path=path, line=cur.pos)
        intervals = []
        for _ in range(cur.expect_number("intervals: size", count=True)):
            cur.next()  # intervals [k]:
            ixmin = cur.expect_number("xmin")
            ixmax = cur.expect_number("xmax")
            itext = cur.expect_string("text")
            intervals.append(Interval(ixmin, ixmax, itext))
        _validate_tier(name, t_xmin, t_xmax, intervals, path)
        tiers.append(IntervalTier(name, t_xmin, t_xmax, intervals))
    return TextGridDoc(xmin=xmin, xmax=xmax, tiers=tiers)


def _validate_tier(name, xmin, xmax, intervals, path):
    prev = None
    for iv in intervals:
        if iv.xmax <= iv.xmin:
            raise DataError(f"{path}: tier {name!r} has an empty interval "
                            f"[{iv.xmin}, {iv.xmax}]")
        if iv.xmin < xmin - 1e-9 or iv.xmax > xmax + 1e-9:
            raise DataError(f"{path}: interval outside tier bounds in {name!r}")
        if prev is not None and iv.xmin < prev - 1e-9:
            raise DataError(f"{path}: overlapping/unsorted intervals in "
                            f"{name!r}")
        prev = iv.xmax


def _fmt(x):
    return repr(float(x))


def emit_textgrid(doc, path):
    """Write a TextGridDoc in long form, UTF-8."""
    out = [
        'File type = "ooTextFile"',
        'Object class = "TextGrid"',
        "",
        f"xmin = {_fmt(doc.xmin)}",
        f"xmax = {_fmt(doc.xmax)}",
        "tiers? <exists>",
        f"size = {len(doc.tiers)}",
        "item []:",
    ]
    for k, tier in enumerate(doc.tiers, start=1):
        out += [
            f"    item [{k}]:",
            '        class = "IntervalTier"',
            f'        name = "{tier.name.replace(chr(34), chr(34) * 2)}"',
            f"        xmin = {_fmt(tier.xmin)}",
            f"        xmax = {_fmt(tier.xmax)}",
            f"        intervals: size = {len(tier.intervals)}",
        ]
        for i, iv in enumerate(tier.intervals, start=1):
            out += [
                f"        intervals [{i}]:",
                f"            xmin = {_fmt(iv.xmin)}",
                f"            xmax = {_fmt(iv.xmax)}",
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
    """The timeline of a truth file, by content: a TextGrid (a byte-order
    mark, or `ooTextFile` on line 1) gives its only interval tier; 3
    columns on line 1 make a timeline TSV; else row k of a frame-label TSV
    is [k, k+1), equal neighbours merged. Bad TSV labels, a frame-label
    row k not at k s, invalid or empty timelines raise DataError."""
    with open(path, "rb") as fh:
        first = fh.readline()
    try:
        if first.startswith(BOMS) or b"ooTextFile" in first:
            tiers = parse_textgrid(path).tiers
            if len(tiers) != 1:
                raise DataError(f"{len(tiers)} interval tiers, not one",
                                path=path)
            timeline = tier_to_timeline(tiers[0])
        elif first.count(b"\t") == 2:
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
