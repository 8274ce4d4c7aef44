"""Delimited text tables: the one reader and writer of the package's CSV
and TSV files (tracks, features, posteriors, timelines, frame labels).

Text read through `errors.open_text` and written as UTF-8, one row per
line, under an optional header line of the column names. Floats are
written as their repr(), so they read back bit-identical; NaN is `nan`.
Trailing empty lines are ignored.
"""

import numpy as np

from .errors import FormatError, InvalidArgumentError, ParseError, open_text

# rows formatted per write, which bounds the writer's Python objects
WRITE_CHUNK = 8192


class Table:
    """One table layout: (name, numpy type) columns, the delimiter,
    whether a header line names the columns, a printf format per cell
    (default %s, the repr of a float), and the format's invariants:
    check(rows, first_line) gives (bad row mask, error class, message)
    triples, in the order they apply, for rows from line first_line on;
    a message may name the row's fields, as in "{time_s}"."""

    def __init__(self, columns, delimiter=",", header=True, cells=None,
                 check=None):
        self.dtype = np.dtype(columns)
        self.delimiter = delimiter
        self.header = delimiter.join(self.dtype.names) if header else None
        self.row = delimiter.join(cells or ["%s"] * len(columns)) + "\n"
        self.check = check

    def write(self, path, columns):
        """Write equal-length columns, each cast to its column's type. A
        text cell holding the delimiter or a line break, which would not
        read back, raises InvalidArgumentError before the file opens."""
        cols = [np.asarray(col, dtype=self.dtype[k])
                for k, col in enumerate(columns)]
        for cell in (c for col in cols if col.dtype == object for c in col):
            if any(b in str(cell) for b in (self.delimiter, "\n", "\r")):
                raise InvalidArgumentError(f"{path}: cell {cell!r} holds the "
                                           "delimiter or a line break")
        with open(path, "w", encoding="utf-8") as fh:
            if self.header is not None:
                fh.write(self.header + "\n")
            for a in range(0, len(cols[0]), WRITE_CHUNK):
                cells = [col[a:a + WRITE_CHUNK].tolist() for col in cols]
                fh.writelines(self.row % row for row in zip(*cells))

    def read(self, path):
        """The rows of a table file as a structured array. A wrong header
        is a FormatError. Otherwise the first line that does not parse
        (ParseError) or that the check rejects raises at path:line, and
        failing that the first empty line inside the body (FormatError).
        """
        with open_text(path) as fh:
            if self.header is not None:
                head = fh.readline().strip()
                if head != self.header:
                    raise FormatError(f"unexpected header {head!r}",
                                      path=path)
            lines = fh.read().split("\n")
        while lines and not lines[-1].strip():
            lines.pop()
        first = 1 if self.header is None else 2
        rows = self._rows(path, lines, first)
        if rows is not None:
            return rows
        blank = None
        for lineno, line in enumerate(lines, start=first):
            if not line.strip():
                blank = blank or lineno
            elif self._rows(path, [line], lineno) is None:
                raise ParseError(f"not a row of {', '.join(self.dtype.names)}"
                                 f": {line[:80]!r}", path=path, line=lineno)
        raise FormatError("empty line inside the table", path=path, line=blank)

    def _rows(self, path, lines, first_line):
        """The lines parsed in one np.loadtxt pass, or None unless each
        gives one row; raises for the first row, and its first invariant,
        that the check rejects."""
        if not lines:
            return np.zeros(0, self.dtype)
        try:
            rows = np.loadtxt(lines, dtype=self.dtype, comments=None,
                              delimiter=self.delimiter, ndmin=1)
        except ValueError:
            return None
        if len(rows) != len(lines):
            return None
        if self.check is None:
            return rows
        faults = self.check(rows, first_line)
        bad = np.column_stack([mask for mask, _, _ in faults])
        if bad.any():
            i, k = divmod(int(np.argmax(bad)), len(faults))
            _, cls, message = faults[k]
            fields = dict(zip(self.dtype.names, rows[i].tolist()))
            raise cls(message.format(**fields), path=path, line=first_line + i)
        return rows


def finite(*names):
    """A check that the named float columns hold finite values."""
    return lambda rows, first_line: [
        (~np.isfinite(rows[name]), ParseError, f"{name} is not finite")
        for name in names]
