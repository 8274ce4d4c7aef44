"""Exception hierarchy shared across the package, and `open_text`, the text
opener every reader uses: the one place that picks a file's encoding.

CLI exit-code mapping: UsageError -> 1, TaansegError (and subclasses) -> 2,
InternalError and any other exception, which is a bug, -> 3.
"""

import contextlib
import io
import json


class TaansegError(Exception):
    pass


class InvalidArgumentError(TaansegError, ValueError):
    """A caller-supplied argument violates an operation's precondition."""


class EmptyInputError(InvalidArgumentError):
    """Input too short / empty for any processing."""


class DataError(TaansegError):
    """A data file or payload is malformed or violates an invariant;
    carries a location when known."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += str(path)
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class ParseError(DataError):
    """Malformed file content."""


class FormatError(DataError):
    """File parses but does not meet the required format contract."""


class UnsupportedFormatError(DataError):
    """Recognized but unsupported encoding (e.g. compressed WAV)."""


class UnsupportedOperationError(TaansegError):
    """Operation outside the supported envelope (e.g. upsampling)."""


class ResourceLimitError(TaansegError):
    """Request exceeds a documented resource ceiling."""


class InternalError(Exception):
    """Invariant violation inside the library: a bug, not a TaansegError."""


@contextlib.contextmanager
def open_text(path):
    """Open a text file for reading: UTF-16 after a UTF-16 byte-order mark,
    else UTF-8, a UTF-8 byte-order mark dropped. Undecodable bytes, bad JSON
    or any ValueError (a JSON integer past Python's digit limit) inside the
    `with` block raise ParseError naming the path (and the JSON line)."""
    raw = open(path, "rb")
    utf16 = raw.peek(2)[:2] in (b"\xff\xfe", b"\xfe\xff")
    try:
        with io.TextIOWrapper(raw, "utf-16" if utf16 else "utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-{16 if utf16 else 8} text ({exc.reason})",
                         path=path) from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON ({exc.msg})", path=path,
                         line=exc.lineno) from None
    except ValueError as exc:
        raise ParseError(f"value out of range ({exc})", path=path) from None
