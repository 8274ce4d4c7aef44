"""Exception hierarchy shared across the package, and the UTF-8 text
opener every reader uses so that undecodable bytes are a ParseError.

CLI exit-code mapping: UsageError -> 1, DataError (and subclasses) -> 2,
InternalError -> 3.
"""

import contextlib


class TaansegError(Exception):
    pass


class InvalidArgumentError(TaansegError, ValueError):
    """A caller-supplied argument violates an operation's precondition."""


class EmptyInputError(InvalidArgumentError):
    """Input too short / empty for any processing."""


class DataError(TaansegError):
    """A data file or payload is malformed or violates an invariant."""


class ParseError(DataError):
    """Malformed file content; carries a location when known."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += str(path)
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class FormatError(DataError):
    """File parses but does not meet the required format contract."""


class UnsupportedFormatError(DataError):
    """Recognized but unsupported encoding (e.g. compressed WAV)."""


class UnsupportedOperationError(TaansegError):
    """Operation outside the supported envelope (e.g. upsampling)."""


class ResourceLimitError(TaansegError):
    """Request exceeds a documented resource ceiling."""


class InternalError(TaansegError):
    """Invariant violation inside the library; indicates a bug."""


@contextlib.contextmanager
def open_utf8(path):
    """Open a UTF-8 text file for reading. Bytes that do not decode, read
    anywhere inside the `with` block, raise ParseError naming the path
    instead of UnicodeDecodeError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})", path=path) from None
