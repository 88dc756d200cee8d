"""Exception types shared across the package.

Each class carries the exit code the command line returns for it:
2 usage, 3 data or cue, 4 numeric.
"""


class PanfuseError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 4


class UsageError(PanfuseError):
    """Command-line arguments that parse but do not fit together."""

    exit_code = 2


class DimensionError(PanfuseError):
    """Operands have incompatible or malformed shapes."""

    exit_code = 3


class FormatError(PanfuseError):
    """A container file is malformed; carries the byte offset of the problem."""

    exit_code = 3

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CueError(PanfuseError):
    """Required cues are missing or inconsistent (e.g. masks absent)."""

    exit_code = 3


class GenerationError(PanfuseError):
    """Synthetic scene generation could not satisfy its constraints."""

    exit_code = 3


class NumericError(PanfuseError):
    """A numeric computation produced non-finite values."""
