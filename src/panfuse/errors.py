"""Exception types shared across the package."""


class PanfuseError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(PanfuseError):
    """Command-line arguments that parse but do not fit together."""


class DimensionError(PanfuseError):
    """Operands have incompatible or malformed shapes."""


class FormatError(PanfuseError):
    """A container file is malformed; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class CueError(PanfuseError):
    """Required cues are missing or inconsistent (e.g. masks absent)."""


class CapacityError(PanfuseError):
    """An operation guarded by a size limit was asked to exceed it."""


class GenerationError(PanfuseError):
    """Synthetic scene generation could not satisfy its constraints."""


class NumericError(PanfuseError):
    """A numeric computation produced non-finite values."""
