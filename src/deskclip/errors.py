"""Exception types shared across the package."""


class DeskclipError(Exception):
    """Base class for all library errors."""


class DimensionError(DeskclipError):
    """Shapes or extents do not line up."""


class ContractError(DeskclipError):
    """A caller violated an operation's precondition."""


class InputError(DeskclipError):
    """User-supplied data is malformed or inconsistent."""


class FormatError(DeskclipError):
    """A binary file has the wrong magic or an unsupported version."""


class CorruptionError(FormatError):
    """A binary file is truncated or internally inconsistent."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class RangeError(DeskclipError):
    """A scalar argument is outside its allowed range."""


class DivergenceError(DeskclipError):
    """Training diverged: the dynamic loss scale fell below its floor."""
