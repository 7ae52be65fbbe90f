"""Exception types shared across the package."""


class DegenerateDataError(ValueError):
    """The input data lacks the structure an operation needs (rank, nonzero spectra)."""


class NumericalFailureError(RuntimeError):
    """An iterative solver produced a non-finite or diverging value."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class CubeFormatError(ValueError):
    """A binary cube file violates the format contract.

    ``field`` names the offending header field or payload section and
    ``offset`` is the byte offset where the problem was detected.
    """

    def __init__(self, message: str, field: str | None = None, offset: int | None = None):
        super().__init__(message)
        self.field = field
        self.offset = offset


class LibraryParseError(ValueError):
    """A spectral-library CSV could not be parsed. ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line
