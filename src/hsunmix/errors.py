"""Exception types shared across the package.

Where an input file is at fault, the message says where: a cube error starts
with the file's path, a library error with its path and 1-based line.
"""


class DegenerateDataError(ValueError):
    """The input data lacks the structure an operation needs (rank, nonzero spectra)."""


class NumericalFailureError(RuntimeError):
    """An iterative solver produced a non-finite or diverging value."""


class CubeFormatError(ValueError):
    """A binary cube file violates the format contract."""


class LibraryParseError(ValueError):
    """A spectral-library CSV could not be parsed."""
