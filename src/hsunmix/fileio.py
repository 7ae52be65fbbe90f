"""Bit-exact file formats: binary cubes, spectral-library CSVs, JSON reports.

The cube format is deliberately small:

    offset  size  field
    0       8     magic  b"HSCUBE01"
    8       4     width  (u32, little endian)
    12      4     height (u32, little endian)
    16      4     bands  (u32, little endian)
    20      1     dtype      (1 = float64 little endian)
    21      1     interleave (1 = band sequential)
    22      -     payload: bands planes, each row-major over pixels

Writing then reading a cube reproduces the payload bytes exactly.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from typing import Mapping, Sequence

import numpy as np

from .errors import CubeFormatError, LibraryParseError
from .types import HyperspectralImage, SignatureMatrix

MAGIC = b"HSCUBE01"
DTYPE_FLOAT64_LE = 1
INTERLEAVE_BAND_SEQUENTIAL = 1
_HEADER = struct.Struct("<8sIIIBB")


def write_cube(path, image: HyperspectralImage) -> None:
    """Write an image as a binary cube."""
    payload = np.ascontiguousarray(image.data, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, image.width, image.height, image.n_bands,
                              DTYPE_FLOAT64_LE, INTERLEAVE_BAND_SEQUENTIAL))
        fh.write(payload)


def read_cube(path) -> HyperspectralImage:
    """Read a binary cube written by :func:`write_cube`.

    A malformed file raises :class:`CubeFormatError` whose message starts
    with ``path`` and gives the byte offset of the fault; a payload shorter or
    longer than the header declares is reported with the expected and actual
    sizes; a payload that is not a valid image (a NaN, infinite or negative
    entry) is reported with the image's own message after ``path``.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise CubeFormatError(
                f"{path}: truncated header: expected {_HEADER.size} bytes, got {len(raw)}"
            )
        magic, width, height, bands, dtype, interleave = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise CubeFormatError(f"{path}: bad magic {magic!r} at offset 0 (expected {MAGIC!r})")
        if width < 1:
            raise CubeFormatError(f"{path}: width must be positive (offset 8)")
        if height < 1:
            raise CubeFormatError(f"{path}: height must be positive (offset 12)")
        if bands < 1:
            raise CubeFormatError(f"{path}: bands must be positive (offset 16)")
        if dtype != DTYPE_FLOAT64_LE:
            raise CubeFormatError(f"{path}: unsupported dtype code {dtype} at offset 20")
        if interleave != INTERLEAVE_BAND_SEQUENTIAL:
            raise CubeFormatError(f"{path}: unsupported interleave code {interleave} at offset 21")
        expected = width * height * bands * 8
        payload = fh.read()
    if len(payload) != expected:
        kind = "truncated" if len(payload) < expected else "oversized"
        raise CubeFormatError(
            f"{path}: {kind} payload: expected {expected} bytes, got {len(payload)} "
            f"(payload starts at offset {_HEADER.size})"
        )
    # a view of the payload: the image copies it only to swap a non-native byte order
    data = np.frombuffer(payload, dtype="<f8").reshape(bands, width * height)
    try:
        return HyperspectralImage(data, width, height)
    except ValueError as exc:
        raise CubeFormatError(f"{path}: {exc}") from None


def read_spectral_library(path) -> SignatureMatrix:
    """Read a spectral library CSV: header ``wavelength,name1,...``, one row per band.

    A malformed file raises :class:`LibraryParseError` whose message starts
    with ``path`` and the 1-based line at fault.
    """

    def error(line: int, message: str) -> LibraryParseError:
        return LibraryParseError(f"{path}, line {line}: {message}")

    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise error(1, "empty library file") from None
        if len(header) < 2 or header[0].strip() != "wavelength":
            raise error(1, "header must be 'wavelength,<name>[,<name>...]'")
        names = [h.strip() for h in header[1:]]
        wavelengths = []
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise error(lineno, f"expected {len(header)} fields, got {len(row)}")
            try:
                values = [float(x) for x in row]
            except ValueError as exc:
                raise error(lineno, f"non-numeric value: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise error(lineno, "wavelength and reflectance must be finite")
            if min(values[1:]) < 0:
                raise error(lineno, "reflectance must be nonnegative")
            wavelengths.append(values[0])
            rows.append(values[1:])
    if not rows:
        raise error(2, "library has no data rows")
    data = np.asarray(rows, dtype=np.float64)
    return SignatureMatrix(data, wavelengths=np.asarray(wavelengths), names=names)


def write_spectral_library(path, signatures: SignatureMatrix) -> None:
    """Write signatures in the library CSV format read by :func:`read_spectral_library`."""
    data = signatures.data
    n_bands, n_sigs = data.shape
    wavelengths = signatures.wavelengths
    if wavelengths is None:
        wavelengths = np.arange(n_bands, dtype=np.float64)
    names = signatures.names
    if names is None:
        names = [f"m{j + 1:02d}" for j in range(n_sigs)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wavelength", *names])
        for i in range(n_bands):
            writer.writerow([repr(float(wavelengths[i]))] + [repr(float(v)) for v in data[i]])


def write_report(path, report, cost_trace: Sequence[float], config: Mapping) -> None:
    """Write an evaluation report as JSON with a fixed key order.

    Keys: config, per_endmember_sad, rms_sad, rms_aad, matching, cost_trace.
    ``config`` is a mapping: ``hsunmix unmix`` passes the solver settings
    plus its ``clusters`` and ``seed``, ``hsunmix eval`` an empty one (and no
    cost trace). ``report`` is ``None`` for runs without ground truth, whose
    metric fields are null. Floats are written as their shortest round-trip
    repr, so parsing recovers them exactly, as floats, and identical runs
    give byte-identical files. Non-finite numbers raise ``ValueError``.
    """
    doc = {
        "config": dict(config),
        "per_endmember_sad": None if report is None else list(report.per_endmember_sad),
        "rms_sad": None if report is None else report.rms_sad,
        "rms_aad": None if report is None else report.rms_aad,
        "matching": None if report is None else list(report.matching),
        "cost_trace": list(cost_trace),
    }
    text = json.dumps(doc, allow_nan=False)  # encoded first: a failure leaves no file
    with open(path, "w", newline="") as fh:
        fh.write(text)
        fh.write("\n")
