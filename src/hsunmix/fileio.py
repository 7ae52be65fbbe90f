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
from dataclasses import asdict
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import CubeFormatError, LibraryParseError
from .types import HyperspectralImage, SignatureMatrix, UnmixingConfig

MAGIC = b"HSCUBE01"
DTYPE_FLOAT64_LE = 1
INTERLEAVE_BAND_SEQUENTIAL = 1
_HEADER = struct.Struct("<8sIIIBB")


def write_cube(path, image: HyperspectralImage) -> None:
    """Write an image as a binary cube. Wavelength metadata is not stored."""
    payload = np.ascontiguousarray(image.data, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, image.width, image.height, image.n_bands,
                              DTYPE_FLOAT64_LE, INTERLEAVE_BAND_SEQUENTIAL))
        fh.write(payload)


def read_cube(path) -> HyperspectralImage:
    """Read a binary cube written by :func:`write_cube`.

    Malformed files raise :class:`CubeFormatError` naming the offending
    field and byte offset; a payload shorter or longer than the header
    declares is reported with the expected and actual sizes.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise CubeFormatError(
                f"truncated header: expected {_HEADER.size} bytes, got {len(raw)}",
                field="header",
                offset=len(raw),
            )
        magic, width, height, bands, dtype, interleave = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise CubeFormatError(
                f"bad magic {magic!r} at offset 0 (expected {MAGIC!r})",
                field="magic",
                offset=0,
            )
        if width < 1:
            raise CubeFormatError("width must be positive (offset 8)", field="width", offset=8)
        if height < 1:
            raise CubeFormatError("height must be positive (offset 12)", field="height", offset=12)
        if bands < 1:
            raise CubeFormatError("bands must be positive (offset 16)", field="bands", offset=16)
        if dtype != DTYPE_FLOAT64_LE:
            raise CubeFormatError(
                f"unsupported dtype code {dtype} at offset 20", field="dtype", offset=20
            )
        if interleave != INTERLEAVE_BAND_SEQUENTIAL:
            raise CubeFormatError(
                f"unsupported interleave code {interleave} at offset 21",
                field="interleave",
                offset=21,
            )
        expected = width * height * bands * 8
        payload = fh.read()
    if len(payload) != expected:
        kind = "truncated" if len(payload) < expected else "oversized"
        raise CubeFormatError(
            f"{kind} payload: expected {expected} bytes, got {len(payload)} "
            f"(payload starts at offset {_HEADER.size})",
            field="payload",
            offset=_HEADER.size + min(len(payload), expected),
        )
    data = np.frombuffer(payload, dtype="<f8").reshape(bands, width * height)
    return HyperspectralImage(data.astype(np.float64), width, height)


def read_spectral_library(path) -> SignatureMatrix:
    """Read a spectral library CSV: header ``wavelength,name1,...``, one row per band."""
    path = Path(path)
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LibraryParseError("empty library file", line=1) from None
        if len(header) < 2 or header[0].strip() != "wavelength":
            raise LibraryParseError(
                "header must be 'wavelength,<name>[,<name>...]'", line=1
            )
        names = [h.strip() for h in header[1:]]
        wavelengths = []
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise LibraryParseError(
                    f"expected {len(header)} fields, got {len(row)}", line=lineno
                )
            try:
                values = [float(x) for x in row]
            except ValueError as exc:
                raise LibraryParseError(f"non-numeric value: {exc}", line=lineno) from None
            if not all(map(math.isfinite, values)):
                raise LibraryParseError("wavelength and reflectance must be finite", line=lineno)
            if min(values[1:]) < 0:
                raise LibraryParseError("reflectance must be nonnegative", line=lineno)
            wavelengths.append(values[0])
            rows.append(values[1:])
    if not rows:
        raise LibraryParseError("library has no data rows", line=2)
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


def write_report(path, report, cost_trace: Sequence[float], config) -> None:
    """Write an evaluation report as JSON with a fixed key order.

    Keys: config, per_endmember_sad, rms_sad, rms_aad, matching, cost_trace.
    ``report`` may be ``None`` (for runs without ground truth), in which case
    the metric fields are null. Floats are emitted with 17 significant
    digits, so parsing the file recovers them exactly and identical runs
    produce byte-identical files.
    """
    if isinstance(config, UnmixingConfig):
        config = asdict(config)
    elif not isinstance(config, Mapping):
        raise ValueError("config must be an UnmixingConfig or a mapping")
    doc = {
        "config": dict(config),
        "per_endmember_sad": None if report is None else list(report.per_endmember_sad),
        "rms_sad": None if report is None else report.rms_sad,
        "rms_aad": None if report is None else report.rms_aad,
        "matching": None if report is None else [int(i) for i in report.matching],
        "cost_trace": list(cost_trace),
    }
    text = _to_json(doc)
    with open(path, "w", newline="") as fh:
        fh.write(text)
        fh.write("\n")


def _to_json(value) -> str:
    """JSON serialization with floats at 17 significant digits."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not np.isfinite(value):
            raise ValueError("reports cannot contain non-finite numbers")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in value) + "]"
    if isinstance(value, Mapping):
        parts = (f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in value.items())
        return "{" + ", ".join(parts) + "}"
    raise ValueError(f"cannot serialize {type(value).__name__}")
