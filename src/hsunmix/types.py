"""Core value types and the algorithm variant names.

All matrix containers are frozen dataclasses that validate their invariants on
construction. They store read-only views of their arrays, so writing through
one raises ``ValueError``; the array a caller passed in keeps its flags.
Pickling and copying go through the constructor, so a copy is checked and
read-only too. Only signatures carry metadata (wavelengths and names), which
the library CSV stores; an image, like the cube format, holds none.

Shape conventions used throughout the package:

* image data      -- (bands L, pixels N), pixels row-major from the top-left
* signatures      -- (bands L, endmembers c), one spectrum per column
* abundances      -- (endmembers c, pixels N), one simplex vector per column
* memberships     -- (clusters C, pixels N)

The pixel network and its layout live in :mod:`hsunmix.regularizers`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional, Sequence

import numpy as np

ASC_TOL = 1e-9   # default tolerance on abundance column sums
# the bytes of one block of every blocked pass, so a block stays in a 2 MiB L2
# cache; chosen by timing the signature step on 24 x 24 to 200 x 200 scenes (BENCH_21.json)
BLOCK_BYTES = 1024 * 1024


def blocks(n: int, unit_bytes: int) -> list[slice]:
    """The one block rule of every blocked pass: consecutive slices of ``range(n)``, each of as
    many units of ``unit_bytes`` as fit in ``BLOCK_BYTES`` (at least one), the last ending at n."""
    step = max(1, BLOCK_BYTES // unit_bytes)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def as_matrix(x, name: str = "array") -> np.ndarray:
    """Coerce ``x`` (ndarray or a wrapper with a ``data`` attribute) to a 2-D float array."""
    if hasattr(x, "data") and isinstance(getattr(x, "data"), np.ndarray):
        x = x.data
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


def read_only(arr: np.ndarray) -> np.ndarray:
    """A view of ``arr`` that refuses writes; ``arr`` itself keeps its flags."""
    view = arr.view()
    view.flags.writeable = False
    return view


def column_sq_norms(x: np.ndarray) -> np.ndarray:
    """The squared Euclidean norm of every column of the 2-D array ``x``."""
    return np.einsum("ij,ij->j", x, x)


def as_integer(value, name: str) -> int:
    """``value`` as an ``int``; numpy integers pass, and anything non-integral raises ``ValueError``."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_q(q: float) -> None:
    """Raise ``ValueError`` unless the sparsity norm exponent q lies in (0, 1]."""
    if not (0 < q <= 1):
        raise ValueError("q must lie in (0, 1]")


def _check_not_empty(data: np.ndarray, what: str) -> None:
    if data.size == 0:
        raise ValueError(f"{what} must not be empty, got shape {data.shape}")


def _check_entries(data: np.ndarray, what: str) -> None:
    _check_not_empty(data, what)
    # the extremes decide both tests without an array-sized mask: a NaN
    # carries through min and max, and an infinity is one of them
    low, high = data.min(), data.max()
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError(f"{what} must be finite")
    if low < 0:
        raise ValueError(f"{what} must be nonnegative")


class _Value:
    """Base of the value types: ``pickle`` and ``copy`` call the constructor on the fields."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class HyperspectralImage(_Value):
    """A reflectance cube flattened to an L x N band-by-pixel matrix.

    Column k of ``data`` holds the spectrum of pixel (k // width, k % width).
    """

    data: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        data = read_only(as_matrix(self.data, "image data"))
        object.__setattr__(self, "data", data)
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be positive")
        if self.width * self.height != self.n_pixels:
            raise ValueError(
                f"width*height = {self.width * self.height} does not match pixel count {self.n_pixels}"
            )
        _check_entries(data, "image entries")

    @property
    def n_bands(self) -> int:
        return self.data.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SignatureMatrix(_Value):
    """Endmember spectra, one per column. Entries are nonnegative reflectance."""

    data: np.ndarray
    wavelengths: Optional[np.ndarray] = None
    names: Optional[Sequence[str]] = None

    def __post_init__(self):
        data = read_only(as_matrix(self.data, "signature data"))
        object.__setattr__(self, "data", data)
        _check_entries(data, "signatures")
        if self.wavelengths is not None:
            wl = read_only(np.asarray(self.wavelengths, dtype=np.float64))
            if wl.shape != (data.shape[0],):
                raise ValueError("wavelengths length must equal the band count")
            if not np.all(np.isfinite(wl)):
                raise ValueError("wavelengths must be finite")
            object.__setattr__(self, "wavelengths", wl)
        if self.names is not None:
            names = tuple(str(n) for n in self.names)
            if len(names) != data.shape[1]:
                raise ValueError("names length must equal the signature count")
            object.__setattr__(self, "names", names)


@dataclass(frozen=True)
class AbundanceMatrix(_Value):
    """Per-pixel abundance vectors; every column lies on the unit simplex.

    Nonnegativity must hold exactly, the column sums within ``ASC_TOL``.
    """

    data: np.ndarray

    def __post_init__(self):
        data = read_only(as_matrix(self.data, "abundance data"))
        object.__setattr__(self, "data", data)
        _check_not_empty(data, "abundances")
        if not validate_abundances(data, ASC_TOL):
            raise ValueError(
                "abundance columns must be nonnegative and sum to 1 within "
                f"{ASC_TOL:g}"
            )


@dataclass(frozen=True)
class ClusterAssignment(_Value):
    """Fuzzy clustering result: hard labels, soft memberships, cluster centers.

    Labels are the column argmax of the membership matrix (ties resolve to the
    lowest cluster index), membership columns sum to 1 within ``ASC_TOL``,
    and the centers, like signatures, are finite and nonnegative.
    """

    labels: np.ndarray
    memberships: np.ndarray
    centers: np.ndarray

    def __post_init__(self):
        with np.errstate(invalid="ignore"):  # a NaN label casts to some integer, and then differs
            labels = read_only(np.asarray(self.labels).astype(np.int64, copy=False))
        if not np.array_equal(labels, self.labels):
            raise ValueError("labels must be integers")
        memberships = read_only(as_matrix(self.memberships, "memberships"))
        centers = read_only(as_matrix(self.centers, "centers"))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "memberships", memberships)
        object.__setattr__(self, "centers", centers)
        _check_not_empty(memberships, "memberships")
        n_clusters, n_pixels = memberships.shape
        if labels.shape != (n_pixels,):
            raise ValueError("labels must have one entry per pixel")
        if centers.shape[1] != n_clusters:
            raise ValueError("centers must have one column per cluster")
        if not validate_abundances(memberships) or memberships.max() > 1:
            raise ValueError(
                f"memberships must be finite, lie in [0, 1] and sum to 1 per column within {ASC_TOL:g}"
            )
        _check_entries(centers, "centers")
        if not np.array_equal(labels, np.argmax(memberships, axis=0)):
            raise ValueError("labels must be the argmax of the membership columns")


class AlgorithmVariant(str, Enum):
    NMF = "nmf"
    LQ_NMF = "lq_nmf"
    DISTRIBUTED = "distributed"
    SPARSE_DISTRIBUTED = "sparse_distributed"
    CLUSTERED_SPARSE_DISTRIBUTED = "clustered_sparse_distributed"
    FCLS = "fcls"


VARIANT_ALIASES = {"proposed": AlgorithmVariant.CLUSTERED_SPARSE_DISTRIBUTED.value}


def resolve_variant(name: str) -> str:
    """Map CLI spellings (including the ``proposed`` alias) to variant names.

    Anything else, a non-string included, raises ``ValueError``.
    """
    if isinstance(name, str):
        name = name.strip()
        name = VARIANT_ALIASES.get(name, name)
    return AlgorithmVariant(name).value


@dataclass(frozen=True)
class UnmixingConfig:
    """Settings of :func:`~hsunmix.unmix.run_unmixing`, every one of them read by it.

    ``sparsity_weight`` overrides the data-driven sparsity weight when set;
    leave it ``None`` to estimate the weight from the image. It is ignored at
    ``q = 1``, where the solver leaves the inert l1 penalty out. The solver
    receives a clustering as an explicit :class:`ClusterAssignment`, so the
    cluster count and the FCM seed are not solver settings. ``variant``
    takes a variant name, a member or the ``proposed`` alias and stores the
    variant's name.
    """

    mu: float = 0.02
    eta: float = 0.1
    q: float = 1.0
    sparsity_weight: Optional[float] = None
    max_iter: int = 1000
    eps: float = 1e-8
    variant: str = AlgorithmVariant.CLUSTERED_SPARSE_DISTRIBUTED.value

    def __post_init__(self):
        if not (self.mu > 0 and np.isfinite(self.mu)):
            raise ValueError("mu must be positive and finite")
        if not (self.eta >= 0 and np.isfinite(self.eta)):
            raise ValueError("eta must be nonnegative and finite")
        check_q(self.q)
        if self.sparsity_weight is not None and not (
            self.sparsity_weight >= 0 and np.isfinite(self.sparsity_weight)
        ):
            raise ValueError("sparsity_weight must be nonnegative and finite")
        object.__setattr__(self, "max_iter", as_integer(self.max_iter, "max_iter"))
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (self.eps > 0 and np.isfinite(self.eps)):
            raise ValueError("eps must be positive and finite")
        object.__setattr__(self, "variant", resolve_variant(self.variant))


def validate_abundances(S, tol: float = ASC_TOL) -> bool:
    """True iff every column of S is nonnegative and sums to 1 within ``tol``.

    Nonnegativity is checked exactly; non-finite entries fail the predicate.
    The result is invariant under column permutation.
    """
    arr = as_matrix(S, "abundances")
    # the extremes decide both tests, as in ``_check_entries``; no entries pass vacuously
    if arr.size and not (np.isfinite(arr.max()) and arr.min() >= 0):
        return False
    return bool(np.all(np.abs(arr.sum(axis=0) - 1.0) <= tol))
