"""Core value types and the algorithm variant names.

All matrix containers are frozen dataclasses that validate their invariants on
construction. The stored arrays should be treated as read-only; operations
never mutate them in place.

Shape conventions used throughout the package:

* image data      -- (bands L, pixels N), pixels row-major from the top-left
* signatures      -- (bands L, endmembers c), one spectrum per column
* abundances      -- (endmembers c, pixels N), one simplex vector per column
* memberships     -- (clusters C, pixels N)

The pixel graph, an N x N scipy CSR matrix whose row k holds pixel k's
neighbors, lives in :mod:`hsunmix.regularizers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

ASC_TOL = 1e-9   # default tolerance on abundance column sums


def as_matrix(x, name: str = "array") -> np.ndarray:
    """Coerce ``x`` (ndarray or a wrapper with a ``data`` attribute) to a 2-D float array."""
    if hasattr(x, "data") and isinstance(getattr(x, "data"), np.ndarray):
        x = x.data
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class HyperspectralImage:
    """A reflectance cube flattened to an L x N band-by-pixel matrix.

    Column k of ``data`` holds the spectrum of pixel (k // width, k % width).
    """

    data: np.ndarray
    width: int
    height: int
    wavelengths: Optional[np.ndarray] = None

    def __post_init__(self):
        data = as_matrix(self.data, "image data")
        object.__setattr__(self, "data", data)
        n_bands, n_pixels = data.shape
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be positive")
        if self.width * self.height != n_pixels:
            raise ValueError(
                f"width*height = {self.width * self.height} does not match pixel count {n_pixels}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("image entries must be finite")
        if np.any(data < 0):
            raise ValueError("image entries must be nonnegative")
        if self.wavelengths is not None:
            wl = np.asarray(self.wavelengths, dtype=np.float64)
            if wl.shape != (n_bands,):
                raise ValueError(f"wavelengths must have shape ({n_bands},), got {wl.shape}")
            object.__setattr__(self, "wavelengths", wl)

    @property
    def n_bands(self) -> int:
        return self.data.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SignatureMatrix:
    """Endmember spectra, one per column. Entries are nonnegative reflectance."""

    data: np.ndarray
    wavelengths: Optional[np.ndarray] = None
    names: Optional[Sequence[str]] = None

    def __post_init__(self):
        data = as_matrix(self.data, "signature data")
        object.__setattr__(self, "data", data)
        if not np.all(np.isfinite(data)):
            raise ValueError("signatures must be finite")
        if np.any(data < 0):
            raise ValueError("signatures must be nonnegative")
        if self.wavelengths is not None:
            wl = np.asarray(self.wavelengths, dtype=np.float64)
            if wl.shape != (data.shape[0],):
                raise ValueError("wavelengths length must equal the band count")
            object.__setattr__(self, "wavelengths", wl)
        if self.names is not None:
            names = tuple(str(n) for n in self.names)
            if len(names) != data.shape[1]:
                raise ValueError("names length must equal the signature count")
            object.__setattr__(self, "names", names)

    @property
    def n_bands(self) -> int:
        return self.data.shape[0]

    @property
    def n_signatures(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class AbundanceMatrix:
    """Per-pixel abundance vectors; every column lies on the unit simplex.

    Nonnegativity must hold exactly, the column sums within ``ASC_TOL``.
    """

    data: np.ndarray

    def __post_init__(self):
        data = as_matrix(self.data, "abundance data")
        object.__setattr__(self, "data", data)
        if not validate_abundances(data, ASC_TOL):
            raise ValueError(
                "abundance columns must be nonnegative and sum to 1 within "
                f"{ASC_TOL:g}"
            )

    @property
    def n_endmembers(self) -> int:
        return self.data.shape[0]

    @property
    def n_pixels(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ClusterAssignment:
    """Fuzzy clustering result: hard labels, soft memberships, cluster centers.

    Labels are the column argmax of the membership matrix (ties resolve to the
    lowest cluster index), membership columns sum to 1.
    """

    labels: np.ndarray
    memberships: np.ndarray
    centers: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        memberships = as_matrix(self.memberships, "memberships")
        centers = as_matrix(self.centers, "centers")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "memberships", memberships)
        object.__setattr__(self, "centers", centers)
        n_clusters, n_pixels = memberships.shape
        if labels.shape != (n_pixels,):
            raise ValueError("labels must have one entry per pixel")
        if centers.shape[1] != n_clusters:
            raise ValueError("centers must have one column per cluster")
        if np.any(memberships < 0) or np.any(memberships > 1):
            raise ValueError("memberships must lie in [0, 1]")
        if np.any(np.abs(memberships.sum(axis=0) - 1.0) > ASC_TOL):
            raise ValueError("membership columns must sum to 1")
        if not np.array_equal(labels, np.argmax(memberships, axis=0)):
            raise ValueError("labels must be the argmax of the membership columns")

    @property
    def n_clusters(self) -> int:
        return self.memberships.shape[0]


class AlgorithmVariant(str, Enum):
    NMF = "nmf"
    LQ_NMF = "lq_nmf"
    DISTRIBUTED = "distributed"
    SPARSE_DISTRIBUTED = "sparse_distributed"
    CLUSTERED_SPARSE_DISTRIBUTED = "clustered_sparse_distributed"
    FCLS = "fcls"


VARIANT_ALIASES = {"proposed": AlgorithmVariant.CLUSTERED_SPARSE_DISTRIBUTED.value}


def resolve_variant(name: str) -> str:
    """Map CLI spellings (including the ``proposed`` alias) to variant names."""
    name = name.strip()
    name = VARIANT_ALIASES.get(name, name)
    return AlgorithmVariant(name).value


@dataclass(frozen=True)
class UnmixingConfig:
    """Solver settings shared by every algorithm variant.

    ``sparsity_weight`` overrides the data-driven sparsity weight when set;
    leave it ``None`` to estimate the weight from the image. ``clusters`` is
    the cluster count handed to the fuzzy clustering step by the CLI; the
    solver itself receives an explicit :class:`ClusterAssignment`.
    """

    mu: float = 0.02
    eta: float = 0.1
    q: float = 1.0
    sparsity_weight: Optional[float] = None
    max_iter: int = 1000
    eps: float = 1e-8
    clusters: int = 6
    seed: int = 0
    variant: str = AlgorithmVariant.CLUSTERED_SPARSE_DISTRIBUTED.value

    def __post_init__(self):
        if not (self.mu > 0 and np.isfinite(self.mu)):
            raise ValueError("mu must be positive and finite")
        if not (self.eta >= 0 and np.isfinite(self.eta)):
            raise ValueError("eta must be nonnegative and finite")
        if not (0 < self.q <= 1):
            raise ValueError("q must lie in (0, 1]")
        if self.sparsity_weight is not None and not (
            self.sparsity_weight >= 0 and np.isfinite(self.sparsity_weight)
        ):
            raise ValueError("sparsity_weight must be nonnegative and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (self.eps > 0):
            raise ValueError("eps must be positive")
        if self.clusters < 1:
            raise ValueError("clusters must be at least 1")
        object.__setattr__(self, "variant", AlgorithmVariant(self.variant).value)


def validate_abundances(S, tol: float = ASC_TOL) -> bool:
    """True iff every column of S is nonnegative and sums to 1 within ``tol``.

    Nonnegativity is checked exactly; non-finite entries fail the predicate.
    The result is invariant under column permutation.
    """
    arr = as_matrix(S, "abundances")
    if not np.all(np.isfinite(arr)):
        return False
    if np.any(arr < 0):
        return False
    return bool(np.all(np.abs(arr.sum(axis=0) - 1.0) <= tol))
