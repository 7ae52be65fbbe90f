"""Regenerate the bundled spectral library.

Builds 8 synthetic reflectance spectra on 224 bands spanning 0.4-2.5 um.
Each spectrum starts as a smooth continuum topped by one broad raised-cosine
reflectance hill in its own spectral window and carved by one or two Gaussian
absorption features; the columns are then mixed with their common average so
the library shares a strong common background, the way reflectance spectra of
related materials are strongly correlated in practice. The result is a
coherent library: pairwise spectral angles sit in the realistic 0.3-0.5 rad
range instead of the near-orthogonal regime that synthetic dictionaries tend
to produce.

The design balances four solver-facing properties, checked explicitly below:

  * Realistic coherence: the shared background dominates every spectrum, so
    separating the materials genuinely requires the abundance priors -- the
    regime the cooperative solvers are built for. Pairwise angles stay well
    above the 0.05 rad floor that the library contract guarantees.
  * Step stability: the top eigenvalue of the full Gram matrix stays below
    95, keeping the default gradient abundance step (0.02) inside its stable
    range along every direction.
  * Identifiability floor: the smallest eigenvalue of every 6-column Gram
    matrix stays above 0.7. Weaker subsets would let the neighborhood and
    sparsity terms push the factorization along nearly data-flat directions,
    inflating the bias floor of the regularized solvers.
  * Small data-estimated sparsity weight: the shared background gives every
    band a solid baseline across all pixels, so scenes mixed from this
    library report a small sparsity weight. At exponent q = 1 the weight
    does not move the iterates: the l1 gradient is all ones on the simplex,
    a uniform shift that the simplex projection cancels. Below q = 1 (the
    lq_nmf default is 0.5) the step is no uniform shift and grows near zero
    abundances, so a large weight would push mass off small entries every
    iteration and bias the recovered signatures.

The seed is scanned until the library satisfies the documented guarantees:

  * every entry in (0, 1),
  * every pairwise spectral angle above 0.05 rad (the scan insists on 0.30),
  * top eigenvalue of the full Gram matrix below 95 (step stability),
  * smallest eigenvalue of every 6-column Gram above 0.7,
  * estimated sparsity weight of a probe scene below 1.3.

Run from the repository root: python3 scripts/generate_library.py
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hsunmix.fileio import write_spectral_library  # noqa: E402
from hsunmix.metrics import sad  # noqa: E402
from hsunmix.regularizers import estimate_sparsity_weight  # noqa: E402
from hsunmix.synth import generate_synthetic  # noqa: E402
from hsunmix.types import SignatureMatrix  # noqa: E402

N_BANDS = 224
N_SPECTRA = 8
WAVELENGTHS = np.linspace(0.4, 2.5, N_BANDS)
MIN_PAIR_SAD = 0.30
MAX_TOP_EIG = 95.0
MIN_SUBSET_EIG = 0.7
MAX_SPARSITY_WEIGHT = 1.3
PEAK = 0.95
GLOBAL_SCALE = 0.85  # angles and SNR are scale invariant; keeps the top Gram
# eigenvalue inside the stable range of the default gradient step
SHARE = 0.64  # fraction of the common average mixed into every column; sets
# the coherence of the library (higher -> smaller pairwise angles)


def continuum(rng: np.random.Generator) -> np.ndarray:
    """A smooth baseline near 0.2 with a gentle spectrum-specific shape."""
    x = np.linspace(0.0, 1.0, N_BANDS)
    level = rng.uniform(0.17, 0.21)
    tilt = rng.uniform(-0.04, 0.04)
    bow = rng.uniform(-0.03, 0.03)
    return level + tilt * (x - 0.5) + bow * np.cos(np.pi * x)


def hill(n: int, rng: np.random.Generator) -> np.ndarray:
    """A smooth unit-height reflectance hill: raised-cosine ramps and plateau."""
    ramp = max(2, int(round(n * rng.uniform(0.10, 0.16))))
    plateau = n - 2 * ramp
    up = 0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi, ramp))
    profile = np.concatenate([up, np.ones(max(plateau, 0)), up[::-1]])[:n]
    tilt = rng.uniform(-0.06, 0.06)
    return profile * (1.0 + tilt * np.linspace(-1.0, 1.0, n))


def absorption(n: int, rng: np.random.Generator) -> np.ndarray:
    """Multiplicative transmission of one or two Gaussian absorption bands."""
    trans = np.ones(n)
    for _ in range(rng.integers(1, 3)):
        center = rng.uniform(0.2, 0.8) * n
        width = rng.uniform(0.02, 0.05) * n
        depth = rng.uniform(0.10, 0.25)
        trans *= 1.0 - depth * np.exp(-0.5 * ((np.arange(n) - center) / width) ** 2)
    return trans


def build_candidate(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    edges = np.linspace(0, N_BANDS, N_SPECTRA + 1).astype(int)
    spectra = []
    for i in range(N_SPECTRA):
        s = continuum(rng)
        lo, hi = edges[i], edges[i + 1]
        amp = rng.uniform(0.68, 0.74)
        s[lo:hi] += amp * hill(hi - lo, rng)
        s[lo:hi] *= absorption(hi - lo, rng)
        spectra.append(s)
    matrix = np.stack(spectra, axis=1) * GLOBAL_SCALE
    matrix = (1.0 - SHARE) * matrix + SHARE * matrix.mean(axis=1, keepdims=True)
    order = rng.permutation(N_SPECTRA)
    return np.clip(matrix[:, order], 0.005, PEAK)


def check(matrix: np.ndarray):
    import itertools

    issues = []
    if matrix.min() <= 0.0 or matrix.max() >= 1.0:
        issues.append(f"entries outside (0,1): [{matrix.min():.4f}, {matrix.max():.4f}]")
    min_angle = np.inf
    for i in range(N_SPECTRA):
        for j in range(i + 1, N_SPECTRA):
            min_angle = min(min_angle, sad(matrix[:, i], matrix[:, j]))
    if min_angle <= MIN_PAIR_SAD:
        issues.append(f"min pairwise angle {min_angle:.4f} <= {MIN_PAIR_SAD}")
    top = float(np.linalg.eigvalsh(matrix.T @ matrix)[-1])
    if top >= MAX_TOP_EIG:
        issues.append(f"top Gram eigenvalue {top:.2f} >= {MAX_TOP_EIG}")
    low = np.inf
    for subset in itertools.combinations(range(N_SPECTRA), 6):
        sub = matrix[:, subset]
        low = min(low, float(np.linalg.eigvalsh(sub.T @ sub)[0]))
    if low <= MIN_SUBSET_EIG:
        issues.append(f"worst 6-column Gram eigenvalue {low:.3f} <= {MIN_SUBSET_EIG}")
    probe = generate_synthetic(
        SignatureMatrix(matrix, WAVELENGTHS), 6, snr_db=25.0, seed=0
    )
    weight = estimate_sparsity_weight(probe.Y)
    if weight >= MAX_SPARSITY_WEIGHT:
        issues.append(f"probe-scene sparsity weight {weight:.3f} >= {MAX_SPARSITY_WEIGHT}")
    return issues, min_angle, top, low, weight


def main() -> int:
    out = Path(__file__).resolve().parents[1] / "src" / "hsunmix" / "data" / "library.csv"
    for seed in range(1000):
        matrix = build_candidate(seed)
        issues, min_angle, top, low, weight = check(matrix)
        if not issues:
            out.parent.mkdir(parents=True, exist_ok=True)
            names = [f"m{i + 1:02d}" for i in range(N_SPECTRA)]
            write_spectral_library(out, SignatureMatrix(matrix, WAVELENGTHS, names))
            print(f"seed {seed}: wrote {out}")
            print(f"  mean reflectance {matrix.mean():.4f}")
            print(f"  min pairwise angle {min_angle:.4f} rad")
            print(f"  top Gram eigenvalue {top:.2f}")
            print(f"  worst 6-column Gram eigenvalue {low:.3f}")
            print(f"  probe-scene sparsity weight {weight:.3f}")
            return 0
        print(f"seed {seed}: rejected ({'; '.join(issues)})")
    print("no seed satisfied the constraints", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
