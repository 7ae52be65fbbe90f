"""``scripts/generate_library.py`` reproduces the bundled spectral library."""

import sys
import time
from pathlib import Path

from script_loader import load_script

ROOT = Path(__file__).resolve().parent.parent


def test_seed_zero_passes_the_checks_and_matches_the_bundled_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ on the path
    script = load_script(ROOT / "scripts" / "generate_library.py", "generate_library")
    start = time.perf_counter()
    matrix = script.build_candidate(0)
    issues = script.check(matrix)[0]
    names = [f"m{i + 1:02d}" for i in range(script.N_SPECTRA)]
    script.write_spectral_library(tmp_path / "library.csv", script.SignatureMatrix(matrix, script.WAVELENGTHS, names))
    elapsed = time.perf_counter() - start
    assert issues == []
    assert (tmp_path / "library.csv").read_bytes() == (ROOT / "src" / "hsunmix" / "data" / "library.csv").read_bytes()
    assert elapsed < 10.0
