"""Correctness gate: every repetition's outputs are checked before it counts.

The output files are parsed here, independently of ``hsunmix.fileio``, so a
defect in the program's own readers cannot hide a defect in what it wrote.
Each check returns a list of failure messages (empty when the output is
correct) and a fingerprint that must be identical across the repetitions of
one run, since the program promises bit-identical results for fixed inputs.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

from hsunmix.types import validate_abundances

CUBE_HEADER = struct.Struct("<8sIIIBB")
RUN_COLUMNS = ("variant", "snr_db", "clusters", "run", "rms_sad", "rms_aad", "iterations", "stop_reason")
AGGREGATE_COLUMNS = ("variant", "snr_db", "clusters", "rms_sad", "rms_aad")


def read_cube(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    magic, width, height, bands, _, _ = CUBE_HEADER.unpack_from(raw)
    if magic != b"HSCUBE01":
        raise ValueError(f"{path.name}: bad magic {magic!r}")
    payload = raw[CUBE_HEADER.size:]
    if len(payload) != width * height * bands * 8:
        raise ValueError(f"{path.name}: payload has {len(payload)} bytes")
    return np.frombuffer(payload, dtype="<f8").reshape(bands, width * height)


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh) if row]


def check_unmix(out: Path, rc: int, shape: tuple[int, int, int], max_iter: int):
    """Check one ``hsunmix unmix`` run; shape is (bands, endmembers, pixels).

    Returns (failures, fingerprint, (rms_sad, rms_aad)).
    """
    bands, endmembers, pixels = shape
    if rc != 0:
        return [f"unmix exited with code {rc}"], None, None
    failures = []
    try:
        S = read_cube(out / "S_est.cube")
        if S.shape != (endmembers, pixels) or not validate_abundances(S):
            failures.append("S_est.cube: columns off the unit simplex or wrong shape")
        rows = read_csv(out / "A_est.csv")
        A = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        if A.shape != (bands, endmembers) or not np.all(np.isfinite(A)) or np.any(A < 0):
            failures.append("A_est.csv: not a finite nonnegative bands x endmembers matrix")
        report = json.loads((out / "report.json").read_text())
        trace = report["cost_trace"]
        if not (1 <= len(trace) <= max_iter) or not all(math.isfinite(v) for v in trace):
            failures.append(f"report.json: cost trace of {len(trace)} entries, or non-finite")
        scores = (report["rms_sad"], report["rms_aad"])
        if not all(isinstance(v, float) and math.isfinite(v) for v in scores):
            failures.append("report.json: rms_sad / rms_aad missing or non-finite")
            scores = None
    except (OSError, ValueError, KeyError, IndexError, struct.error) as exc:
        return failures + [f"unreadable output: {exc}"], None, None
    return failures, (scores, tuple(trace)), scores


def check_sweep(out: Path, rc: int, variants, snr_levels, clusters: int, runs: int, max_iter: int):
    """Check one ``hsunmix experiment`` run against the pinned CSV schemas.

    Returns (failures, fingerprint, (mean rms_sad, mean rms_aad)).
    """
    if rc != 0:
        return [f"experiment exited with code {rc}"], None, None
    failures = []
    try:
        runs_rows = read_csv(out / "runs.csv")
        agg_rows = read_csv(out / "aggregate.csv")
        if tuple(runs_rows[0]) != RUN_COLUMNS:
            failures.append(f"runs.csv: header {runs_rows[0]}")
        if tuple(agg_rows[0]) != AGGREGATE_COLUMNS:
            failures.append(f"aggregate.csv: header {agg_rows[0]}")
        expected = [(v, float(s), clusters, r) for v in variants for s in snr_levels for r in range(runs)]
        got = [(row[0], float(row[1]), int(row[2]), int(row[3])) for row in runs_rows[1:]]
        if got != expected:
            failures.append("runs.csv: rows missing or out of cell order")
        expected_agg = [(v, float(s), clusters) for v in variants for s in snr_levels]
        if [(row[0], float(row[1]), int(row[2])) for row in agg_rows[1:]] != expected_agg:
            failures.append("aggregate.csv: rows missing or out of cell order")
        sads = [float(row[4]) for row in runs_rows[1:]]
        aads = [float(row[5]) for row in runs_rows[1:]]
        if not all(math.isfinite(v) for v in sads + aads):
            failures.append("runs.csv: non-finite scores")
        if not all(1 <= int(row[6]) <= max_iter for row in runs_rows[1:]):
            failures.append("runs.csv: iteration count outside [1, max_iter]")
        fingerprint = ((out / "runs.csv").read_bytes(), (out / "aggregate.csv").read_bytes())
    except (OSError, ValueError, IndexError) as exc:
        return failures + [f"unreadable output: {exc}"], None, None
    return failures, fingerprint, (float(np.mean(sads)), float(np.mean(aads)))
