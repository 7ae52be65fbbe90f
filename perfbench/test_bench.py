"""The benchmark's own test: smoke runs emit every metric, and the gate bites.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_bench.py
"""

import json

import numpy as np
import pytest

import run  # perfbench/run.py; importing it puts src/ on sys.path
import hsunmix.cli

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(capsys, workload, trace, seconds=0.1):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", str(seconds),
                     "--trace", str(trace), "--smoke"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric(capsys, workload, trace):
    result = _bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(result["metrics"][m["name"]]["value"])


def _corrupting(monkeypatch, corrupt):
    """Make every program call write a damaged output after it succeeds."""
    real_main = hsunmix.cli.main

    def main(argv):
        rc = real_main(argv)
        if argv[0] in ("unmix", "experiment"):
            corrupt(run.Path(argv[argv.index("--out") + 1]))
        return rc

    monkeypatch.setattr(hsunmix.cli, "main", main)


def _negate_first_abundance(out):
    path = out / "S_est.cube"
    raw = bytearray(path.read_bytes())
    value = np.frombuffer(raw, dtype="<f8", count=1, offset=22)[0]
    raw[22:30] = np.array([-abs(value) - 0.5], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))


def _swap_first_two_runs(out):
    path = out / "runs.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("".join(lines))


@pytest.mark.parametrize("workload, corrupt", [
    ("scene40", _negate_first_abundance),
    ("sweep40", _swap_first_two_runs),
])
def test_corrupted_output_fails_the_run(capsys, monkeypatch, workload, corrupt):
    _corrupting(monkeypatch, corrupt)
    result = _bench(capsys, workload, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_nondeterministic_output_fails_the_run(capsys, monkeypatch):
    calls = []

    def perturb_second_run(out):
        calls.append(out)
        if len(calls) == 2:
            path = out / "report.json"
            report = json.loads(path.read_text())
            report["cost_trace"][-1] *= 1.0 + 1e-15
            path.write_text(json.dumps(report))

    _corrupting(monkeypatch, perturb_second_run)
    result = _bench(capsys, "scene40", 0, seconds=8.0)
    assert result["attempted"] >= 2 and result["failed"] == 1
