"""The benchmark finds the names it times.

``perfbench/tracing.py`` wraps module globals by name and skips, without a
word, a name the program no longer has: its layer then reads as zero.
``perfbench/replay.py`` imports kernels by name. These checks load both
files without writing anything next to them and fail when a rename leaves a
layer with nothing to time or breaks the replay's imports, or when the work
an experiment's cells share moves out of the cell spans that count it.
"""

import importlib
from pathlib import Path

import pytest
from script_loader import load_script

from hsunmix.experiment import ExperimentSpec, run_experiment
from hsunmix.synth import bundled_library

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """Execute perfbench/<name>.py as a fresh module, without bytecode files."""
    return load_script(PERFBENCH / f"{name}.py", f"perfbench_{name}")


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


def stage_tables(tracing):
    """Every ``<MODULE>_STAGES`` table with the hsunmix module it wraps."""
    return {
        table: importlib.import_module("hsunmix." + table[: -len("_STAGES")].lower())
        for table in vars(tracing)
        if table.endswith("_STAGES")
    }


def test_the_tracer_wraps_the_four_modules_of_its_docstring(tracing):
    modules = {module.__name__ for module in stage_tables(tracing).values()}
    assert modules == {"hsunmix.cli", "hsunmix.experiment", "hsunmix.initialize", "hsunmix.unmix"}


def test_every_traced_layer_has_a_name_that_resolves(tracing):
    resolved = {}
    for table, module in stage_tables(tracing).items():
        for attr, layer in getattr(tracing, table).items():
            found = getattr(module, attr, None) is not None
            resolved[layer] = resolved.get(layer, False) or found
    missing = sorted(layer for layer, found in resolved.items() if not found)
    assert not missing, f"no wrapped name resolves for layers {missing}"


def test_replay_imports_resolve():
    replay = load("replay")
    assert callable(replay.replay_kernels)


@pytest.mark.parametrize("jobs", [1, 2])
def test_shared_experiment_work_is_counted_inside_cells(tracing, tmp_path, jobs):
    spec = ExperimentSpec(
        variants=("proposed", "nmf"), snr_levels=(20, 30), cluster_counts=(2,), runs=2,
        width=8, height=8, endmembers=3, patch=4, filter_size=3, max_iter=3, fcm_max_iter=10,
    )
    tracer = tracing.Tracer(tmp_path / "trace")
    tracer.start()
    try:
        run_experiment(spec, bundled_library().data, jobs=jobs)
    finally:
        tracer.stop()
    spans = tracer.collect()
    cells = {span["id"] for span in spans if span["name"] == "experiment.cell"}
    assert len(cells) == spec.n_cells
    groups = len(spec.snr_levels) * spec.runs
    for name, calls in (("synth.generate", groups), ("initialize.vca", groups),
                        ("initialize.fcls", groups), ("clustering.fcm", groups)):
        named = [span for span in spans if span["name"] == name]
        assert len(named) == calls, name
        assert all(span["parent"] in cells for span in named), name
