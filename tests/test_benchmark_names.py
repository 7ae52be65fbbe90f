"""The benchmark finds the names it times.

``perfbench/tracing.py`` wraps module globals by name and skips, without a
word, a name the program no longer has: its layer then reads as zero.
``perfbench/replay.py`` imports kernels by name. These checks load both
files without writing anything next to them and fail when a rename leaves a
layer with nothing to time or breaks the replay's imports.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """Execute perfbench/<name>.py as a fresh module, without bytecode files."""
    path = PERFBENCH / f"{name}.py"
    module = type(sys)(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


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
