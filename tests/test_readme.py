"""The README's quick start runs as written, with or without SciPy installed, and prints the
summary it shows, and its spec-key table names every experiment spec field."""

import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import hsunmix.cli
from hsunmix.cli import main
from hsunmix.experiment import ExperimentSpec

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    """The commands of the quick-start ``sh`` block and the output block after it."""
    section = README.read_text().split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```(\w*)\n(.*?)```", section, flags=re.S)
    (lang, commands), (_, output) = blocks[:2]
    assert lang == "sh"
    return [shlex.split(line) for line in commands.replace("\\\n", " ").splitlines()], output.strip()


def test_quick_start_prints_the_documented_summary(tmp_path, monkeypatch, capsys):
    commands, expected = quick_start()
    assert [argv[:2] for argv in commands] == [["hsunmix", "synth"], ["hsunmix", "unmix"]]
    monkeypatch.chdir(tmp_path)  # the commands write to relative paths
    for argv in commands:
        capsys.readouterr()
        assert main(argv[1:]) == 0
    assert capsys.readouterr().out.strip() == expected


def test_quick_start_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes every import of scipy raise ImportError
    commands, expected = quick_start()
    src = Path(hsunmix.cli.__file__).resolve().parent.parent
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",
        "from hsunmix.cli import main",
        f"for argv in {[argv[1:] for argv in commands]!r}:",
        "    assert main(argv) == 0, argv",
    ])
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == expected


def test_the_spec_key_table_lists_every_spec_field():
    section = README.read_text().split("## Experiment spec files", 1)[1].split("\n## ", 1)[0]
    first_cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    keys = [key for cell in first_cells for key in re.findall(r"`(\w+)`", cell)]
    assert keys == [field.name for field in fields(ExperimentSpec)]
