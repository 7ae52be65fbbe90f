"""Load a repository script as a module without running it or writing bytecode next to it."""

import sys
from pathlib import Path


def load_script(path: Path, name: str):
    """Execute ``path`` as a fresh module called ``name``; its ``__main__`` block does not run."""
    module = type(sys)(name)
    module.__file__ = str(path)
    sys.modules[name] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module
