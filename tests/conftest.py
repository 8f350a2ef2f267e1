"""Child interpreters that tests start (``python -m diamond.cli``) import
the package from ``src``, as the test process does through the
``pythonpath`` setting in pyproject.toml."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC, *_paths])
