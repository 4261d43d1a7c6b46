"""Let a bare `pytest` run the suite from a fresh checkout: chancekit is
imported from src/, both here and in the `python -m chancekit` subprocesses
the CLI tests start, which inherit PYTHONPATH."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
