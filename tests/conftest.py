"""Puts this checkout's src on the import path, after PYTHONPATH's entries.

A bare `python -m pytest` then imports matchbias from this checkout,
without an install, and `PYTHONPATH=/other/checkout/src python -m pytest`
tests that other copy.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
_given = {os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p}
_after = [i + 1 for i, p in enumerate(sys.path) if p and os.path.abspath(p) in _given]
sys.path.insert(max(_after, default=0), SRC)
