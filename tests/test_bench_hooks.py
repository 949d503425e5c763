"""The benchmark's tracer wraps matchbias functions by name.

`bench/tracing.py` swaps `(module, attr)` pairs listed in its TARGETS for
timing wrappers. A rename or deletion in `src/` would break the traced
benchmark run, which no test under `tests/` runs, so this checks the names.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module_name, attr in tracing.TARGETS:
        module = importlib.import_module(f"matchbias.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
