"""Self-test of the benchmark: every workload passes at a tiny size, and the
correctness gate trips on tampered results.

    python3 -m pytest bench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from matchbias import matching, population  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload, trace=0):
    return run.main(["--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--size", "tiny"])


def _result(capsys):
    out = capsys.readouterr().out
    return out, json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_passes_at_tiny_size(workload, trace, capsys):
    code = _tiny(workload, trace)
    out, result = _result(capsys)
    assert code == 0, out
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_workloads_match_benchmark_json():
    import workloads

    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert list(workloads.TINY) == names


def test_table_trace_records_cli_run_table_and_theory(capsys):
    assert _tiny("table_n100", trace=1) == 0
    metrics = _result(capsys)[1]["metrics"]
    assert metrics["cli.calls"]["value"] == 1
    assert metrics["simulation.table_calls"]["value"] == 1
    assert metrics["simulation.cell_calls"]["value"] == 3
    assert metrics["theory.bias_calls"]["value"] == 3


def _swap_extreme_controls(match_scores):
    """Matcher whose lowest and highest treated units trade controls."""
    def tampered(treated, controls, *args, **kwargs):
        m = match_scores(treated, controls, *args, **kwargs)
        order = np.argsort(treated)
        lo, hi = int(order[0]), int(order[-1])
        pairs = dict(m.pairs)
        pairs[lo], pairs[hi] = pairs[hi], pairs[lo]
        return dataclasses.replace(m, pairs=pairs)
    return tampered


def test_gate_trips_on_swapped_controls(monkeypatch, capsys):
    monkeypatch.setattr(matching, "match_scores",
                        _swap_extreme_controls(matching.match_scores))
    code = _tiny("exact_n1e5")
    out, result = _result(capsys)
    assert code == 1 and not result["correct"]
    assert "crossing pairs" in out
    assert "reference" in out


def test_gate_trips_on_a_dropped_rep(monkeypatch, capsys):
    sample = population.sample

    def failing(spec, n, seed):
        if seed % 5 == 0:
            raise ValueError("injected replication failure")
        return sample(spec, n, seed)

    monkeypatch.setattr(population, "sample", failing)
    code = _tiny("table_n100")
    out, result = _result(capsys)
    assert code == 1 and not result["correct"]
    assert result["failed"] > 0
    assert "reps done" in out


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "table_n100",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
