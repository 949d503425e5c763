import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from matchbias import cli, matching, simulation, theory
from matchbias.cli import main


def write_config(path, **overrides):
    cfg = {
        "population": {"kind": "prognostic", "a_values": [1 / 3]},
        "matching": {"method": "exact", "band": 2000},
        "simulation": {"n_values": [120], "reps": 2, "master_seed": 7},
        "output": {"dir": str(path.parent / "out")},
    }
    for section, values in overrides.items():
        cfg.setdefault(section, {}).update(values)
    path.write_text(json.dumps(cfg))
    return cfg


def toy_units_csv(path, rows):
    lines = ["id,w,s"] + [f"{i},{w},{s}" for i, (w, s) in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n")


def assert_n80_bug_written(tmp_path, capsys, method):
    """simulate at n = 60 and 80 exits 4 naming the n = 80 cell's bug and
    writes the n = 60 cell."""
    cfg_path = tmp_path / "cfg.json"
    write_config(cfg_path, matching={"method": method},
                 simulation={"n_values": [60, 80]})
    assert main(["simulate", "--config", str(cfg_path)]) == 4
    err = capsys.readouterr().err
    assert "rep seed" in err and "n=80" in err
    out_dir = tmp_path / "out"
    with open(out_dir / "table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and rows[1][1] == "60"
    assert (out_dir / "table.md").is_file()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "rep seed" in manifest["error"] and "n=80" in manifest["error"]
    assert [c["n"] for c in manifest["cells"]] == [60]


def one_control_too_many_at_n80(xs, is_c, starts, rows_used=matching._rows_used):
    """matching._rows_used, but marking one control too many on rows of 80
    units."""
    used = rows_used(xs, is_c, starts)
    if xs.size == 80 * starts.size:
        used[np.flatnonzero(is_c & ~used)[:1]] = True
    return used


class TestSimulate:
    def test_small_run_writes_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        rc = main(["simulate", "--config", str(cfg_path)])
        assert rc == 0
        out_dir = tmp_path / "out"
        with open(out_dir / "table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "a" and len(rows) == 2
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["tool"] == "matchbias"
        assert set(manifest["files"]) == {"table.csv", "table.md"}
        assert manifest["master_seed"] == 7
        assert len(manifest["cells"]) == 1
        assert (out_dir / "table.md").read_text().startswith("| a |")
        assert "a,n,asymp_bias" in capsys.readouterr().out

    def test_full_grid_has_fifteen_rows(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path,
                     population={"a_values": [1 / 3, 4 / 9, 1.0]},
                     simulation={"n_values": [30, 45, 60, 80, 100], "reps": 1})
        rc = main(["simulate", "--config", str(cfg_path)])
        assert rc == 0
        with open(tmp_path / "out" / "table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 16  # header + 3 x 5 cells

    def test_missing_config_exits_one(self, capsys):
        assert main(["simulate", "--config", "/nonexistent.json"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_reports_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text('{\n  "population": [}\n}')
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert f"{cfg_path}:2" in capsys.readouterr().err

    def test_zero_reps_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, simulation={"reps": 0})
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert "reps" in capsys.readouterr().err

    def test_unknown_method_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        for method in ("hungarian", "auto"):
            write_config(cfg_path, matching={"method": method})
            assert main(["simulate", "--config", str(cfg_path)]) == 1
            assert f"unknown matching method {method!r}" in capsys.readouterr().err
        write_config(cfg_path)
        assert main(["simulate", "--config", str(cfg_path),
                     "--method", "auto"]) == 1
        assert "unknown matching method 'auto'" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        {"population": {"a_values": 0.5}},
        {"population": {"a_values": ["x"]}},
        {"population": {"a_values": []}},
        {"matching": "exact"},
        {"output": "x"},
        {"population": {"kind": "categorical", "mass_a": "x",
                        "p_in_a": 0.4, "p_out": 0.3}},
        {"simulation": {"reps": 2.5}},
        {"simulation": {"n_values": [60.9]}},
        {"simulation": {"master_seed": 7.5}},
        {"simulation": {"reps": True}},
        {"matching": {"capacity": 1.5}},
        {"matching": {"band": 40.5}},
        {"matching": {"capacity": True}},
        {"output": {"dir": 5}},
        {"output": {"format": "xml"}},
        {"population": {"a_values": [0.2]}},
        {"population": {"a_values": [float("nan")]}},
        {"population": {"kind": "categorical", "mass_a": True,
                        "p_in_a": 0.4, "p_out": 0.3}},
        {"population": {"kind": "categorical", "mass_a": "0.5",
                        "p_in_a": 0.4, "p_out": 0.3}},
        {"population": {"kind": "categorical", "mass_a": 0.5,
                        "p_in_a": 0.4, "p_out": 0.3, "noise_sd": -1}},
        {"population": {"a_values": [10**400]}},
        {"population": {"kind": "categorical", "mass_a": 0.5,
                        "p_in_a": 0.4, "p_out": 0.3, "mu0_in": 10**400}},
    ], ids=["a_values_scalar", "a_values_text", "empty_a_values",
            "matching_not_object", "output_not_object", "categorical_text",
            "fractional_reps", "fractional_n", "fractional_seed", "bool_reps",
            "fractional_capacity", "fractional_band", "bool_capacity",
            "dir_not_text", "unknown_format", "a_below_third", "a_nan",
            "mass_a_bool", "mass_a_text_number", "negative_noise_sd",
            "a_beyond_float", "mu0_in_beyond_float"])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, monkeypatch,
                                             overrides):
        # refused before any cell runs, not truncated, ignored or a traceback
        tables = []
        monkeypatch.setattr(simulation, "run_table",
                            lambda *args, **kwargs: tables.append(args))
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        for section, value in overrides.items():
            cfg[section] = value if isinstance(value, str) else {
                **cfg[section], **value}
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert tables == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: [cfg], "top level must be a JSON object"),
        (lambda cfg: {k: v for k, v in cfg.items() if k != "simulation"},
         "missing [simulation] section"),
        (lambda cfg: {**cfg, "simulation": {"reps": 2}},
         "[simulation] is missing required key 'n_values'"),
        (lambda cfg: {**cfg, "population": {"kind": "custom"}},
         "[population] kind must be 'prognostic' or 'categorical', got 'custom'"),
    ], ids=["top_level_array", "no_simulation", "no_n_values", "custom_kind"])
    def test_malformed_structure_is_config_error(self, tmp_path, capsys, edit,
                                                 message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(edit(write_config(cfg_path))))
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_oversized_integer_is_config_error(self, tmp_path, capsys):
        # json reads an integer literal past Python's 4300-digit limit as a
        # plain ValueError, not a JSONDecodeError
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        text = cfg_path.read_text().replace('"master_seed": 7',
                                            '"master_seed": ' + "9" * 5000)
        cfg_path.write_text(text)
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg_path}: ")
        assert not (tmp_path / "out").exists()

    def test_uncreatable_output_dir_is_output_error(self, tmp_path, capsys,
                                                    monkeypatch):
        tables = []
        monkeypatch.setattr(simulation, "run_table",
                            lambda *args, **kwargs: tables.append(args))
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, output={"dir": str(blocker / "out")})
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("output error: ")
        assert tables == []

    @pytest.mark.parametrize("name", ["table.csv", "table.md", "manifest.json"])
    def test_unwritable_output_file_is_output_error(self, tmp_path, capsys,
                                                    name):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, simulation={"n_values": [60], "reps": 1})
        (tmp_path / "out" / name).mkdir(parents=True)
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("output error: ")

    def test_output_independent_of_worker_count(self, tmp_path, monkeypatch):
        # 40 reps on two workers: two forked ranges of 20 replications
        desk = Path(__file__).resolve().parents[1] / "configs" / "table_s1_desk.json"
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("MATCHBIAS_THREADS", threads)
            out = tmp_path / threads
            assert main(["simulate", "--config", str(desk), "--n", "100",
                         "--reps", "40", "--out-dir", str(out)]) == 0
            cells = json.loads((out / "manifest.json").read_text())["cells"]
            outputs[threads] = (
                (out / "table.csv").read_bytes(),
                [{k: v for k, v in c.items() if k != "seconds"} for c in cells])
        assert outputs["1"] == outputs["2"]
        assert len(outputs["1"][1]) == 3

    @pytest.mark.parametrize("config", sorted(
        (Path(__file__).resolve().parents[1] / "configs").glob("*.json")),
        ids=lambda path: path.stem)
    def test_shipped_config_runs_with_the_closed_form(self, tmp_path, monkeypatch,
                                                      config):
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        assert main(["simulate", "--config", str(config), "--n", "100",
                     "--reps", "2", "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["reps"] == "2" for r in rows)
        for r in rows:
            closed = theory.prognostic_bias_closed_form(float(r["a"]))
            assert float(r["asymp_bias"]).hex() == closed.hex()

    @pytest.mark.parametrize("flags, limit", [
        (["--method", "replacement"], "0.0"), (["--caliper", "0.001"], "nan"),
        (["--method", "capacitated", "--capacity", "2"], "nan")],
        ids=["replacement", "caliper", "capacitated-k2"])
    def test_limit_follows_the_method(self, tmp_path, capsys, flags, limit):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, simulation={"n_values": [60], "reps": 2})
        assert main(["simulate", "--config", str(cfg_path), *flags]) == 0
        with open(tmp_path / "out" / "table.csv", newline="") as fh:
            assert [r["asymp_bias"] for r in csv.DictReader(fh)] == [limit]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_manifest_records_workers(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("MATCHBIAS_THREADS", threads)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, simulation={"n_values": [100], "reps": 40})
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["workers"] == int(threads)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_manifest_records_peak_rss_and_environment(self, tmp_path, monkeypatch,
                                                       threads):
        monkeypatch.setenv("MATCHBIAS_THREADS", threads)
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, simulation={"n_values": [100], "reps": 40})
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        # high-water marks in MB; the workers' only when a worker was forked
        rss = manifest["peak_rss_mb"]
        assert set(rss) == {"process", "workers"}
        assert rss["process"] > 1.0
        if threads == "1":
            assert rss["workers"] is None
        else:
            assert rss["workers"] > 1.0
        env = manifest["environment"]
        assert set(env) == {"nproc", "python", "numpy", "MATCHBIAS_THREADS"}
        assert env["nproc"] >= 1 and env["MATCHBIAS_THREADS"] == threads
        assert env["numpy"] == np.__version__
        assert env["python"].startswith("{}.{}.".format(*sys.version_info[:2]))

    def test_peak_rss_is_null_without_resource(self, monkeypatch):
        monkeypatch.setattr(cli, "resource", None)
        assert cli._peak_rss_mb(forked=True) == {"process": None, "workers": None}

    def test_band_below_surplus_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, matching={"method": "banded", "band": 10},
                     simulation={"n_values": [1000]})
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "incomplete" in err
        assert "band 10 is below the control surplus N0 - N1 = " in err

    def test_default_method_is_exact(self, tmp_path, monkeypatch):
        match_scores, methods = matching.match_scores, []

        def recording(t, c, method, *args, **kwargs):
            methods.append(method)
            return match_scores(t, c, method, *args, **kwargs)

        monkeypatch.setattr(matching, "match_scores", recording)
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        del cfg["matching"]
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert methods and set(methods) == {"exact"}

    def test_replication_bug_writes_finished_cells_and_exits_four(
            self, tmp_path, capsys, monkeypatch):
        # the row solver marks one control too many on rows of 80 units:
        # the n=60 cell finishes, the n=80 cell's block hits the bug
        monkeypatch.setattr(matching, "_rows_used", one_control_too_many_at_n80)
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        assert_n80_bug_written(tmp_path, capsys, "exact")

    def test_replication_bug_on_forked_workers_writes_finished_cells_and_exits_four(
            self, tmp_path, capsys, monkeypatch):
        # the table's two workers run both cells; the n=80 cell's bug comes
        # through their pipes after the n=60 cell's results
        monkeypatch.setattr(matching, "_rows_used", one_control_too_many_at_n80)
        monkeypatch.setenv("MATCHBIAS_THREADS", "2")
        assert_n80_bug_written(tmp_path, capsys, "exact")

    def test_per_sample_replication_bug_writes_finished_cells_and_exits_four(
            self, tmp_path, capsys, monkeypatch):
        # the third matcher call drops a pair: the n=60 cell finishes, n=80
        # hits the bug. Matching with replacement runs every replication
        # through the per-sample pipeline, so each one calls the matcher.
        match_scores, calls = matching.match_scores, []

        def dropping(*args, **kwargs):
            m = match_scores(*args, **kwargs)
            calls.append(None)
            if len(calls) == 3:
                m = replace(m, pairs=dict(list(m.pairs.items())[1:]))
            return m

        monkeypatch.setattr(matching, "match_scores", dropping)
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        assert_n80_bug_written(tmp_path, capsys, "replacement")

    def test_replication_bug_reported_when_output_unwritable(
            self, tmp_path, capsys, monkeypatch):
        def dropping(*args, **kwargs):
            m = match_scores(*args, **kwargs)
            return replace(m, pairs=dict(list(m.pairs.items())[1:]))

        match_scores = matching.match_scores
        monkeypatch.setattr(matching, "match_scores", dropping)
        monkeypatch.setenv("MATCHBIAS_THREADS", "1")
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, simulation={"n_values": [60]})
        (tmp_path / "out" / "manifest.json").mkdir(parents=True)
        assert main(["simulate", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("output error: ")
        assert "replication error: " in err and "rep seed" in err

    def test_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path)
        rc = main(["simulate", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "alt"),
                   "--n", "60", "--reps", "1", "--seed", "99", "--a", "0.5",
                   "--method", "banded", "--band", "3000", "--format", "md"])
        assert rc == 0
        manifest = json.loads((tmp_path / "alt" / "manifest.json").read_text())
        assert manifest["master_seed"] == 99
        assert manifest["cells"][0]["n"] == 60
        assert manifest["cells"][0]["a"] == 0.5
        # the manifest records the run: the file overlaid with exactly the flags
        cfg["simulation"].update(n_values=[60], reps=1, master_seed=99)
        cfg["population"]["a_values"] = [0.5]
        cfg["matching"].update(method="banded", band=3000)
        cfg["output"].update(dir=str(tmp_path / "alt"), format="md")
        assert manifest["config"] == cfg

    def test_negative_seed_flag_is_refused_before_the_output_dir(
            self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        assert main(["simulate", "--config", str(cfg_path), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("config error: master_seed ")
        assert not (tmp_path / "out").exists()

    def test_whole_floats_in_the_file_run_as_ints(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, matching={"band": 2e3},
                     simulation={"n_values": [6e1], "reps": 2e0, "master_seed": 7.0})
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["master_seed"] == 7 and manifest["cells"][0]["n"] == 60
        with open(tmp_path / "out" / "table.csv", newline="") as fh:
            assert list(csv.reader(fh))[1][1] == "60"

    def test_categorical_population(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path,
                           population={"kind": "categorical", "mass_a": 0.1,
                                       "p_in_a": 0.4, "p_out": 0.3})
        del cfg["population"]["a_values"]
        cfg_path.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfg_path)]) == 0

    @pytest.mark.parametrize("source", ["file", "flag"])
    def test_categorical_population_refuses_a_values(self, tmp_path, capsys,
                                                     monkeypatch, source):
        # a categorical population has no a: an a grid would be dropped
        tables = []
        monkeypatch.setattr(simulation, "run_table",
                            lambda *args, **kwargs: tables.append(args))
        cfg_path = tmp_path / "cfg.json"
        cfg = write_config(cfg_path,
                           population={"kind": "categorical", "mass_a": 0.5,
                                       "p_in_a": 0.6, "p_out": 0.2})
        if source == "flag":
            del cfg["population"]["a_values"]
            cfg_path.write_text(json.dumps(cfg))
        flag = ["--a", "0.5"] if source == "flag" else []
        assert main(["simulate", "--config", str(cfg_path), *flag]) == 1
        assert capsys.readouterr().err == (
            "config error: [population] a_values applies only to kind "
            "'prognostic', not 'categorical'\n")
        assert tables == [] and not (tmp_path / "out").exists()


class TestMatch:
    def test_toy_csv(self, tmp_path, capsys):
        data = tmp_path / "units.csv"
        toy_units_csv(data, [(1, 0.5), (0, 0.4), (0, 0.7), (1, 0.3), (0, 0.25)])
        rc = main(["match", str(data), "--out-dir", str(tmp_path / "m")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total_cost" in out and "crossing_matches=False" in out
        with open(tmp_path / "m" / "pairs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["treated_id", "control_id", "gap"]
        assert len(rows) == 3
        with open(tmp_path / "m" / "summary.csv", newline="") as fh:
            srows = list(csv.reader(fh))
        assert srows[0] == ["method", "band", "capacity", "total_cost"]
        assert srows[1][:3] == ["exact", "", "1"]
        assert float(srows[1][3]) == pytest.approx(0.15)

    def test_pairs_use_input_ids(self, tmp_path):
        data = tmp_path / "units.csv"
        data.write_text("id,w,s\nu101,1,0.5\nu102,0,0.4\nu103,0,0.7\n")
        assert main(["match", str(data), "--out-dir", str(tmp_path / "m")]) == 0
        with open(tmp_path / "m" / "pairs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == ["u101", "u102", repr(0.09999999999999998)]

    def test_all_treated_exits_three(self, tmp_path, capsys):
        data = tmp_path / "units.csv"
        toy_units_csv(data, [(1, 0.5), (1, 0.4)])
        assert main(["match", str(data)]) == 3
        assert "zero" in capsys.readouterr().err

    def test_all_treated_at_capacity_one_exits_three_as_exact(self, tmp_path,
                                                              capsys):
        data = tmp_path / "units.csv"
        toy_units_csv(data, [(1, 0.5), (1, 0.4)])
        assert main(["match", str(data), "--method", "capacitated",
                     "--capacity", "1"]) == 3
        assert "zero" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["exact", "capacitated"])
    def test_solver_bug_exits_four(self, tmp_path, capsys, monkeypatch, method):
        # the solver drops its first used flag: one control short of N1
        rows_used = matching._rows_used

        def dropping(xs, is_c, starts):
            used = rows_used(xs, is_c, starts)
            used[used.argmax()] = False
            return used

        monkeypatch.setattr(matching, "_rows_used", dropping)
        data = tmp_path / "units.csv"
        toy_units_csv(data, [(1, 0.5), (0, 0.4), (0, 0.7), (1, 0.3), (0, 0.25)])
        assert main(["match", str(data), "--method", method,
                     "--out-dir", str(tmp_path / "m")]) == 4
        assert capsys.readouterr().err == (
            "matching error: the level solver marked 1 units used, not the "
            "N1 = 2 controls a matching uses\n")
        assert not (tmp_path / "m").exists()

    def test_more_treated_than_controls_with_replacement_ok(self, tmp_path):
        data = tmp_path / "units.csv"
        toy_units_csv(data, [(1, 0.5), (1, 0.4), (0, 0.45)])
        assert main(["match", str(data), "--method", "replacement",
                     "--out-dir", str(tmp_path / "m")]) == 0

    @pytest.mark.parametrize("flags, applied", [
        (["--method", "exact", "--capacity", "3", "--band", "0"], ["exact", "", "1"]),
        (["--method", "replacement", "--capacity", "5"], ["with_replacement", "", ""]),
        (["--method", "banded", "--band", "7", "--capacity", "3"], ["banded", "7", "1"]),
        (["--method", "capacitated", "--capacity", "3", "--band", "0"],
         ["capacitated", "", "3"]),
    ], ids=["exact", "replacement", "banded", "capacitated"])
    def test_summary_reports_what_the_matcher_applied(self, tmp_path, flags,
                                                      applied):
        data = tmp_path / "units.csv"
        toy_units_csv(data, [(1, 0.5), (0, 0.4), (0, 0.7), (1, 0.3), (0, 0.25)])
        assert main(["match", str(data), *flags, "--out-dir", str(tmp_path / "m")]) == 0
        with open(tmp_path / "m" / "summary.csv", newline="") as fh:
            assert list(csv.reader(fh))[1][:3] == applied

    def test_caliper_emits_dropped(self, tmp_path, capsys):
        data = tmp_path / "units.csv"
        toy_units_csv(data, [(1, 0.1), (1, 0.6), (0, 0.11), (0, 0.9)])
        rc = main(["match", str(data), "--caliper", "0.1",
                   "--out-dir", str(tmp_path / "m")])
        assert rc == 0
        assert "caliper dropped 1 treated units" in capsys.readouterr().out

    def test_band_below_surplus_exits_three(self, tmp_path, capsys):
        data = tmp_path / "units.csv"
        toy_units_csv(data, [(1, 0.5), (0, 0.4), (0, 0.7), (0, 0.3)])
        assert main(["match", str(data), "--method", "banded", "--band", "0",
                     "--out-dir", str(tmp_path / "m")]) == 3
        err = capsys.readouterr().err
        assert "band 0 is below the control surplus N0 - N1 = 2" in err
        assert "degenerate" not in err
        assert not (tmp_path / "m").exists()

    def test_uncreatable_out_dir_is_output_error(self, tmp_path, capsys):
        data = tmp_path / "units.csv"
        toy_units_csv(data, [(1, 0.5), (0, 0.4)])
        assert main(["match", str(data), "--out-dir",
                     str(data / "m")]) == 1
        assert capsys.readouterr().err.startswith("output error: ")

    @pytest.mark.parametrize("name", ["pairs.csv", "summary.csv"])
    def test_unwritable_output_file_is_output_error(self, tmp_path, capsys,
                                                    name):
        data = tmp_path / "units.csv"
        toy_units_csv(data, [(1, 0.5), (0, 0.4)])
        (tmp_path / "m" / name).mkdir(parents=True)
        assert main(["match", str(data), "--out-dir", str(tmp_path / "m")]) == 1
        assert capsys.readouterr().err.startswith("output error: ")

    def test_unknown_method_exits_one(self, tmp_path, capsys):
        data = tmp_path / "units.csv"
        toy_units_csv(data, [(1, 0.5), (0, 0.4)])
        assert main(["match", str(data), "--method", "auto"]) == 1
        assert "unknown matching method 'auto'" in capsys.readouterr().err

    def test_unreadable_input(self, capsys):
        assert main(["match", "/does/not/exist.csv"]) == 1

    def test_non_finite_score_is_input_error(self, tmp_path, capsys):
        data = tmp_path / "units.csv"
        data.write_text("id,w,s\n0,1,0.5\n1,0,nan\n2,0,0.7\n")
        for command in ("match", "diagnose"):
            assert main([command, str(data)]) == 1
            assert f"input error: {data}:3: bad row" in capsys.readouterr().err


class TestBias:
    def test_prognostic_closed_and_numeric(self, capsys):
        rc = main(["bias", "--a", "0.4444444444444444"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.0803" in out  # 0.080376 printed at 6 decimals, Table value 0.0804
        assert "closed-form" in out and "numeric" in out

    def test_prognostic_a_one_zero_bias(self, capsys):
        assert main(["bias", "--a", "1"]) == 0
        assert "0.000000" in capsys.readouterr().out

    def test_closed_form_only(self, capsys):
        assert main(["bias", "--a", "0.5", "--closed-form"]) == 0
        assert capsys.readouterr().out == "closed-form bias(a=0.5) = 0.054492\n"

    def test_closed_form_domain_error(self, capsys):
        rc = main(["bias", "--a", "0.2", "--closed-form"])
        assert rc == 1

    def test_numeric_domain_error(self, capsys):
        assert main(["bias", "--a", "0.2"]) == 1
        assert "invalid population" in capsys.readouterr().err

    def test_a_alone_selects_the_prognostic_family(self, capsys):
        assert main(["bias", "--a", "0.5"]) == 0
        assert capsys.readouterr().out == (
            "a = 0.5   upper-region threshold b = 1.250000\n"
            "bias: closed-form = 0.054492   numeric = 0.054492\n"
            "asymptotic bias             0.054492\n"
            "upper-region mass           0.281250\n"
            "treated fraction (pi_bar)   0.333333\n"
            "E[Y(0) | treated, upper]    2.345833\n"
            "E[Y(0) | control, upper]    2.216667\n")

    def test_a_and_uniform_propensity_together_are_refused(self, capsys):
        assert main(["bias", "--a", "0.5", "--uniform-propensity", "0.8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--a" in captured.err and "--uniform-propensity" in captured.err

    def test_closed_form_with_uniform_propensity_is_refused(self, capsys):
        assert main(["bias", "--uniform-propensity", "0.8", "--closed-form"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--closed-form" in captured.err and "--uniform-propensity" in captured.err

    def test_uniform_propensity_reports_pstar(self, capsys):
        rc = main(["bias", "--uniform-propensity", "0.8"])
        assert rc == 0
        assert "p* = 0.200000" in capsys.readouterr().out

    def test_missing_selector(self, capsys):
        assert main(["bias"]) == 1
        assert "--a" in capsys.readouterr().err

    def test_uniform_propensity_out_of_range(self, capsys):
        assert main(["bias", "--uniform-propensity", "1.5"]) == 1
        assert "upper must be in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, field", [
        (["--a", "0.5", "--tol", "nan"], "tol"),
        (["--uniform-propensity", "0.8", "--tol", "inf"], "tol"),
        (["--a", "nan"], "a")])
    def test_bad_value_names_its_field(self, capsys, argv, field):
        assert main(["bias", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f" {field} must be " in captured.err

    def test_non_positive_tol(self, capsys):
        for route in (["--uniform-propensity", "0.8"], ["--a", "0.5"]):
            assert main(["bias", *route, "--tol", "0"]) == 1
            assert "tol must be > 0" in capsys.readouterr().err


class TestDiagnose:
    def test_counts(self, tmp_path, capsys):
        data = tmp_path / "units.csv"
        toy_units_csv(data, [(1, 0.6), (0, 0.4), (0, 0.3)])
        assert main(["diagnose", str(data)]) == 0
        out = capsys.readouterr().out
        assert "1 of 3" in out and "rejected" in out

    def test_threshold_flag(self, tmp_path, capsys):
        data = tmp_path / "units.csv"
        toy_units_csv(data, [(1, 0.6), (0, 0.4)])
        assert main(["diagnose", str(data), "--threshold", "0.7"]) == 0
        assert "not rejected" in capsys.readouterr().out

    def test_nan_threshold_exits_one(self, tmp_path, capsys):
        data = tmp_path / "units.csv"
        toy_units_csv(data, [(1, 0.6), (0, 0.4)])
        assert main(["diagnose", str(data), "--threshold", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "threshold must be a number" in captured.err


class TestHelp:
    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("simulate", "match", "bias", "diagnose"):
            assert cmd in out

    def test_subcommand_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--config", "--out-dir", "--seed", "--reps", "--n",
                     "--a", "--method", "--band", "--capacity", "--caliper",
                     "--format"):
            assert flag in out
