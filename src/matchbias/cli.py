"""Command-line front end: simulate | match | bias | diagnose."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import __version__, estimators, matching, population, simulation, theory
from .matching import InfeasibleError, MatchConfig, MatchingError, SolverError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2
EXIT_DEGENERATE = 3
EXIT_BUG = 4


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{path}: no such config file")
    try:
        with open(p) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # e.g. an integer past Python's digit limit
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}:1: top level must be a JSON object")
    for section in ("population", "simulation"):
        if section not in cfg:
            raise ConfigError(f"{path}: missing [{section}] section")
    for section in ("population", "simulation", "matching", "output"):
        if not isinstance(cfg.setdefault(section, {}), dict):
            raise ConfigError(f"{path}: [{section}] must be an object")
    return cfg


def _need(section: dict, name: str, key: str):
    if key not in section:
        raise ConfigError(f"[{name}] is missing required key {key!r}")
    return section[key]


_MATCHER_KEYS = ("method", "band", "capacity", "caliper")


def _match_config(section: dict) -> tuple[str, MatchConfig]:
    """The method and MatchConfig a [matching] section asks for; an absent
    key keeps MatchConfig's default, and the method defaults to exact."""
    method = section.get("method", "exact")
    matching.check_method(method)
    return method, MatchConfig(**{k: section[k] for k in ("band", "capacity", "caliper")
                                  if k in section})


def _build_sim_config(cfg: dict) -> tuple[simulation.SimConfig, object, Path, str]:
    """The run's SimConfig, spec factory (None: the prognostic family), output
    directory and format, read from the config dict alone."""
    pop = cfg["population"]
    simc = cfg["simulation"]
    out = cfg["output"]

    kind = pop.get("kind", "prognostic")
    if kind not in ("prognostic", "categorical"):
        raise ConfigError(f"[population] kind must be 'prognostic' or "
                          f"'categorical', got {kind!r} (custom populations "
                          "are built through the Python API)")
    out_dir = out.get("dir", "matchbias-out")
    if not isinstance(out_dir, str):
        raise ConfigError(f"[output] dir must be a path string, got {out_dir!r}")
    fmt = out.get("format", "csv")
    if fmt not in ("csv", "md"):
        raise ConfigError(f"[output] format must be 'csv' or 'md', got {fmt!r}")

    # a wrong type or value anywhere below is a config error, not a traceback
    try:
        # every spec is built now, so bad parameters are refused before any cell
        if kind == "prognostic":
            raw_a = _need(pop, "population", "a_values")
            for a in raw_a:
                population.make_prognostic_spec(a)
            spec_factory = None
            a_values = tuple(float(a) for a in raw_a)
        else:
            a_values = (math.nan,)
            spec = population.make_categorical_spec(**{
                k: pop[k] for k in ("mass_a", "p_in_a", "p_out", "mu0_in",
                                    "mu0_out", "mu1_in", "mu1_out",
                                    "noise_sd") if k in pop})
            if "a_values" in pop:  # from the file or --a
                raise ConfigError("[population] a_values applies only to kind "
                                  "'prognostic', not 'categorical'")
            spec_factory = lambda a: spec
        method, mcfg = _match_config(cfg["matching"])
        sim_config = simulation.SimConfig(
            a_values=a_values,
            n_values=_need(simc, "simulation", "n_values"),
            reps=_need(simc, "simulation", "reps"),
            master_seed=simc.get("master_seed", 0),
            match_method=method,
            match_config=mcfg,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return sim_config, spec_factory, Path(out_dir), fmt


# simulate's flags and the (section, key) of the config file each one overrides
_OVERRIDES = {"n": ("simulation", "n_values"), "reps": ("simulation", "reps"),
              "seed": ("simulation", "master_seed"), "a": ("population", "a_values"),
              "out_dir": ("output", "dir"), "format": ("output", "format"),
              **{key: ("matching", key) for key in _MATCHER_KEYS}}


def _peak_rss_mb(forked: bool) -> dict:
    """High-water marks of resident memory, in MB: of this process, and of
    the largest child it has reaped, None when the run forked no worker.
    Both are None where the resource module is missing."""
    if resource is None:
        return {"process": None, "workers": None}
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes there, KiB on Linux

    def mb(who):
        return resource.getrusage(who).ru_maxrss * unit / 1e6
    children = mb(resource.RUSAGE_CHILDREN) if forked else 0.0
    return {"process": mb(resource.RUSAGE_SELF),
            "workers": children or None}  # 0 where every fork failed


def cmd_simulate(args) -> int:
    try:
        cfg = _load_config(args.config)
        for flag, (section, key) in _OVERRIDES.items():
            if getattr(args, flag) is not None:
                cfg[section][key] = getattr(args, flag)
        sim_config, spec_factory, out_dir, fmt = _build_sim_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rows, cells, bug = [], [], None

    def on_cell(row, secs):
        rows.append(row)
        cells.append({"a": row.a, "n": row.n, "seconds": round(secs, 3)})

    started = time.perf_counter()
    try:
        workers = simulation._worker_count(sim_config.reps)
        simulation.run_table(sim_config, spec_factory, on_cell=on_cell)
    except ValueError as exc:  # e.g. a malformed MATCHBIAS_THREADS
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:  # a replication bug: the finished cells are still written
        bug = str(exc)
    wall = time.perf_counter() - started

    csv_path = out_dir / "table.csv"
    md_path = out_dir / "table.md"
    manifest = {
        "run_id": f"{int(time.time())}-{sim_config.master_seed}",
        "tool": "matchbias",
        "version": __version__,
        "master_seed": sim_config.master_seed,
        "config": cfg,
        "files": [csv_path.name, md_path.name],
        "wall_clock_s": round(wall, 3),
        "workers": workers,
        "peak_rss_mb": _peak_rss_mb(forked=workers > 1),
        "environment": simulation.host_environment(),
        "cells": cells,
    }
    if bug is not None:
        manifest["error"] = bug
    try:
        simulation.rows_to_csv(rows, csv_path)
        md_path.write_text(simulation.rows_to_markdown(rows))
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        if bug is not None:  # no file holds the bug's rep seed now
            print(f"replication error: {bug}", file=sys.stderr)
        return EXIT_CONFIG

    if fmt == "md":
        print(simulation.rows_to_markdown(rows), end="")
    else:
        print(simulation.CSV_HEADER)
        for r in rows:
            print(simulation.csv_row(r))
    if bug is not None:
        print(f"replication error: {bug}", file=sys.stderr)
        return EXIT_BUG
    failed = [r for r in rows if r.reps_done == 0 or r.note]
    for r in failed:
        print(f"cell (a={r.a:g}, n={r.n}) incomplete: {r.note}", file=sys.stderr)
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_match(args) -> int:
    try:
        smp, unit_ids = population.sample_and_ids_from_csv(args.input)
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    section = {key: getattr(args, key) for key in _MATCHER_KEYS
               if getattr(args, key) is not None}
    try:
        method, cfg = _match_config(section)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        m = matching.match_scores(smp.treated_scores, smp.control_scores,
                                  method, cfg)
    except InfeasibleError as exc:
        print(f"no matching exists: {exc}; the ATT matching estimator is "
              "defined to be zero in this case.", file=sys.stderr)
        return EXIT_DEGENERATE
    except MatchingError as exc:
        print(f"matching refused: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SolverError as exc:
        print(f"matching error: {exc}", file=sys.stderr)
        return EXIT_BUG

    dropped: set[int] = set()
    if cfg.caliper is not None:
        m, dropped = matching.apply_caliper(
            m, smp.treated_scores, smp.control_scores, cfg.caliper)

    out_dir = Path(args.out_dir or ".")
    # pairs.csv carries the input file's id column, not subset positions
    treated_ids = [unit_ids[i] for i in smp.treated_idx]
    control_ids = [unit_ids[i] for i in smp.control_idx]
    ts, cs = smp.treated_scores.tolist(), smp.control_scores.tolist()
    tp, cp = m.pair_arrays()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "pairs.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["treated_id", "control_id", "gap"])
            for i, j in zip(tp.tolist(), cp.tolist()):
                writer.writerow([treated_ids[i], control_ids[j],
                                 repr(abs(ts[i] - cs[j]))])
        band = cfg.band if method == "banded" else ""  # empty where not applied
        k = matching.capacity(method, cfg)
        with open(out_dir / "summary.csv", "w", newline="") as fh:
            fh.write("method,band,capacity,total_cost\r\n")
            fh.write(f"{m.method},{band},{'' if k is None else k},{m.total_cost!r}\r\n")
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    crossing = matching.has_crossing(m, smp.treated_scores, smp.control_scores) \
        if m.injective else None
    fraction, count = estimators.diagnose_overlap(smp)
    print(f"method={m.method} pairs={len(m.pairs)} total_cost={m.total_cost:.6g}")
    print(f"crossing_matches={'n/a' if crossing is None else crossing}")
    print(f"overlap: {fraction:.4f} of units have score >= 0.5 (count={count})")
    if cfg.caliper is not None:
        ids = ",".join(treated_ids[i] for i in sorted(dropped))
        print(f"caliper dropped {len(dropped)} treated units: [{ids}]")
    return EXIT_OK


def cmd_bias(args) -> int:
    if (args.a is None) == (args.uniform_propensity is None) or (
            args.closed_form and args.a is None):
        print("bias: give exactly one of --a A and --uniform-propensity HI; "
              "--closed-form needs --a", file=sys.stderr)
        return EXIT_CONFIG
    if args.uniform_propensity is not None:
        try:
            spec = population.make_uniform_propensity_spec(args.uniform_propensity)
            ps = theory.pstar(spec, args.tol)
            report = theory.asymptotic_bias_propensity(spec, args.tol)
        except ValueError as exc:  # HI outside (0, 1] or a bad tol
            print(f"bias: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"p* = {ps.pstar:.6f} (defaulted={ps.defaulted}, "
              f"tail treated fraction={ps.tail_treated_prob:.6f}, "
              f"left_closed={ps.left_closed})")
        print(theory.format_bias_report(report))
        return EXIT_OK
    a = args.a
    closed = None
    try:
        closed = theory.prognostic_bias_closed_form(a)
    except ValueError as exc:
        if args.closed_form:
            print(f"closed form unavailable: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    if args.closed_form:
        print(f"closed-form bias(a={a:g}) = {closed:.6f}")
        return EXIT_OK
    try:
        spec = population.make_prognostic_spec(a)
    except ValueError as exc:
        print(f"invalid population: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = theory.asymptotic_bias_score(spec, args.tol)
    except ValueError as exc:  # a bad tol
        print(f"bias: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    b = theory.prognostic_sstar_lower(a) if closed is not None else math.nan
    closed_text = f"{closed:.6f}" if closed is not None else "n/a"
    print(f"a = {a:g}   upper-region threshold b = {b:.6f}")
    print(f"bias: closed-form = {closed_text}   numeric = {report.bias:.6f}")
    print(theory.format_bias_report(report))
    return EXIT_OK


def cmd_diagnose(args) -> int:
    try:
        smp = population.sample_from_csv(args.input)
        fraction, count = estimators.diagnose_overlap(smp, args.threshold)
    except (OSError, ValueError) as exc:  # an unreadable file or a NaN threshold
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"units with score >= {args.threshold:g}: {count} of {smp.n} "
          f"(fraction {fraction:.6f})")
    verdict = "rejected" if count > 0 else "not rejected"
    print(f"hypothesis 'no mass at or above the threshold': {verdict}")
    return EXIT_OK


# not argparse choices: an unknown method is a config error, exit 1
METHOD_HELP = f"one of {', '.join(matching.METHODS)}"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchbias",
        description="Matching without replacement on scalar scores: "
                    "simulation lab, matcher, and bias calculator.")
    parser.add_argument("--version", action="version",
                        version=f"matchbias {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # the matcher flags, shared by simulate and match
    matcher = argparse.ArgumentParser(add_help=False)
    matcher.add_argument("--method", help=METHOD_HELP)
    matcher.add_argument("--band", type=int)
    matcher.add_argument("--capacity", type=int)
    matcher.add_argument("--caliper", type=float)

    sim = sub.add_parser("simulate", parents=[matcher],
                         help="run a Monte Carlo table from a config")
    sim.add_argument("--config", required=True, help="JSON config file")
    sim.add_argument("--out-dir", help="output directory")
    sim.add_argument("--seed", type=int, help="override master seed")
    sim.add_argument("--reps", type=int, help="override replication count")
    sim.add_argument("--n", type=int, nargs="+", help="override sample sizes")
    sim.add_argument("--a", type=float, nargs="+", help="override a grid")
    sim.add_argument("--format", choices=["csv", "md"])
    sim.set_defaults(func=cmd_simulate)

    mat = sub.add_parser("match", parents=[matcher],
                         help="match a CSV of units (id,w,s[,y])")
    mat.add_argument("input", help="input CSV")
    mat.add_argument("--out-dir")
    mat.set_defaults(func=cmd_match)

    bias = sub.add_parser("bias", help="theoretical bias reports")
    bias.add_argument("--a", type=float,
                      help="prognostic-score example population with parameter A")
    bias.add_argument("--closed-form", action="store_true",
                      help="closed form only, with --a (requires 1/3 <= a <= 1)")
    bias.add_argument("--uniform-propensity", type=float, metavar="HI",
                      help="population with propensity Uniform[0, HI]")
    bias.add_argument("--tol", type=float, default=1e-8)
    bias.set_defaults(func=cmd_bias)

    diag = sub.add_parser("diagnose", help="overlap diagnostic on a CSV")
    diag.add_argument("input", help="input CSV")
    diag.add_argument("--threshold", type=float, default=0.5)
    diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
