"""Time one set-up of a workload in a fresh interpreter.

Set-up is importing matchbias, building the workload's spec and config and
running one small warm-up replication. Prints the seconds it took.

    PYTHONPATH=src python3 bench/setup_probe.py WORKLOAD OUT_DIR
"""

import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    name, out_dir = sys.argv[1], Path(sys.argv[2])
    started = perf_counter()
    import workloads  # imports matchbias: part of what is timed

    rows = workloads.run_once(workloads.TINY[name], workloads.DEFAULT_SEED, 1,
                              out_dir)
    elapsed = perf_counter() - started
    if any(r.reps_done != 1 or r.note for r in rows):
        print(f"warm-up replication failed: {rows}", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
