"""Record the reference objective and solve cost of every pool instance.

    python3 perfbench/record_references.py [--workload NAME ...]

Each instance is solved twice by the CLI, with and without ICF-SEG; both
must be optimal and agree before the objective is recorded in
references.json.  The cost recorded in costs.json is the wall time of the
ICF-SEG solve divided by that of the yardstick run right before it; run.py
only uses it to sort the pool into strata.  Run it after changing a workload
or the generator, from the root of a checkout.
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

from gen import write_instance
from run import (COSTS, POOL, REFERENCES, SOLVE_TIMEOUT, SRC, WORK, WORKLOADS, Yardstick,
                 solve_argv, spawn)


def solve_objective(files: dict[str, str], work: Path, *extra: str) -> tuple[float, float]:
    out = work / "median.json"
    argv = solve_argv(files, out, None) + list(extra)
    child = spawn(argv, 4 * SOLVE_TIMEOUT, work / "solve.err")
    if child.code != 0:
        raise RuntimeError(f"{argv} exited with {child.code}")
    report = json.loads(out.read_text())
    if report["status"] != "optimal":
        raise RuntimeError(f"{argv} ended {report['status']}")
    return report["objective"], child.wall_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    if not (SRC / "ffmedian").is_dir():
        print(f"error: no ffmedian sources under {SRC}", file=sys.stderr)
        return 2
    recorded = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    recorded_costs = json.loads(COSTS.read_text()) if COSTS.exists() else {}
    WORK.mkdir(exist_ok=True)
    yardstick = Yardstick()
    try:
        for name in args.workload or sorted(WORKLOADS):
            objectives, costs = {}, {}
            for i in range(POOL):
                work = Path(tempfile.mkdtemp(dir=WORK))
                try:
                    files = write_instance(WORKLOADS[name].params, i, str(work))
                    yard = yardstick.time()
                    value, wall = solve_objective(files, work)
                    plain, plain_wall = solve_objective(files, work, "--no-icf-seg")
                finally:
                    shutil.rmtree(work, ignore_errors=True)
                if not math.isclose(value, plain, rel_tol=1e-9, abs_tol=1e-6):
                    raise RuntimeError(
                        f"{name} instance {i}: ICF-SEG {value!r} != plain {plain!r}")
                objectives[str(i)] = value
                costs[str(i)] = wall / yard
                print(f"{name} {i}: {value!r} ({wall:.2f} s, cost {wall / yard:.3f}, "
                      f"plain {plain_wall:.2f} s)", flush=True)
            recorded[name] = objectives
            recorded_costs[name] = costs
            REFERENCES.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
            COSTS.write_text(json.dumps(recorded_costs, indent=2, sort_keys=True) + "\n")
    finally:
        yardstick.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
