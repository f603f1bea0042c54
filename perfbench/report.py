"""Print every end-to-end metric per workload, then the per-layer table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Runs run.py once untraced and twice traced per workload, from the root of a
checkout.  Beside each per-layer count it shows whether the two traced runs
gave exactly the same value ("=") or not ("!=").
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"{workload} (trace {trace}): correct={result['correct']}, "
              f"{result['failed']} of {result['attempted']} failed", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    plain, traced = {}, {}
    for name in names:
        plain[name] = run_once(name, args.seed, args.seconds, 0)
        traced[name] = [run_once(name, args.seed, args.seconds, 1) for _ in range(2)]

    width = 16
    header = f"{'metric':32s}" + "".join(f"{n:>{width + 3}s}" for n in names)
    print(f"end-to-end (seed {args.seed}; attempted/failed per workload: "
          + ", ".join(f"{n} {plain[n]['attempted']}/{plain[n]['failed']}" for n in names)
          + ")")
    print(header)
    for metric in BENCHMARK["end_to_end"]:
        cells = []
        for n in names:
            value = plain[n]["metrics"].get(metric["name"], {}).get("value")
            cells.append("-" if value is None else f"{value:.4f} {metric['unit']}")
        print(f"{metric['name']:32s}" + "".join(f"{c:>{width + 3}s}" for c in cells))

    print("\nper layer (means per traced solve; '=' marks a value repeated exactly)")
    print(header)
    for metric in BENCHMARK["per_layer"]:
        cells = []
        for n in names:
            first, second = (r["metrics"].get(metric["name"], {}).get("value")
                             for r in traced[n])
            if first is None:
                cells.append("-")
                continue
            mark = "" if metric["unit"] == "s" else (" =" if first == second else " !=")
            cells.append(f"{first:.4f}{mark}")
        print(f"{metric['name']:32s}" + "".join(f"{c:>{width + 3}s}" for c in cells))

    print()
    for n in names:
        times = {k: v["value"] for k, v in traced[n][0]["metrics"].items()
                 if v["unit"] == "s" and k not in ("cli.pipeline_s", "trace.overhead_s")}
        print(f"{n}: largest self time {max(times, key=times.get)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
