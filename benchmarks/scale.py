"""Stage times and peak memory of `ffmedian solve` on larger seeded instances.

    python3 benchmarks/scale.py [--src LABEL=DIR ...] [-o OUT.json]

Run from the root of a checkout.  Each case is one instance written by
`perfbench/gen.py` (seed 5), with 200 to 5000 genes per genome, 1 to 8
linear chromosomes and up to 20% gene families: the sizes and chromosome
counts that the pool-sized benchmark in `perfbench/` does not reach, where
the front end, the telomere triples or the gene families set the cost of a
solve.  The CIRCULAR cases turn each genome's one chromosome circular, as
in a bacterial genome, by rewriting the shape column of the generated
genome file.  Every case is solved with ICF-SEG on and off, REPEAT times
each, by a fresh `ffmedian solve` child process per solve with a 120 s
limit.  Off is `--no-icf-seg`; on is `--icf-seg` for a tree whose `solve
--help` lists it, and no flag for an older tree, where ICF-SEG was the
default.  A report whose `config.use_icf_seg` is not the asked setting is
an error.

Each `--src` names a source tree (a checkout's `src/`) under a label; the
default is this checkout's `src/` as `this`.  The trees take turns solve by
solve, so that a drift in machine speed reaches all of them alike.

For every case, setting and tree, the output records the median seconds of
each stage in the report's `stages`, their sum, the median wall seconds of
the whole child (start-up, verification, CAR assembly and the report write
lie outside the stages), the median CPU seconds of the child (user plus
system, over all its threads: a helper thread that spins shows as CPU above
wall), the median peak RSS of the child, and the status, objective, `counts`
(candidates, conserved adjacency rows and the rest) and `stats` (telomere
triples, rows handed to the solve, ICF-SEG runs, HiGHS nodes and iterations;
null for a tree whose reports have none) of the report, which are the same
in every repeat.  It also records the versions of Python, numpy, scipy and
the HiGHS bundled with scipy that the children run.

Separately, so that the stage and wall numbers above stay as they are,
`imports` records per tree the median import time of the package's own
modules in a default solve child of the IMPORT_CASE instance, over
IMPORT_REPEAT children per tree, the trees taking turns.  Each child is
started as the installed `ffmedian` script starts it (`from ffmedian.cli
import run`), so that `cli` is timed as a module too, under `python -X
importtime`, whose self times of the `ffmedian` modules are summed.  The
children read and write no bytecode cache (an empty `PYTHONPYCACHEPREFIX`
and `PYTHONDONTWRITEBYTECODE=1`), so every module is compiled from source
in every child, as on a host that writes no bytecode, whatever caches the
tree holds; this makes each of these children about 1 s slower.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from gen import Params, write_instance  # noqa: E402

SEED = 5
REPEAT = 3
TIME_LIMIT = 120.0
IMPORT_CASE = "n300_c2_fam0.1"
IMPORT_REPEAT = 20
# a solve child as the installed `ffmedian` script runs one
SCRIPT = "import sys; from ffmedian.cli import run; sys.exit(run())"

# name -> instance parameters: genes per genome (n), linear chromosomes per
# genome (c) and gene-family rate (fam)
CASES = {
    "n2000_c2": Params(n=2000, chromosomes=2),
    "n5000_c2": Params(n=5000, chromosomes=2),
    "n250_c5": Params(n=250, chromosomes=5),
    "n200_c6": Params(n=200, chromosomes=6),
    "n200_c8": Params(n=200, chromosomes=8),
    "n300_c2_fam0.1": Params(n=300, chromosomes=2, family_rate=0.1),
    "n4000_c1_fam0.1": Params(n=4000, chromosomes=1, family_rate=0.1),
    "n4000_c2_fam0.2": Params(n=4000, chromosomes=2, family_rate=0.2),
    "n4000_c1_circular": Params(n=4000, chromosomes=1),
    "n4000_c1_circular_fam0.1": Params(n=4000, chromosomes=1, family_rate=0.1),
}
CIRCULAR = {"n4000_c1_circular", "n4000_c1_circular_fam0.1"}


def circularize(path: str) -> None:
    """Make every chromosome of a genome file circular."""
    genomes = Path(path)
    genomes.write_text(genomes.read_text().replace("\tlinear\t", "\tcircular\t"))


def icf_seg_flags(src: str) -> dict[bool, list[str]]:
    """The `solve` flags that turn ICF-SEG on and off in the tree `src`."""
    argv = [sys.executable, "-m", "ffmedian.cli", "solve", "--help"]
    usage = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                           text=True, check=True).stdout
    return {True: ["--icf-seg"] if "--icf-seg " in usage else [], False: ["--no-icf-seg"]}


def versions() -> dict[str, str]:
    """The Python, numpy, scipy and HiGHS versions that the solve children run."""
    code = (
        "import json, platform, numpy, scipy\n"
        "from scipy.optimize._highspy import _core as h\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__, 'highs': '.'.join(str(v) for v in"
        " (h.HIGHS_VERSION_MAJOR, h.HIGHS_VERSION_MINOR, h.HIGHS_VERSION_PATCH))}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out)


def solve(src: str, files: dict[str, str], flags: list[str], out: Path) -> tuple[dict, dict]:
    """One solve child: its report and its `wall_s`, `cpu_s` and `peak_rss_mb`."""
    argv = [sys.executable, "-m", "ffmedian.cli", "solve", "-g", files["genomes"],
            "-s", files["similarity"], "--time-limit", str(TIME_LIMIT), "-o", str(out), *flags]
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code not in (0, 2):
        raise RuntimeError(f"solve with {src} exited with {code}")
    return json.loads(out.read_text()), {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }


def import_ms(src: str, files: dict[str, str], out: Path, cache: str) -> dict[str, float]:
    """Milliseconds of self import time of each `ffmedian` module in one
    default solve child that compiles every module from source."""
    argv = [sys.executable, "-X", "importtime", "-c", SCRIPT, "solve", "-g", files["genomes"],
            "-s", files["similarity"], "--canonical", "-o", str(out)]
    env = dict(os.environ, PYTHONPATH=src, PYTHONPYCACHEPREFIX=cache, PYTHONDONTWRITEBYTECODE="1")
    err = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stderr
    times = {}
    # "import time: self [us] | cumulative | imported package", one line per import
    for line in err.splitlines():
        if line.startswith("import time:") and "|" in line:
            own, _, name = (field.strip() for field in line[len("import time:"):].split("|"))
            if name.split(".")[0] == "ffmedian" and own.isdigit():
                times[name] = int(own) / 1000
    return times


def summarize(reports: list[dict], samples: dict[str, list[float]]) -> dict:
    stages: dict[str, list[float]] = {}
    for report in reports:
        for stage in report["stages"]:
            stages.setdefault(stage["name"], []).append(stage["seconds"])
    first = reports[0]
    return {
        "stages_s": {name: statistics.median(v) for name, v in stages.items()},
        "total_s": statistics.median(
            sum(s["seconds"] for s in report["stages"]) for report in reports),
        **{name: statistics.median(values) for name, values in samples.items()},
        "status": first["status"],
        "objective": first["objective"],
        "counts": first["counts"],
        "stats": first.get("stats"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", metavar="LABEL=DIR",
                        help="source tree to run under a label (repeatable)")
    parser.add_argument("-o", "--output", default=str(ROOT / "BENCH_scale.json"))
    args = parser.parse_args(argv)
    if any("=" not in spec for spec in args.src or []):
        parser.error("--src takes LABEL=DIR")
    trees = dict(spec.split("=", 1) for spec in args.src or [f"this={ROOT / 'src'}"])
    flags = {label: icf_seg_flags(src) for label, src in trees.items()}
    results = []
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for name in CASES:
            files = write_instance(CASES[name], SEED, str(work / name))
            if name in CIRCULAR:
                circularize(files["genomes"])
            for icf_seg in (True, False):
                reports = {label: [] for label in trees}
                samples = {label: {} for label in trees}
                for _ in range(REPEAT):
                    for label, src in trees.items():
                        report, usage = solve(src, files, flags[label][icf_seg],
                                              work / "median.json")
                        if report["config"]["use_icf_seg"] != icf_seg:
                            raise RuntimeError(f"{label} on {name}: use_icf_seg is not {icf_seg}")
                        reports[label].append(report)
                        for metric, value in usage.items():
                            samples[label].setdefault(metric, []).append(value)
                runs = {label: summarize(reports[label], samples[label]) for label in trees}
                results.append({"case": name, "icf_seg": icf_seg, "runs": runs})
                print(name, "icf-seg" if icf_seg else "no icf-seg", " ".join(
                    f"{label}: {run['total_s']:.3f} s in stages, {run['wall_s']:.3f} s wall, "
                    f"{run['cpu_s']:.3f} s CPU, "
                    f"{run['peak_rss_mb']:.0f} MB"
                    for label, run in runs.items()), flush=True)
        files = write_instance(CASES[IMPORT_CASE], SEED, str(work / "imports"))
        cache = tempfile.mkdtemp(dir=work)  # stays empty: no child writes bytecode
        children: dict[str, list[dict[str, float]]] = {label: [] for label in trees}
        for _ in range(IMPORT_REPEAT):
            for label, src in trees.items():
                children[label].append(import_ms(src, files, work / "median.json", cache))
        imports = {}
        for label, runs in children.items():
            modules = sorted({name for run in runs for name in run})
            imports[label] = {
                "total_ms": statistics.median(sum(run.values()) for run in runs),
                "modules_ms": {name: statistics.median(run.get(name, 0.0) for run in runs)
                               for name in modules},
            }
        print("imports", " ".join(f"{label}: {run['total_ms']:.1f} ms"
                                  for label, run in imports.items()), flush=True)
    payload = {
        "sources": list(trees),
        "seed": SEED,
        "repeat": REPEAT,
        "time_limit_s": TIME_LIMIT,
        "versions": versions(),
        "cases": {name: dict(vars(params), shape="circular" if name in CIRCULAR else "linear")
                  for name, params in CASES.items()},
        "results": results,
        "imports": {"case": IMPORT_CASE, "children": IMPORT_REPEAT, "trees": imports},
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
