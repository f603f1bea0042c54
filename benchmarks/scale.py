"""Stage times and peak memory of `ffmedian solve` on larger seeded instances.

    python3 benchmarks/scale.py [--src LABEL=DIR ...] [-o OUT.json]

Run from the root of a checkout.  Each case is one instance written by
`perfbench/gen.py` (seed 5 unless SEEDS names another), with 60 to 20000
genes per genome, 1 to 8 linear chromosomes and up to 20% gene families:
the sizes and chromosome counts that the pool-sized benchmark in
`perfbench/` does not reach, where the front end, the telomere triples or
the gene families set the cost of a solve.  The n=4000 family case runs at
seeds 5 and 6, whose LP vertices are fractional, so that HiGHS's MIP runs.
In the EMPTIED case, 30% gene loss leaves linear chromosomes whose genes
preprocessing discards, and the rows between the telomere triples at their
two ends outnumber all others.  The CIRCULAR cases turn each genome's one
chromosome circular, as in a bacterial genome, by rewriting the shape
column of the generated genome file.  The MIS cases are the paper's
hardness reduction, `reduce_mis(random_bounded_graph(n, 3/n, 1))` at n = 8
and 12, written by this checkout's `src/`: tie-heavy models whose rows grow
about as n^4 (n = 16 already takes 20 to 30 s a solve).  They are solved
without preprocessing, as `verify-reduction` solves them, and each tree's
`verify-reduction` verdict on the instance, one child per tree, is recorded
next to the stage times.  Every case is solved with ICF-SEG on and off,
REPEAT times each, by a fresh `ffmedian solve` child process per solve
with a 120 s limit.  Off is `--no-icf-seg`; on is `--icf-seg`
for a tree whose `solve --help` lists it, and no flag for an older tree,
where ICF-SEG was the default.  A report whose `config.use_icf_seg` is not
the asked setting is an error.

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
`imports` records per tree the median import time of the modules a
default solve child of the IMPORT_CASE instance loads, over IMPORT_REPEAT
children per tree, the trees taking turns.  Each child is started as the
installed `ffmedian` script starts it (`from ffmedian.cli import run`), so
that `cli` is timed as a module too, under `python -X importtime`.  The
self times of the `ffmedian` modules are summed into `total_ms`; those of
the other modules imported once the package starts loading, except numpy
and the modules numpy imports, into `other_total_ms`: argparse, json and
the rest of the standard library that the program's own code pulls in,
and HiGHS.  The HiGHS extension is loaded from its file, not through the
import system, so `-X importtime` does not see it: the child times the
call of `solver._import_scipy`, once per solve, and reports it as one more
import line.  Together the two sums are the start-up that the program controls.
The children read and write no bytecode cache (an empty `PYTHONPYCACHEPREFIX`
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
from gen import GENOMES_FILE, SIMILARITY_FILE, Params  # noqa: E402

SEED = 5
REPEAT = 3
TIME_LIMIT = 120.0
IMPORT_CASE = "n300_c2_fam0.1"
IMPORT_REPEAT = 20
# a solve child as the installed `ffmedian` script runs one, which also
# reports the first load of the HiGHS extension as `-X importtime` would
IMPORT_SCRIPT = (
    "import sys, time\n"
    "from ffmedian.cli import run\n"
    "from ffmedian import solver\n"
    "load = solver._import_scipy\n"
    "def timed():\n"
    "    start = time.perf_counter_ns()\n"
    "    module = load()\n"
    "    us = (time.perf_counter_ns() - start) // 1000\n"
    "    sys.stderr.write(f'import time: {us:9} | {us:10} | {solver.HIGHS_MODULE}\\n')\n"
    "    return module\n"
    "solver._import_scipy = timed\n"
    "sys.exit(run())\n"
)
# the report fields that `main` and `summarize` read, printed by a child that
# parses the report: a report at n=20000 is large (see `write_instance`)
FIELDS = ("config", "stages", "status", "objective", "counts", "stats")
SUMMARY = ("import json, sys\n"
           "report = json.load(open(sys.argv[1]))\n"
           "print(json.dumps({key: report.get(key) for key in sys.argv[2:]}))\n")

# name -> instance parameters: genes per genome (n), linear chromosomes per
# genome (c) and gene-family rate (fam)
CASES = {
    "n2000_c2": Params(n=2000, chromosomes=2),
    "n5000_c2": Params(n=5000, chromosomes=2),
    "n20000_c2": Params(n=20000, chromosomes=2),
    "n250_c5": Params(n=250, chromosomes=5),
    "n200_c6": Params(n=200, chromosomes=6),
    "n200_c8": Params(n=200, chromosomes=8),
    "n300_c2_fam0.1": Params(n=300, chromosomes=2, family_rate=0.1),
    "n4000_c1_fam0.1": Params(n=4000, chromosomes=1, family_rate=0.1),
    "n4000_c2_fam0.2": Params(n=4000, chromosomes=2, family_rate=0.2),
    "n4000_c2_fam0.2_seed6": Params(n=4000, chromosomes=2, family_rate=0.2),
    "n4000_c1_circular": Params(n=4000, chromosomes=1),
    "n4000_c1_circular_fam0.1": Params(n=4000, chromosomes=1, family_rate=0.1),
    "n60_c8_loss0.3": Params(n=60, chromosomes=8, loss_rate=0.3),
}
CIRCULAR = {"n4000_c1_circular", "n4000_c1_circular_fam0.1"}
EMPTIED = "n60_c8_loss0.3"
# seed 1 empties chromosomes in all three genomes; at seed 6 the LP of the
# n=4000 family case leaves other fractional columns than at seed 5
SEEDS = {EMPTIED: 1, "n4000_c2_fam0.2_seed6": 6}
# name -> vertices n of the graph `random_bounded_graph(n, 3 / n, 1)` whose
# `reduce_mis` instance the case solves
MIS_CASES = {"mis_n8": 8, "mis_n12": 12}
MIS_SEED = 1
REDUCTION = ("import sys\n"
             "from ffmedian.mis_reduction import random_bounded_graph, reduce_mis, write_instance\n"
             "n, seed, out = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]\n"
             "write_instance(reduce_mis(random_bounded_graph(n, 3 / n, seed)), out)\n")


def write_instance(params: Params, seed: int, out_dir: str) -> dict[str, str]:
    """`gen.write_instance` in a child process.  A child's peak RSS counts
    the peak memory of the process that started it, so this process stays
    small: generating the largest instances here, or parsing their reports,
    would raise the peak RSS of every later solve."""
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in vars(params).items()]
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "gen.py"), *flags, f"--seed={seed}",
                    f"--out={out_dir}"], check=True, stdout=subprocess.DEVNULL)
    return {"genomes": [os.path.join(out_dir, GENOMES_FILE)],
            "similarity": os.path.join(out_dir, SIMILARITY_FILE)}


def write_reduction(n: int, out_dir: str) -> dict:
    """The `reduce_mis` instance of MIS_CASES' graph on `n` vertices, written
    by this checkout's `src/` in a child process, as `write_instance`."""
    subprocess.run([sys.executable, "-c", REDUCTION, str(n), str(MIS_SEED), out_dir],
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    with open(os.path.join(out_dir, "meta.json"), encoding="utf-8") as fh:
        labels = json.load(fh)["labels"]
    return {"genomes": [os.path.join(out_dir, f"{label}.gen") for label in labels],
            "similarity": os.path.join(out_dir, "graph.sim"), "dir": out_dir}


def verify_reduction(src: str, instance_dir: str) -> dict:
    """The verdict that `ffmedian verify-reduction` of the tree `src` prints."""
    argv = [sys.executable, "-m", "ffmedian.cli", "verify-reduction", instance_dir,
            "--time-limit", str(TIME_LIMIT)]
    proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True)
    if not proc.stdout:
        raise RuntimeError(f"verify-reduction with {src} exited with {proc.returncode}: "
                           f"{proc.stderr}")
    return json.loads(proc.stdout)


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


def instance_args(files: dict) -> list[str]:
    """`-g` for each genome file and `-s` for the similarity file of `files`."""
    return [*(arg for path in files["genomes"] for arg in ("-g", path)),
            "-s", files["similarity"]]


def solve(src: str, files: dict, flags: list[str], out: Path) -> tuple[dict, dict]:
    """One solve child: its report's FIELDS and its `wall_s`, `cpu_s` and
    `peak_rss_mb`."""
    argv = [sys.executable, "-m", "ffmedian.cli", "solve", *instance_args(files),
            "--time-limit", str(TIME_LIMIT), "-o", str(out), *flags]
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code not in (0, 2):
        raise RuntimeError(f"solve with {src} exited with {code}")
    fields = subprocess.run([sys.executable, "-c", SUMMARY, str(out), *FIELDS],
                            capture_output=True, text=True, check=True).stdout
    return json.loads(fields), {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }


def import_ms(src: str, files: dict, out: Path,
              cache: str) -> tuple[dict[str, float], dict[str, float]]:
    """Milliseconds of self import time of each `ffmedian` module, and of
    each other module imported after the package's first one, numpy's
    aside, in one default solve child that compiles every module from
    source (see the module docstring)."""
    argv = [sys.executable, "-X", "importtime", "-c", IMPORT_SCRIPT, "solve",
            *instance_args(files), "--canonical", "-o", str(out)]
    env = dict(os.environ, PYTHONPATH=src, PYTHONPYCACHEPREFIX=cache, PYTHONDONTWRITEBYTECODE="1")
    err = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stderr
    # "import time: self [us] | cumulative | imported package", one line per
    # import, a module's after those it imports, indented two spaces a level
    lines = []
    for line in err.splitlines():
        if line.startswith("import time:") and "|" in line:
            own, _, name = line[len("import time:"):].split("|")
            if own.strip().isdigit():
                depth = (len(name) - len(name.lstrip()) - 1) // 2
                lines.append((int(own) / 1000, name.strip(), depth))
    package, other = {}, {}
    numpy_depth = None  # depth of the numpy import whose modules are being read
    for ms, name, depth in reversed(lines):
        top = name.split(".")[0]
        if numpy_depth is not None and depth <= numpy_depth:
            numpy_depth = None
        if top == "ffmedian":
            package[name] = ms
        elif top == "numpy" and numpy_depth is None:
            numpy_depth = depth
        elif numpy_depth is None:
            other[name] = ms
        if name == "ffmedian":
            break  # what came before is the interpreter's own start-up
    return package, other


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
        for name in [*CASES, *MIS_CASES]:
            extra, verdicts = [], {}
            if name in MIS_CASES:
                files = write_reduction(MIS_CASES[name], str(work / name))
                extra = ["--no-preprocess"]
                verdicts = {label: verify_reduction(src, files["dir"])
                            for label, src in trees.items()}
            else:
                files = write_instance(CASES[name], SEEDS.get(name, SEED), str(work / name))
            if name in CIRCULAR:
                circularize(files["genomes"][0])
            for icf_seg in (True, False):
                reports = {label: [] for label in trees}
                samples = {label: {} for label in trees}
                for _ in range(REPEAT):
                    for label, src in trees.items():
                        report, usage = solve(src, files, flags[label][icf_seg] + extra,
                                              work / "median.json")
                        if report["config"]["use_icf_seg"] != icf_seg:
                            raise RuntimeError(f"{label} on {name}: use_icf_seg is not {icf_seg}")
                        reports[label].append(report)
                        for metric, value in usage.items():
                            samples[label].setdefault(metric, []).append(value)
                runs = {label: summarize(reports[label], samples[label]) for label in trees}
                for label, verdict in verdicts.items():
                    runs[label]["verify_reduction"] = verdict
                results.append({"case": name, "icf_seg": icf_seg, "runs": runs})
                print(name, "icf-seg" if icf_seg else "no icf-seg", " ".join(
                    f"{label}: {run['total_s']:.3f} s in stages, {run['wall_s']:.3f} s wall, "
                    f"{run['cpu_s']:.3f} s CPU, "
                    f"{run['peak_rss_mb']:.0f} MB"
                    for label, run in runs.items()), flush=True)
        files = write_instance(CASES[IMPORT_CASE], SEED, str(work / "imports"))
        cache = tempfile.mkdtemp(dir=work)  # stays empty: no child writes bytecode
        children: dict[str, list[tuple]] = {label: [] for label in trees}
        for _ in range(IMPORT_REPEAT):
            for label, src in trees.items():
                children[label].append(import_ms(src, files, work / "median.json", cache))
        imports = {}
        for label, runs in children.items():
            imports[label] = {}
            for key, part in (("", 0), ("other_", 1)):
                modules = sorted({name for run in runs for name in run[part]})
                imports[label][f"{key}total_ms"] = statistics.median(
                    sum(run[part].values()) for run in runs)
                imports[label][f"{key}modules_ms"] = {
                    name: statistics.median(run[part].get(name, 0.0) for run in runs)
                    for name in modules}
        print("imports", " ".join(
            f"{label}: {run['total_ms']:.1f} ms package, {run['other_total_ms']:.1f} ms other"
            for label, run in imports.items()), flush=True)
    payload = {
        "sources": list(trees),
        "seed": SEED,
        "seeds": SEEDS,
        "repeat": REPEAT,
        "time_limit_s": TIME_LIMIT,
        "versions": versions(),
        "cases": {**{name: dict(vars(params), shape="circular" if name in CIRCULAR else "linear")
                     for name, params in CASES.items()},
                  **{name: {"reduce_mis": {"n": n, "p": 3 / n, "seed": MIS_SEED}}
                     for name, n in MIS_CASES.items()}},
        "results": results,
        "imports": {"case": IMPORT_CASE, "children": IMPORT_REPEAT, "trees": imports},
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
