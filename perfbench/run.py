"""Benchmark of `ffmedian solve` on seeded synthetic genomes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.  The
seed picks `instances` genomes from the workload's pool of POOL seeded
instances (generated by gen.py), one from each of `instances` strata of the
pool sorted by the solve cost recorded in costs.json; the solver only sees
the generated files.  Paralog's solve times differ by 2x between instances,
so a plain random pick would change the run's mix of cheap and dear
instances, and its median, from seed to seed.

The run solves the picked instances in turn, one `ffmedian solve
--canonical` child process at a time (a closed loop with one client), each
at least once and then while another solve fits in S seconds.

Every solve passes a gate: exit 0, status `optimal`, the objective recorded
for that instance in references.json, and report bytes identical to the
instance's first report in the run.  A solve that misses any of these, or
that the outer timeout kills, counts as failed; a wrong objective or
changing bytes also make the run incorrect.

The host's speed drifts by tens of percent over minutes, on the solver
and on any other code alike, so the solve time is reported as `wall_rel`:
the interquartile mean of the solve wall times divided by that of a
yardstick, fixed interpreter, numpy and LP work that the benchmark runs
right before every solve and that uses no ffmedian code.  A faster solver
lowers it in proportion; the raw seconds are printed on the human-readable
lines.  The interquartile mean (the mean of the middle half) is as robust
to a stalled solve as the median and varies less between runs.

With --trace 0 the end-to-end metrics are printed; with --trace 1 every
solve is followed by a traced solve of the same instance (see tracing.py)
and the per-layer metrics are printed.  The last stdout line is the JSON
result.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from gen import Params, write_instance
from tracing import SPAN_NAMES, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCES = HERE / "references.json"
COSTS = HERE / "costs.json"

POOL = 40  # seeded instances per workload with a recorded reference objective
SETUPS = 3  # set-up probes per run, reported as their median
SOLVE_TIMEOUT = 60.0  # outer kill timeout of one solve child
RUN_DEADLINE = 150.0  # children still running at this age of a run are killed


@dataclass(frozen=True)
class Workload:
    params: Params
    instances: int  # picked from the pool per run, each solved at least once


# Why each workload: colinear makes the dense InstanceIndex builds the
# largest cost; paralog's gene families make the branch and bound (its
# clique-cut loop and node LPs) dominate.  Solve times on these synthetic
# genomes are heavy-tailed in n, in the family rate and in the number of
# chromosomes, so the sizes keep every pool instance far inside the timeout,
# and each run takes the median over many instances.  Paralog's recall
# varies more between instances, so it averages over more of them.
WORKLOADS = {
    "colinear": Workload(Params(n=300, chromosomes=2), instances=10),
    "paralog": Workload(Params(n=150, chromosomes=2, family_rate=0.1), instances=11),
}

SETUP_CODE = (
    "import sys\n"
    "from ffmedian.cli import SimilarityGraph, parse_genome_file\n"
    "parse_genome_file(sys.argv[1])\n"
    "SimilarityGraph.read(sys.argv[2])\n"
)


def pick_instances(name: str, seed: int, count: int, costs: dict[str, float]) -> list[int]:
    """Pool indices of the instances a run solves; fixed by name and seed.

    The pool, sorted by cost, is cut into `count` strata of near-equal size,
    and one instance is drawn from each.
    """
    order = sorted(range(POOL), key=lambda i: (costs[str(i)], i))
    rng = random.Random(f"{name}:{seed}")
    return sorted(rng.choice(order[k * POOL // count:(k + 1) * POOL // count])
                  for k in range(count))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


@dataclass
class Child:
    code: int | None  # None when killed by the timeout
    wall_s: float
    maxrss_mb: float


def spawn(argv: list[str], timeout: float, stderr_path: Path) -> Child:
    """Run one child to completion; wall time from spawn to exit."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            killed = not ready
            if killed:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(None if killed else proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6)


def solve_argv(files: dict[str, str], out: Path, trace_out: Path | None) -> list[str]:
    args = ["solve", "-g", files["genomes"], "-s", files["similarity"],
            "--canonical", "-o", str(out)]
    if trace_out is None:
        return [sys.executable, "-m", "ffmedian.cli", *args]
    return [sys.executable, str(HERE / "tracing.py"), str(trace_out), *args]


def setup_probe(files: dict[str, str], work: Path) -> float:
    """Wall time of a child that imports the CLI and parses the inputs."""
    argv = [sys.executable, "-c", SETUP_CODE, files["genomes"], files["similarity"]]
    child = spawn(argv, SOLVE_TIMEOUT, work / "setup.err")
    if child.code != 0:
        raise RuntimeError(f"set-up probe failed:\n{(work / 'setup.err').read_text()}")
    return child.wall_s


# Fixed dict, tuple, numpy and LP work, like the solver's mix of an
# interpreter loop over dicts, sets of tuples, numpy sorts and HiGHS LPs; it
# uses no ffmedian code, so it measures the machine's speed at the moment,
# the same on every commit.  It prints its wall time for each input line.
YARDSTICK_CODE = """
import sys, time
import numpy as np
from scipy.optimize import linprog
rng = np.random.default_rng(0)
cost, rows = -rng.random(400), rng.random((300, 400))
for _ in sys.stdin:
    start = time.perf_counter()
    table = {}
    for k in range(300_000):
        table[k % 5003] = table.get(k % 5003, 0) + k * k % 7
    triples = {(k % 997, k * 7 % 1009, k % 13) for k in range(40_000)}
    by_first = {}
    for a, b, c in sorted(triples):
        by_first.setdefault(a, []).append((b, c))
    grid = np.arange(1_000_000, dtype=np.int64).reshape(1000, 1000) % 977
    for _ in range(12):
        grid = np.sort(grid, axis=0) ^ grid.T
    linprog(cost, A_ub=rows, b_ub=rows.sum(axis=1), bounds=(0, 1), method="highs")
    print(time.perf_counter() - start, flush=True)
"""


class Yardstick:
    """A helper process that runs YARDSTICK_CODE once per `time()` call.

    The work runs in its own process so that its memory stays out of the
    parent, whose peak RSS the kernel would add to every solve child's
    ru_maxrss.  The helper ends when its stdin closes.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-c", YARDSTICK_CODE],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.time()  # untimed warm-up
        except BaseException:
            self.close()
            raise

    def time(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"yardstick exited with {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Gate:
    """Outcome bookkeeping for every solve of a run."""

    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    first_bytes: dict[int, bytes] = field(default_factory=dict)

    def check(self, inst: int, child: Child, out: Path, reference: float) -> bool:
        """Record one solve; True when it passed."""
        self.attempted += 1
        reason = None
        if child.code is None:
            reason = "killed by the outer timeout"
        elif child.code != 0:
            reason = f"exit code {child.code}"
        else:
            try:
                payload = out.read_bytes()
                report = json.loads(payload)
            except (OSError, ValueError) as exc:
                payload, report = b"", {"status": f"unreadable report ({exc})"}
            if report.get("status") != "optimal":
                reason = f"status {report.get('status')}"
            elif not math.isclose(report["objective"], reference, rel_tol=1e-9, abs_tol=1e-6):
                reason = f"objective {report['objective']!r} != reference {reference!r}"
                self.wrong.append(f"instance {inst}: {reason}")
            elif self.first_bytes.setdefault(inst, payload) != payload:
                reason = "report bytes differ from the first solve"
                self.wrong.append(f"instance {inst}: {reason}")
        if reason is not None:
            self.failed += 1
            print(f"solve of instance {inst} failed: {reason}", file=sys.stderr)
        return reason is None


def ortholog_scores(reports: dict[int, Path], truth: dict[int, str]) -> tuple[float, float]:
    """Mean pairwise precision and recall from `ffmedian eval --truth`."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from ffmedian import cli

    precision, recall = [], []
    for inst, path in sorted(reports.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["eval", "--pred", str(path), "--truth", truth[inst]])
        if code != 0:
            raise RuntimeError(f"ffmedian eval failed on instance {inst}")
        scores = json.loads(buf.getvalue())
        precision.append(scores["precision"])
        recall.append(scores["recall"])
    return statistics.fmean(precision), statistics.fmean(recall)


def interquartile_mean(values: list[float]) -> float:
    """Mean of the values left after dropping the lowest and highest quarter."""
    cut = len(values) // 4
    return statistics.fmean(sorted(values)[cut:len(values) - cut])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def layer_metrics(traces: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as means per traced solve."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    pipeline_s = 0.0
    for trace in traces:
        totals, n_calls = self_times(trace["spans"])
        for name, value in totals.items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in n_calls.items():
            calls[name] = calls.get(name, 0) + value
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        pipeline_s += sum(e - s for n, s, e, _ in trace["spans"] if n == "cli.pipeline")
    k = len(traces)
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        # the self time of run_pipeline is the report assembly around the layers
        metric = "cli.report_s" if name == "cli.pipeline" else f"{name}_s"
        out[metric] = (self_s.get(name, 0.0) / k, "s")
    out["cli.pipeline_s"] = (pipeline_s / k, "s")
    for name in ("genomes.sigma_pairs", "candidates.removed_genes",
                 "candidates.candidates", "candidates.telomere_triples",
                 "candidates.rows", "kernels.triangles_out", "kernels.pairs_out",
                 "segments.accepted", "solver.nodes", "solver.rows_in"):
        out[name] = (counters.get(name, 0) / k, "count")
    out["kernels.input_mb"] = (counters.get("kernels.input_mb", 0.0) / k, "MB")
    for metric, span in (("candidates.index_builds", "candidates.index"),
                         ("segments.detect_runs_calls", "segments.detect_runs"),
                         ("segments.gamma_prime_calls", "segments.gamma_prime"),
                         ("solver.bb_calls", "solver.bb"),
                         ("solver.lp_solves", "solver.lp")):
        out[metric] = (calls.get(span, 0) / k, "count")
    attempts = calls.get("segments.gamma_prime", 0)
    out["segments.accept_ratio"] = (
        counters.get("segments.accepted", 0) / attempts if attempts else 0.0, "ratio")
    rows = counters.get("segments.rows_total", 0)
    out["segments.rows_fixed_share"] = (
        counters.get("segments.rows_fixed", 0) / rows if rows else 0.0, "ratio")
    return out


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
            references: dict[str, float], costs: dict[str, float], work: Path) -> dict:
    """Generate, set up, run the solves through the gate; return the result."""
    started = time.perf_counter()
    picked = pick_instances(name, seed, workload.instances, costs)
    files = {i: write_instance(workload.params, i, str(work / f"i{i}")) for i in picked}

    # an untimed probe first writes the bytecode caches and warms the page
    # cache; the timed set-up probes run before evenly spaced solves of the
    # first pass, so that their median sees the same drift in machine speed
    # as the solves
    setup_probe(files[picked[0]], work)
    probe_before = set() if trace else {k * len(picked) // SETUPS for k in range(SETUPS)}
    setup = []
    gate = Gate()
    walls: list[float] = []
    yards: list[float] = []
    rss: list[float] = []
    traces: list[dict] = []
    overhead: list[float] = []
    first_report: dict[int, Path] = {}
    yardstick = None if trace else Yardstick()
    try:
        loop_start = time.perf_counter()
        last_step = 0.0
        step = 0
        while step < len(picked) or time.perf_counter() - loop_start + last_step <= seconds:
            step_start = time.perf_counter()
            i = picked[step % len(picked)]
            if step in probe_before:
                setup.append(setup_probe(files[i], work))
            if not trace:
                yards.append(yardstick.time())
            out = work / f"median_{step}.json"
            timeout = min(SOLVE_TIMEOUT, RUN_DEADLINE - (time.perf_counter() - started))
            child = spawn(solve_argv(files[i], out, None), timeout, work / "solve.err")
            walls.append(child.wall_s)
            rss.append(child.maxrss_mb)
            if gate.check(i, child, out, references[str(i)]):
                first_report.setdefault(i, out)
            if trace:
                traced_out = work / f"traced_{step}.json"
                trace_path = work / f"trace_{step}.json"
                timeout = min(SOLVE_TIMEOUT, RUN_DEADLINE - (time.perf_counter() - started))
                traced = spawn(solve_argv(files[i], traced_out, trace_path), timeout,
                               work / "traced.err")
                if gate.check(i, traced, traced_out, references[str(i)]):
                    traces.append(json.loads(trace_path.read_text()))
                    overhead.append(traced.wall_s - child.wall_s)
            step += 1
            last_step = time.perf_counter() - step_start
            if time.perf_counter() - started > RUN_DEADLINE:
                break
    finally:
        if yardstick is not None:
            yardstick.close()

    correct = not gate.wrong and len(first_report) == len(picked)
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        if traces:
            metrics = layer_metrics(traces)
            metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    elif first_report:
        precision, recall = ortholog_scores(
            first_report, {i: files[i]["truth"] for i in picked})
        metrics = {
            "wall_rel": (interquartile_mean(walls) / interquartile_mean(yards), "ratio"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "precision": (precision, "ratio"),
            "recall": (recall, "ratio"),
            "solved_share": ((gate.attempted - gate.failed) / gate.attempted, "ratio"),
        }

    print(f"workload {name}: seed {seed}, instances {picked}, "
          f"{gate.attempted} solves, {gate.failed} failed")
    for label, values in (("solve wall_s", walls), ("yardstick wall_s", yards),
                          ("setup_s", setup),
                          ("solve peak_rss_mb", rss)):
        if not values:
            continue
        q1, q2, q3 = quartiles(values)
        print(f"  {label}: median {q2:.4f}, quartiles {q1:.4f} .. {q3:.4f}, "
              f"interquartile mean {interquartile_mean(values):.4f}, n={len(values)}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")
    for problem in gate.wrong:
        print(f"  INCORRECT {problem}")
    return {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ffmedian" / "cli.py").is_file():
        print(f"error: no ffmedian sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text())[args.workload]
    costs = json.loads(COSTS.read_text())[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result = measure(args.workload, WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace), references, costs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
