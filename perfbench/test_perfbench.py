"""Tests of the benchmark's own code: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import run
import tracing
from gen import Params, generate, write_instance
from record_references import solve_objective

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = run.Workload(Params(n=40, chromosomes=2, family_rate=0.1), instances=2)
UNIFORM = {str(i): 1.0 for i in range(run.POOL)}


def test_generator_is_deterministic(tmp_path):
    params = Params(n=60, chromosomes=3, family_rate=0.2)
    assert generate(params, 7) == generate(params, 7)
    assert generate(params, 7) != generate(params, 8)
    first = write_instance(params, 7, str(tmp_path / "a"))
    second = write_instance(params, 7, str(tmp_path / "b"))
    for role in ("genomes", "similarity", "truth"):
        assert Path(first[role]).read_bytes() == Path(second[role]).read_bytes()


def test_generator_shapes_the_instance():
    genomes, similarity, truth = generate(Params(n=100, chromosomes=4, family_rate=0.2), 3)
    lines = genomes.splitlines()
    assert [line.split("\t")[0] for line in lines] == ["G"] * 4 + ["H"] * 4 + ["I"] * 4
    assert any("p " in line or line.endswith("p") for line in lines)
    for line in similarity.splitlines():
        x, y, score = line.split("\t")
        assert x.split(":")[0] < y.split(":")[0] and 0.2 <= float(score) <= 1.0
    for line in truth.splitlines():
        x, y = line.split("\t")
        assert x.split(":")[1] == y.split(":")[1]


def test_metric_and_workload_names():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert all(pattern.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)
    references = json.loads(run.REFERENCES.read_text())
    costs = json.loads(run.COSTS.read_text())
    for name in run.WORKLOADS:
        assert sorted(references[name], key=int) == [str(i) for i in range(run.POOL)]
        assert sorted(costs[name], key=int) == [str(i) for i in range(run.POOL)]


def test_picks_one_instance_per_cost_stratum():
    costs = {str(i): float(run.POOL - i) for i in range(run.POOL)}
    picked = run.pick_instances("w", 3, 4, costs)
    assert picked == run.pick_instances("w", 3, 4, costs)
    # the cheapest stratum is instances 30..39, the dearest 0..9
    assert sorted(i // 10 for i in picked) == [0, 1, 2, 3]
    assert any(run.pick_instances("w", seed, 4, costs) != picked for seed in range(4, 8))


def test_self_time_of_nested_and_recursive_calls():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def leaf():
        return "leaf"

    def recurse(depth):
        return traced_leaf() if depth == 0 else traced_recurse(depth - 1)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_recurse = tracer.wrap("recurse", recurse)
    assert tracer.wrap("root", lambda: traced_recurse(2))() == "leaf"
    spans = tracer.as_dict()["spans"]
    # root 0..9 > recurse 1..8 > recurse 2..7 > recurse 3..6 > leaf 4..5
    assert [s[3] for s in spans] == [-1, 0, 1, 2, 3]
    totals, calls = tracing.self_times(spans)
    assert calls == {"root": 1, "recurse": 3, "leaf": 1}
    assert totals == {"root": 2, "recurse": 6, "leaf": 1}
    assert sum(totals.values()) == spans[0][2] - spans[0][1]


def test_self_time_of_siblings():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 3.0, 0], ["b", 4.0, 8.0, 0],
             ["c", 5.0, 6.5, 2]]
    totals, calls = tracing.self_times(spans)
    assert totals == {"a": 4.0, "b": 4.5, "c": 1.5}
    assert calls == {"a": 1, "b": 2, "c": 1}


def test_interquartile_mean_drops_the_outer_quarters():
    assert run.interquartile_mean([3.0, 1.0, 100.0, 2.0, 4.0]) == 3.0
    assert run.interquartile_mean([5.0, 7.0]) == 6.0


@pytest.fixture(scope="module")
def tiny_references(tmp_path_factory):
    work = tmp_path_factory.mktemp("refs")
    refs = {}
    for i in run.pick_instances("tiny", 1, TINY.instances, UNIFORM):
        files = write_instance(TINY.params, i, str(work / str(i)))
        refs[str(i)] = solve_objective(files, work, "--no-icf-seg")[0]
    return refs


def _names(section):
    return sorted(m["name"] for m in BENCHMARK[section])


def test_gate_passes_a_tiny_workload(tmp_path, tiny_references):
    result = run.measure("tiny", TINY, 1, 0.1, False, tiny_references, UNIFORM, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == TINY.instances
    assert sorted(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer(tmp_path, tiny_references):
    result = run.measure("tiny", TINY, 1, 0.1, True, tiny_references, UNIFORM, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * TINY.instances
    metrics = result["metrics"]
    assert sorted(metrics) == _names("per_layer")
    assert metrics["candidates.index_builds"]["value"] == 3
    assert metrics["solver.lp_solves"]["value"] >= 1


def test_gate_counts_a_wrong_objective(tmp_path, tiny_references):
    wrong = {k: v + 1.0 for k, v in tiny_references.items()}
    result = run.measure("tiny", TINY, 1, 0.1, False, wrong, UNIFORM, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == TINY.instances
