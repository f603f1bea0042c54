"""The integer front end: load, preprocess and enumerate on gene ids.

A solve numbers each genome's genes once, at load, builds the similarity
edges once and scans them once for triangles; it builds no `Gene`.  The
property test holds its candidates and table against a plain-Python
reference: triangles from `SimilarityGraph.get` over every gene triple, and
adjacencies from `reference.adjacencies` on `splice_genes` output.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffmedian import candidates, cli, kernels, solver
from ffmedian.genomes import ENDS, Gene, SimilarityGraph, parse_genomes, splice_genes
from ffmedian.reference import adjacencies

from conftest import evolved_instance
from test_cli import write_files

LABELS = "GHI"


def _counting(monkeypatch, module, name, calls):
    wrapped = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("flags", [[], ["--no-preprocess"], ["--icf-seg"]],
                         ids=["default", "no-preprocess", "icf-seg"])
def test_a_solve_indexes_scans_and_verifies_once(tmp_path, monkeypatch, flags):
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    calls: dict[str, int] = {}
    _counting(monkeypatch, candidates, "InstanceIndex", calls)
    _counting(monkeypatch, kernels, "triangles", calls)
    _counting(monkeypatch, cli, "verify_solution", calls)
    _counting(monkeypatch, solver, "verify_solution", calls)
    argv = ["solve", *instance, *flags, "--canonical", "-o", str(tmp_path / "median.json")]
    assert cli.main(argv) == cli.EXIT_OK
    assert calls == {"InstanceIndex": 1, "triangles": 1, "verify_solution": 1}


def test_a_default_solve_builds_no_gene(tmp_path, monkeypatch):
    """Only the arrays carry the instance; the report reads names off them."""
    instance = write_files(tmp_path, *evolved_instance(51, 120, 2, 0.1))
    built = []
    new = Gene.__new__
    monkeypatch.setattr(Gene, "__new__", lambda cls, *a: built.append(a) or new(cls, *a))
    Gene("G", "a")
    assert len(built) == 1  # the patch sees every construction
    argv = ["solve", *instance, "--canonical"]
    code, report = cli.run_pipeline(cli.build_parser(argv).parse_args(argv))
    assert code == cli.EXIT_OK and report["genes"] and len(built) == 1


# -- the property test ----------------------------------------------------------

NAMES = [f"x{k}" for k in range(4)]


@st.composite
def instances(draw):
    """Genome and similarity file texts, and the similarities they mean.

    Each genome holds some of four gene names and a gene of its own, on 1-2
    chromosomes, each linear or circular.  The similarity lines link genes
    of the same name, and some other pairs, and also name genes absent from
    every genome, repeat a pair (reversed, with another value: the last
    value wins) and give a pair 0 (which removes it).
    """
    lines = []
    for label in LABELS:
        names = [name for name in NAMES if draw(st.integers(0, 3))] + [f"own{label}"]
        order = draw(st.permutations(names))
        cut = draw(st.integers(1, len(order))) if len(order) > 1 else len(order)
        for c, piece in enumerate((order[:cut], order[cut:])):
            if piece:
                shape = draw(st.sampled_from(["linear", "circular"]))
                tokens = " ".join(draw(st.sampled_from("+-")) + name for name in piece)
                lines.append(f"{label}\tc{c}\t{shape}\t{tokens}")
    pairs = [((a, x), (b, x)) for x in NAMES for a, b in itertools.combinations(LABELS, 2)]
    pairs += draw(st.lists(st.tuples(
        st.tuples(st.sampled_from("GH"), st.sampled_from(NAMES)),
        st.tuples(st.just("I"), st.sampled_from(NAMES + ["gone"])),
    ), max_size=4))
    expected, sim_lines = {}, []
    for x, y in pairs + draw(st.lists(st.sampled_from(pairs), max_size=4)):
        value = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
        if draw(st.booleans()):
            x, y = y, x
        sim_lines.append(f"{x[0]}:{x[1]}\t{y[0]}:{y[1]}\t{value}")
        key = tuple(sorted((x, y)))
        if value == 0.0:
            expected.pop(key, None)
        else:
            expected[key] = value
    return "\n".join(lines) + "\n", "\n".join(sim_lines) + "\n", expected


def reference_instance(genome_text, sigma, preprocess):
    """Candidates (g, h, i, triple score) and rows {(m1, e1, m2, e2): mask},
    straight from the definitions."""
    G, H, I = parse_genomes(genome_text)
    triples = []
    for g, h, i in itertools.product(*(sorted(x.genes, key=lambda x: x.name) for x in (G, H, I))):
        triple = sigma.get(g, h) * sigma.get(g, i) * sigma.get(h, i)
        if triple > 0:
            triples.append((g, h, i, triple))
    reduced = [G, H, I]
    if preprocess:
        used = {gene for c in triples for gene in c[:3]}
        reduced = [splice_genes(x, {g for g in x.genes if not g.is_telomere and g not in used})
                   for x in reduced]
    # each adjacency as a set of two (gene, end) extremities
    extant = [{frozenset((e.gene, e.end) for e in pair) for pair in adjacencies(x)}
              for x in reduced]
    rows = {}
    for (m1, c1), (m2, c2) in itertools.combinations(enumerate(triples), 2):
        if any(a == b for a, b in zip(c1[:3], c2[:3])):
            continue  # conflicting candidates
        for e1 in ([2] if c1[0].is_telomere else [0, 1]):
            for e2 in ([2] if c2[0].is_telomere else [0, 1]):
                mask = sum(1 << x for x in range(3)
                           if frozenset({(c1[x], ENDS[e1]), (c2[x], ENDS[e2])}) in extant[x])
                if mask:
                    rows[(m1, e1, m2, e2)] = mask
    return triples, rows


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(instances(), st.booleans())
def test_id_front_end_equals_the_plain_python_reference(instance, preprocess):
    genome_text, sim_text, expected = instance
    sigma = SimilarityGraph.parse(sim_text)
    assert len(sigma) == len(expected)
    for (x, y), value in expected.items():
        assert sigma.get(Gene(*x), Gene(*y)) == sigma.get(Gene(*y), Gene(*x)) == value
    triples, rows = reference_instance(genome_text, sigma, preprocess)

    load = lambda: (parse_genomes(genome_text), SimilarityGraph.parse(sim_text))  # noqa: E731
    _, table, removed = cli._front_end(load, preprocess)
    cands = table.candidates
    assert [(c.g, c.h, c.i, c.triple_score) for c in cands] == triples
    assert np.allclose(np.asarray(cands.score) ** 3, cands.triple)
    assert cands.telomeric == [c[0].is_telomere for c in triples]
    assert {table.key(k): int(table.mask[k]) for k in range(len(table))} == rows
    assert [table.key(k) for k in range(len(table))] == sorted(rows)
    if preprocess:
        used = {gene for c in triples for gene in c[:3]}
        assert removed == {
            x.label: sorted(g.name for g in x.genes if not g.is_telomere and g not in used)
            for x in parse_genomes(genome_text)
        }
