"""Seeded synthetic three-genome instances for the benchmark.

A shared ancestor of n genes, all forward, evolves independently into the
genomes G, H and I:

1. gene families: each ancestral gene gains one paralogous copy with
   probability `family_rate`; half of the copies land in tandem right after
   the original, half at a random position with a random orientation;
2. round(n * inversion_rate) inversions between two random positions;
3. each gene is lost with probability `loss_rate`;
4. random cuts split the sequence into `chromosomes` linear chromosomes.

Similarities: for each genome pair, every ancestral gene kept in both
genomes links its two copies with a score from U(0.4, 1), and every
paralogous copy links to each member of its family in the other genome with
a score from U(0.4, 1).  On top, round(n * paralog_rate) random pairs of
genes from different families score U(0.2, 0.6).  The true ortholog pairs
are the ancestral genes kept in both genomes of a pair.

The output depends only on the arguments: the same seed writes the same
bytes.  Run `python3 perfbench/gen.py --help` for the command line.
"""
from __future__ import annotations

import argparse
import os
import random
from dataclasses import dataclass

LABELS = ("G", "H", "I")
PAIRS = (("G", "H"), ("G", "I"), ("H", "I"))

GENOMES_FILE = "genomes.txt"
SIMILARITY_FILE = "similarity.tsv"
TRUTH_FILE = "truth.tsv"


@dataclass(frozen=True)
class Params:
    n: int
    chromosomes: int
    inversion_rate: float = 1 / 20
    loss_rate: float = 0.03
    paralog_rate: float = 0.05
    family_rate: float = 0.0


def _evolve(rng: random.Random, names: list[str], p: Params) -> list[list[tuple[str, int]]]:
    """One genome's chromosomes as lists of (gene name, orientation)."""
    order = [(name, 1) for name in names]
    if p.family_rate > 0:
        copies = []
        for name in names:
            if rng.random() < p.family_rate:
                copies.append((f"{name}p", rng.random() < 0.5))
        for copy, tandem in copies:
            if tandem:
                at = order.index((copy[:-1], 1)) + 1
                order.insert(at, (copy, 1))
            else:
                order.insert(rng.randrange(len(order) + 1), (copy, rng.choice((1, -1))))
    for _ in range(round(p.n * p.inversion_rate)):
        a, b = sorted(rng.sample(range(len(order) + 1), 2))
        order[a:b] = [(name, -o) for name, o in reversed(order[a:b])]
    order = [entry for entry in order if rng.random() >= p.loss_rate]
    cuts = sorted(rng.sample(range(1, len(order)), p.chromosomes - 1))
    bounds = [0] + cuts + [len(order)]
    return [order[bounds[k] : bounds[k + 1]] for k in range(p.chromosomes)]


def _family(name: str) -> str:
    return name[:-1] if name.endswith("p") else name


def generate(p: Params, seed: int) -> tuple[str, str, str]:
    """(genome file, similarity TSV, truth pairs TSV) as text."""
    if p.n < 2 or not 1 <= p.chromosomes < p.n // 2:
        raise ValueError(f"bad instance size n={p.n} chromosomes={p.chromosomes}")
    rng = random.Random(seed)
    width = len(str(p.n - 1))
    names = [f"x{k:0{width}d}" for k in range(p.n)]
    genomes = {label: _evolve(rng, names, p) for label in LABELS}

    genome_lines = []
    members: dict[str, dict[str, list[str]]] = {}
    for label in LABELS:
        by_family: dict[str, list[str]] = {}
        for c, chrom in enumerate(genomes[label], start=1):
            tokens = " ".join(("+" if o > 0 else "-") + name for name, o in chrom)
            genome_lines.append(f"{label}\tc{c}\tlinear\t{tokens}")
            for name, _ in chrom:
                by_family.setdefault(_family(name), []).append(name)
        members[label] = by_family

    scores: dict[tuple[str, str], float] = {}
    truth = []
    for a, b in PAIRS:
        fam_a, fam_b = members[a], members[b]
        for fam in names:
            for x in sorted(fam_a.get(fam, ())):
                for y in sorted(fam_b.get(fam, ())):
                    scores[(f"{a}:{x}", f"{b}:{y}")] = rng.uniform(0.4, 1.0)
                    if x == y == fam:
                        truth.append(f"{a}:{x}\t{b}:{y}")
        genes_a = [x for fam in names for x in fam_a.get(fam, ())]
        genes_b = [y for fam in names for y in fam_b.get(fam, ())]
        added = 0
        while added < round(p.n * p.paralog_rate):
            x, y = rng.choice(genes_a), rng.choice(genes_b)
            key = (f"{a}:{x}", f"{b}:{y}")
            if _family(x) == _family(y) or key in scores:
                continue
            scores[key] = rng.uniform(0.2, 0.6)
            added += 1

    similarity = [f"{x}\t{y}\t{v:.6f}" for (x, y), v in scores.items()]
    return (
        "\n".join(genome_lines) + "\n",
        "\n".join(similarity) + "\n",
        "\n".join(truth) + "\n",
    )


def write_instance(p: Params, seed: int, out_dir: str) -> dict[str, str]:
    """Write the three files into `out_dir`; returns their paths by role."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "genomes": os.path.join(out_dir, GENOMES_FILE),
        "similarity": os.path.join(out_dir, SIMILARITY_FILE),
        "truth": os.path.join(out_dir, TRUTH_FILE),
    }
    for role, text in zip(("genomes", "similarity", "truth"), generate(p, seed)):
        with open(paths[role], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, required=True, help="ancestral genes")
    parser.add_argument("--chromosomes", type=int, default=2)
    parser.add_argument("--inversion-rate", type=float, default=Params.inversion_rate)
    parser.add_argument("--loss-rate", type=float, default=Params.loss_rate)
    parser.add_argument("--paralog-rate", type=float, default=Params.paralog_rate)
    parser.add_argument("--family-rate", type=float, default=Params.family_rate)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)
    params = Params(
        n=args.n,
        chromosomes=args.chromosomes,
        inversion_rate=args.inversion_rate,
        loss_rate=args.loss_rate,
        paralog_rate=args.paralog_rate,
        family_rate=args.family_rate,
    )
    for path in write_instance(params, args.seed, args.out).values():
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
