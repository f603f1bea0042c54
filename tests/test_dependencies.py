"""Declared runtime dependencies match what the package imports.

The package's imports are read from its source with `ast`, local imports
and `importlib.util.find_spec` lookups included; the standard library and
relative imports are left out: only scipy remains.  Every name a
module-level import binds must be used in its module.  ICF-SEG and the LP
export each build the id indexes they read, the candidates on each gene
and the rows at each extremity, once per call.  Every subcommand must run
in a process where networkx cannot be imported, and in one where numpy
cannot, and so must the brute-force oracle.  No module calls a BLAS
routine.
"""
import ast
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import ffmedian
from ffmedian.objects import write_genome_file, write_similarity_file

from conftest import identical_genomes

PACKAGE = Path(ffmedian.__file__).parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def imported_packages() -> set[str]:
    """Top-level names of the third-party packages the source imports."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module)
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "find_spec"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                names.add(node.args[0].value)
    top = {name.split(".")[0] for name in names}
    return top - set(sys.stdlib_module_names) - {"ffmedian"}


def declared_dependencies() -> set[str]:
    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in project["dependencies"]}


def test_declared_dependencies_are_the_imported_packages():
    assert imported_packages() == declared_dependencies() == {"scipy"}


def test_every_module_level_import_is_used():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if bound - used:
            unused[path.name] = sorted(bound - used)
    assert unused == {}


def test_icf_seg_and_export_lp_build_each_id_index_once(tmp_path, monkeypatch):
    """Each reads the lists it built at its start, not a fresh one per run
    or row."""
    from ffmedian import reference, segments
    from ffmedian.solver import build_ilp

    from conftest import build_tables, evolved_instance

    genomes, sigma = evolved_instance(51, 60, 2, 0.1)
    _, table = build_tables(genomes, sigma)
    builds = []
    for module, name in ((segments, "candidates_on_genes"), (segments, "extremity_rows"),
                         (reference, "candidates_on_genes"), (reference, "extremity_rows")):
        build = getattr(module, name)

        def counted(*args, build=build, name=name):
            builds.append(name)
            return build(*args)

        monkeypatch.setattr(module, name, counted)
    result = segments.icf_seg(genomes[0], table)
    assert result.accepted and sorted(builds) == ["candidates_on_genes", "extremity_rows"]
    builds.clear()
    reference.export_lp(build_ilp(table), tmp_path / "model.lp")
    assert sorted(builds) == ["candidates_on_genes", "extremity_rows"]


BLAS_CALLS = {"dot", "matmul", "inner", "tensordot", "einsum"}


def dotted_name(node) -> str:
    """`np.linalg.norm` for the expression `np.linalg.norm`; '' for others."""
    if isinstance(node, ast.Attribute):
        return f"{dotted_name(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def test_no_module_calls_blas():
    # the package does its own arithmetic; HiGHS does its own linear algebra
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.MatMult):
                found.append(f"{path.name}: @")
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name.split(".")[-1] in BLAS_CALLS or "linalg" in name.split("."):
                    found.append(f"{path.name}:{node.lineno}: {name}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom):
                    modules = [f"{node.module}.{name}" for name in modules]
                found.extend(f"{path.name}:{node.lineno}: import {module}"
                             for module in modules if "linalg" in module.split("."))
    assert found == []


def test_every_subcommand_runs_without_networkx(tmp_path):
    """And so does the oracle, which no subcommand runs: 2 gene triples and
    8 telomere triples are within its cap."""
    genomes, sigma = identical_genomes(["a", "b"])
    write_genome_file(tmp_path / "genomes.txt", genomes)
    write_similarity_file(tmp_path / "similarity.tsv", sigma)
    hit = "{}\t{}\t90\t100\t1\t0\t1\t100\t1\t100\t1e-30\t200\n"
    (tmp_path / "hits.tsv").write_text(hit.format("G:a", "H:a"))
    (tmp_path / "self.tsv").write_text(hit.format("G:a", "G:a") + hit.format("H:a", "H:a"))
    (tmp_path / "graph.tsv").write_text("a\tb\nb\tc\n")
    instance = ["-g", "genomes.txt", "-s", "similarity.tsv"]
    runs = [
        ["build-graph", "--hits", "hits.tsv", "--self", "self.tsv", "-o", "built.tsv"],
        ["enumerate", *instance, "-o", "candidates.tsv"],
        ["icf-seg", *instance, "-o", "segments.tsv"],
        ["export-lp", *instance, "-o", "model.lp"],
        ["solve", *instance, "-o", "median.json"],
        ["eval", "--pred", "median.json"],
        ["reduce-mis", "--graph", "graph.tsv", "-o", "mis"],
        ["verify-reduction", "mis"],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['networkx'] = None  # any import of networkx raises ImportError\n"
        "from ffmedian import cli\n"
        "from ffmedian.reference import brute_force_median\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "_, table, _ = cli._front_end(cli._read_files(['genomes.txt'], 'similarity.tsv'), True)\n"
        "assert brute_force_median(table).objective > 0\n"
        "print(json.dumps(codes))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(runs), proc.stderr


def test_every_subcommand_runs_without_numpy(tmp_path):
    """No module of the package imports numpy: every subcommand runs, and
    the brute-force oracle, where numpy cannot be imported."""
    genomes, sigma = identical_genomes(["a", "b"])
    write_genome_file(tmp_path / "genomes.txt", genomes)
    write_similarity_file(tmp_path / "similarity.tsv", sigma)
    hit = "{}\t{}\t90\t100\t1\t0\t1\t100\t1\t100\t1e-30\t200\n"
    (tmp_path / "hits.tsv").write_text(hit.format("G:a", "H:a"))
    (tmp_path / "self.tsv").write_text(hit.format("G:a", "G:a") + hit.format("H:a", "H:a"))
    (tmp_path / "graph.tsv").write_text("a\tb\nb\tc\n")
    (tmp_path / "truth.tsv").write_text("G:a\tH:a\n")
    instance = ["-g", "genomes.txt", "-s", "similarity.tsv"]
    runs = [
        ["build-graph", "--hits", "hits.tsv", "--self", "self.tsv", "-o", "built.tsv"],
        ["enumerate", *instance, "-o", "candidates.tsv"],
        ["icf-seg", *instance, "-o", "segments.tsv", "--emit-reduced", "reduced"],
        ["export-lp", *instance, "-o", "model.lp"],
        ["solve", *instance, "-o", "median.json"],
        ["eval", "--pred", "median.json", "--truth", "truth.tsv"],
        ["reduce-mis", "--graph", "graph.tsv", "-o", "mis"],
        ["verify-reduction", "mis"],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['numpy'] = None  # any import of numpy raises ImportError\n"
        "from ffmedian import cli\n"
        "from ffmedian.reference import brute_force_median\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "_, table, _ = cli._front_end(cli._read_files(['genomes.txt'], 'similarity.tsv'), True)\n"
        "assert brute_force_median(table).objective > 0\n"
        "print(json.dumps(codes))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(runs), proc.stderr
