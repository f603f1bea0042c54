"""Declared runtime dependencies match what the package imports.

The package's imports are read from its source with `ast`, local imports
and `importlib.util.find_spec` lookups included; the standard library and
relative imports are left out.  Every name a module-level import binds must
be used in its module.  Only `segments.icf_seg` and `reference.export_lp`
build the two instance indexes, `ConflictIndex` and `ExtremityIncidence`.
Every subcommand must then run in a process where networkx cannot be
imported.  No module calls a BLAS routine, which is why
`ffmedian.cli` starts numpy with one OpenBLAS thread.
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
from ffmedian.genomes import write_genome_file

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
    assert imported_packages() == declared_dependencies() == {"numpy", "scipy"}


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


INDEXES = {"ConflictIndex", "ExtremityIncidence"}


def index_builders() -> set[tuple[str, str, str]]:
    """(module, top-level function or Class.method, index) for every call
    that builds one of the instance indexes in the package's source."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            scopes = [(getattr(top, "name", "<module>"), top)]
            if isinstance(top, ast.ClassDef):
                scopes = [(f"{top.name}.{node.name}", node) for node in top.body
                          if isinstance(node, ast.FunctionDef)]
            for name, scope in scopes:
                for node in ast.walk(scope):
                    if isinstance(node, ast.Call):
                        index = dotted_name(node.func).split(".")[-1]
                        if index in INDEXES:
                            found.add((path.stem, name, index))
    return found


def test_each_instance_index_is_built_only_by_icf_seg_and_export_lp():
    # every other reader takes the indexes as arguments
    assert index_builders() == {
        (module, function, index)
        for module, function in (("segments", "icf_seg"), ("reference", "export_lp"))
        for index in INDEXES
    }


BLAS_CALLS = {"dot", "matmul", "inner", "tensordot", "einsum"}


def dotted_name(node) -> str:
    """`np.linalg.norm` for the expression `np.linalg.norm`; '' for others."""
    if isinstance(node, ast.Attribute):
        return f"{dotted_name(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def test_no_module_calls_blas():
    # a BLAS call would want the worker threads that `ffmedian.cli` turns off
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
    # 2 gene triples and 8 telomere triples: within the oracle's cap
    genomes, sigma = identical_genomes(["a", "b"])
    write_genome_file(tmp_path / "genomes.txt", genomes)
    sigma.write(tmp_path / "similarity.tsv")
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
        ["solve", "--engine", "oracle", *instance, "-o", "oracle.json"],
        ["eval", "--pred", "median.json"],
        ["reduce-mis", "--graph", "graph.tsv", "-o", "mis"],
        ["verify-reduction", "mis"],
    ]
    code = (
        "import json, sys\n"
        "sys.modules['networkx'] = None  # any import of networkx raises ImportError\n"
        "from ffmedian import cli\n"
        "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps(codes))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        env=env, cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(runs), proc.stderr
