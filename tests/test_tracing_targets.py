"""The names `perfbench/tracing.py` patches must exist in the package.

The tracer replaces module globals by name; a refactor that renames one of
them would only fail at benchmark time, so the list is checked here.
"""
import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
TARGETS = runpy.run_path(str(TRACING), run_name="perfbench_tracing")["TARGETS"]


@pytest.mark.parametrize("module, attr", [(module, attr) for module, attr, _, _ in TARGETS])
def test_traced_name_exists(module, attr):
    assert hasattr(importlib.import_module(f"ffmedian.{module}"), attr)


def test_cli_exports_the_names_the_setup_probe_imports():
    from ffmedian.cli import SimilarityGraph, parse_genome_file  # noqa: F401
