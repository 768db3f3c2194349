"""The attention modules stand apart from the dataset modules: numcore,
patterns, cost and kernel import nothing from page, sequence, pipeline, demo
or cli. The other direction is open: the pipeline may use the attention
side."""

import ast
from pathlib import Path

import pytest

import prefix_global

PACKAGE = Path(prefix_global.__file__).resolve().parent
ATTENTION = ("numcore", "patterns", "cost", "kernel")
DATASET = {"page", "sequence", "pipeline", "demo", "cli"}


def package_imports(module: str) -> set:
    """The package modules `module` imports, by relative or absolute name."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from . import x, from .x import y
                base = node.module.split(".") if node.module else []
            elif node.module and node.module.split(".")[0] == "prefix_global":
                base = node.module.split(".")[1:]
            else:
                continue
            # from . import page names a module; from .page import x names its contents
            found.update([base[0]] if base else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("prefix_global."))
    return found


@pytest.mark.parametrize("module", ATTENTION)
def test_attention_module_imports_no_dataset_module(module):
    assert package_imports(module) & DATASET == set()


def test_the_scan_sees_relative_imports():
    # the pipeline does import the dataset side, so a scan that found nothing
    # there would pass the test above vacuously
    assert {"page", "sequence"} <= package_imports("pipeline")
    assert package_imports("kernel") >= {"numcore", "patterns"}
