"""The benchmark's bindings to the program still hold.

bench/tracer.py wraps a list of (module, function) pairs and bench/run.py
imports a list of modules; both are read here as source, without importing
or changing the benchmark. A renamed function or module would otherwise
surface only in a traced benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _constant(path: Path, name: str):
    """The literal value assigned to name at the top level of path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path}")


TRACED = _constant(BENCH / "tracer.py", "TRACED")
PROGRAM_MODULES = _constant(BENCH / "run.py", "PROGRAM_MODULES")


def test_the_lists_are_not_empty():
    assert len(TRACED) >= 20 and len(PROGRAM_MODULES) >= 9


@pytest.mark.parametrize("module, function", TRACED, ids=[".".join(p) for p in TRACED])
def test_every_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"clonelab.{module}"), function))


@pytest.mark.parametrize("module", PROGRAM_MODULES)
def test_every_program_module_imports(module):
    importlib.import_module(f"clonelab.{module}")


def test_search_dagger_takes_the_strategy_fourth():
    # The tracer names a search's span after args[3] or the strategy keyword.
    from clonelab.ultralocal import search_dagger

    assert list(inspect.signature(search_dagger).parameters)[3] == "strategy"
