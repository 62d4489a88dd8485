"""Every package a test module imports is installed by `pip install -e '.[test]'`.

tests/*.py are read with ast, nothing is imported. An import passes when it
names the standard library, clonelab, a helper module in tests/, or a
package the `test` extra of pyproject.toml lists. A module whose import
fails stops collecting, and a run that carries on past collection errors
would not say so.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
TESTS = sorted((ROOT / "tests").glob("*.py"))


def extra_packages():
    """The top-level import names of the test extra's requirements."""
    extra = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["optional-dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", req)[0].replace("-", "_").lower() for req in extra["test"]}


def imported_packages(path):
    """The top-level names of the absolute imports in a source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_every_test_import_is_stdlib_clonelab_a_helper_or_in_the_test_extra():
    allowed = set(sys.stdlib_module_names) | {"clonelab"} | {p.stem for p in TESTS} | extra_packages()
    missing = {
        (path.name, name)
        for path in TESTS
        for name in imported_packages(path)
        if name not in allowed
    }
    assert not missing, f"imports outside the test extra: {sorted(missing)}"


def test_the_scan_sees_the_third_party_imports():
    # A scan that found no imports would pass the test above vacuously.
    used = {name for path in TESTS for name in imported_packages(path)}
    assert {"clonelab", "itertools", "pytest", "hypothesis"} <= used
