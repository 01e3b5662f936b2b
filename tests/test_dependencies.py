"""Every third-party package ``src/repro`` imports is declared in pyproject.toml.

CI installs the package with ``pip install -e ".[test]"``, so an import that
is missing from ``[project] dependencies`` fails only on a fresh machine.
This test walks the source with :mod:`ast` — module-level and function-local
imports alike — and checks each top-level package name against the
declared requirements.
"""

from __future__ import annotations

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"


def _imported_packages() -> dict[str, str]:
    """Top-level third-party package -> first source file importing it."""
    found: dict[str, str] = {}
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                package = name.split(".")[0]
                if package in sys.stdlib_module_names or package in ("repro", "__future__"):
                    continue
                found.setdefault(package, str(path.relative_to(ROOT)))
    return found


def _declared_packages() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {
        re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0).lower().replace("-", "_")
        for requirement in project["dependencies"]
    }


def test_source_imports_third_party_packages():
    # Guards the walker itself: an empty result would make the check vacuous.
    assert {"numpy", "scipy", "networkx"} <= set(_imported_packages())


def test_every_third_party_import_is_declared():
    declared = _declared_packages()
    missing = {
        package: path for package, path in _imported_packages().items()
        if package.lower() not in declared
    }
    assert not missing, f"imported but not in [project] dependencies: {missing}"

