"""The demos still run against the current API.

Every name a demo imports from pirlab must resolve, checked with an ``ast``
scan of all seven demos, and every demo is run as a subprocess and must
exit 0.  Each finishes in about a second or less; 03 (curve protocols) is
the slowest.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def pirlab_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) for every ``from pirlab... import name``."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "pirlab"
        for alias in node.names
    ]


def test_all_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(path):
    imports = pirlab_imports(path.read_text())
    assert imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_fast_demo_runs(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
