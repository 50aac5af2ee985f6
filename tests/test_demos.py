"""The demos still run against the current API.

Every name a demo imports from pirlab must resolve, checked with an ``ast``
scan of all seven demos.  The demos that finish in under a second (01, 04,
05, 06 and 07) are also run as subprocesses and must exit 0.  02 (cube
protocol, about 3 s) and 03 (curve protocols, about 5 s) only get the import
check, to keep the test suite's wall time from growing.
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
FAST_DEMOS = ("01", "04", "05", "06", "07")


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


@pytest.mark.parametrize(
    "path", [p for p in DEMOS if p.name[:2] in FAST_DEMOS], ids=lambda p: p.stem
)
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
