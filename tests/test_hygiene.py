"""Source hygiene: every name a module imports is used in that module, and
importing the CLI loads no heavy module it does not need.

An import nobody uses keeps a deleted or renamed API looking alive, so the
scan covers the library, the tests and the demos.  Names listed in
``__all__`` count as used (they are re-exported), and ``__future__``
imports are directives, not names.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for every imported name that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported |= {elt.value for elt in node.value.elts}
    # An attribute chain such as pirlab.sim.serve starts at a Name node.
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from json import dumps, loads as parse\n"
        "__all__ = ['dumps']\n"
        "print(sys.argv)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "parse")]


@pytest.mark.parametrize("top", ["src", "tests", "demos"])
def test_no_unused_imports(top):
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert offenders == []


# The protocols the TCP benchmark workloads serve, with a desk-size config
# and the one builder module each needs.
SERVED = [
    ("cgks", {"n": 64}, "cube"),
    ("hermite", {"n": 64, "t": 1, "k": 2, "p": 5}, "curve"),
    ("dvir-gopi", {"m": 6, "n": 3}, "ring"),
    ("gks", {"m": 2, "p": 3, "n": 3}, "ring"),
]
BUILDERS = {"cube", "curve", "mersenne", "ring", "toy"}


def test_cli_import_leaves_heavy_modules_unloaded():
    # Every `pirlab serve` process pays for what importing the CLI and
    # building its scheme load.  numpy must stay a lazy import, the client
    # needs no thread pool, a server never runs the verifier, and a server
    # loads the builder module of its own protocol only.
    heavy = {"concurrent.futures", "numpy", "pirlab.verify"}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, config, needs in SERVED:
        unwanted = heavy | {f"pirlab.protocols.{m}" for m in BUILDERS - {needs}}
        code = (
            "import sys, pirlab.cli; from pirlab.protocols import registry; "
            f"registry.build_named({name!r}, {config!r}); "
            f"print(sorted({unwanted!r} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]", name
