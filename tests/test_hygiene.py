"""Source hygiene: every name a module imports is used in that module,
every function and class of the library is used by the library, the demos
or the benchmark, and importing the CLI loads no heavy module it does not
need.

An import nobody uses keeps a deleted or renamed API looking alive, so the
scan covers the library, the tests and the demos.  Names listed in
``__all__`` count as used (they are re-exported), and ``__future__``
imports are directives, not names.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
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


def unreferenced_definitions(library: dict, users: dict) -> list[str]:
    """The "label: qualified name" of every function or class defined in a
    ``library`` source that no source of ``library`` or ``users`` (both map
    a label to source text) references outside the definition itself.  A
    reference is a name, an attribute or an imported name; dunders are
    left out."""
    trees = {label: ast.parse(text) for label, text in {**users, **library}.items()}
    counts = Counter(name for tree in trees.values() for name in referenced_names(tree))
    return [
        f"{label}: {qualname}"
        for label in library
        for qualname, node in definitions(trees[label])
        if counts[node.name] == sum(name == node.name for name in referenced_names(node))
    ]


def referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def definitions(tree, prefix=""):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield prefix + node.name, node
            yield from definitions(node, prefix + node.name + ".")
        else:
            yield from definitions(node, prefix)


def test_dead_code_scanner():
    library = {
        "lib": (
            "def used(): pass\n"
            "def recursive(): return recursive()\n"
            "class Box:\n"
            "    def __init__(self): pass\n"
            "    def size(self): return 0\n"
            "    def unused(self): pass\n"
        )
    }
    users = {"app": "from lib import used\nprint(Box().size())\n"}
    assert unreferenced_definitions(library, users) == [
        "lib: recursive", "lib: Box.unused"
    ]


# Called from outside src/, demos/ and perfbench/: socketserver calls the
# handler's hook, and only the tests run the suites on these two negative
# controls (broken_demo is also served by name).
CALLED_FROM_OUTSIDE = [
    "src/pirlab/protocols/toy.py: broken_span_demo",
    "src/pirlab/protocols/toy.py: broken_privacy_demo",
    "src/pirlab/sim.py: _Handler.handle",
]


def test_no_dead_definitions():
    def sources(top):
        return {
            str(path.relative_to(ROOT)): path.read_text()
            for path in sorted((ROOT / top).rglob("*.py"))
        }

    users = {**sources("demos"), **sources("perfbench")}
    found = unreferenced_definitions(sources("src"), users)
    assert sorted(found) == sorted(CALLED_FROM_OUTSIDE)


# The protocols the benchmark workloads serve, with a desk-size config and
# the one builder module each needs.
SERVED = [
    ("cgks", {"n": 64}, "cube"),
    ("lagrange", {"n": 64, "t": 1, "k": 3, "p": 13}, "curve"),
    ("hermite", {"n": 64, "t": 1, "k": 2, "p": 5}, "curve"),
    ("dvir-gopi", {"m": 6, "n": 3}, "ring"),
    ("gks", {"m": 2, "p": 3, "n": 3}, "ring"),
]
BUILDERS = {"cube", "curve", "mersenne", "ring", "toy"}
# Builders whose schemes need only F_p from the engine: no matching vectors
# and no linear algebra.
LEAN_BUILDERS = {"cube", "curve"}


def test_cli_import_leaves_heavy_modules_unloaded():
    # Every `pirlab serve` process pays for what importing the CLI and
    # building its scheme load.  numpy must stay a lazy import, the client
    # needs no thread pool, a server never runs the verifier, and a server
    # loads the builder module of its own protocol only.  Without bytecode
    # caching each module is compiled at every start, so cgks, lagrange and
    # hermite processes must not load the matching-vector searches or the
    # algebra module either.
    heavy = {"concurrent.futures", "numpy", "pirlab.verify"}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for name, config, needs in SERVED:
        unwanted = heavy | {f"pirlab.protocols.{m}" for m in BUILDERS - {needs}}
        if needs in LEAN_BUILDERS:
            unwanted |= {"pirlab.mv", "pirlab.algebra"}
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


CRYPTO = {"_hashlib", "hashlib", "hmac", "secrets", "ssl"}


def loaded_crypto_modules(code: str) -> str:
    """The crypto modules loaded after running ``code`` in a fresh process,
    as the text of a sorted list."""
    code += f"\nimport sys\nprint(sorted({CRYPTO!r} & set(sys.modules)))\n"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return out.stdout.strip().split("\n")[-1]


def test_digest_free_paths_leave_libcrypto_unloaded():
    # hashlib loads OpenSSL's libcrypto, about 3.6 MB of resident memory.
    # Retrieval in process, the builders, the suites, `verify`, `bench` and
    # the parameter digest, which hashes with CPython's own SHA-256, must
    # never import it.
    code = """
import contextlib, io, sys
import pirlab, pirlab.sim, pirlab.verify
from pirlab import cli, verify
from pirlab.protocols.registry import desk_schemes
from pirlab.protocols.toy import toy_instance
from pirlab.sim import run_inprocess
desk_schemes()
toy = toy_instance()
x = (1, 0)
run_inprocess(toy, x, 1, seed=None)
_, transcript = run_inprocess(toy, x, 1, seed=7)
verify.exhaustive_correctness(toy)
verify.exhaustive_privacy(toy)
verify.span_check_all(toy)
verify.oa_family_check(toy)
verify.comm_audit(toy, transcript)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "toy"]) == 0
    assert cli.main(["bench", "cgks", "--n", "8"]) == 0
    assert cli.main(["params", "cgks", "--n", "8"]) == 0
pirlab.sim.param_digest(toy)
"""
    assert loaded_crypto_modules(code) == "[]"


def test_tcp_retrieval_leaves_libcrypto_unloaded(tmp_path):
    # Servers and clients digest their parameters on every connection.
    code = f"""
from pirlab.protocols.cube import build_cgks
from pirlab.sim import (
    PirServer, ServerNode, client_retrieve, load_database, save_database,
)
scheme = build_cgks(64)
x = tuple(j % 3 % 2 for j in range(64))
save_database({str(tmp_path / "db.bin")!r}, x)
database = load_database({str(tmp_path / "db.bin")!r})
servers = [PirServer(ServerNode(j, scheme, database)).start() for j in (1, 2)]
try:
    bit, _ = client_retrieve([s.endpoint for s in servers], scheme, 5, seed=None)
    assert bit == x[5]
finally:
    for s in servers:
        s.stop()
"""
    assert loaded_crypto_modules(code) == "[]"
