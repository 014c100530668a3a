"""Every module of the package uses what it imports, and only the
lattice module reads a lattice's private state.

No linter ships with the project, so these checks read each module's
syntax tree with the standard-library `ast` module.  The import check
skips `__init__.py`, as its imports are the package's re-exports, and
`from __future__`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seplat"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from .a import b as c, d\n"
        "os.getcwd(d)\n"
    )
    assert unused_imports(source) == ["json", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# every private slot of `Lattice`: other modules read the member set and
# the meet-irreducible signatures through `Lattice.signatures`, and the
# rest through the public methods
SIGNATURE_ATTRIBUTES = {
    "_index",
    "_covers",
    "_meet_irreducibles",
    "_mi_found",
    "_atom_rows",
    "_sig",
    "_by_sig",
}


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "lattice.py"],
    ids=lambda p: p.name,
)
def test_only_the_lattice_reads_its_signatures(path):
    tree = ast.parse(path.read_text())
    read = [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in SIGNATURE_ATTRIBUTES
    ]
    assert read == []
