"""Every module of the package uses what it imports, and only the
lattice module reads a lattice's private state.

No linter ships with the project, so these checks read each module's
syntax tree with the standard-library `ast` module.  The import check
skips `__init__.py`, as its imports are the package's re-exports, and
`from __future__`.

`code_lines` is the code-line count that change notes quote; run
`python tests/test_imports.py` to print it per module and in total.
"""

import ast
import io
import tokenize
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


NO_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(path) -> int:
    """The lines of the file at `path` that hold a token other than a
    comment, a line break, an indent or a dedent, outside the module,
    class and function docstrings."""
    source = Path(path).read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
    held = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NO_CODE:
            held.update(range(tok.start[0], tok.end[0] + 1))
    return len(held - docstrings)


SAMPLE = '''"""Module
docstring."""
# a comment

class A:
    """Class docstring."""

    def f(self):  # code before a comment counts
        """Function
        docstring."""
        return (1,
                2)

x = """two
lines"""
"not a docstring"
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # class, def, the two lines of the return and of x, the bare string
    assert code_lines(path) == 7


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


if __name__ == "__main__":
    counts = {p.name: code_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
