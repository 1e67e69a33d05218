"""Structural checks on the package source.

Every public module-level function and class of ``nonlinritz`` has a
caller outside the tests, and no module imports a name it never uses.
Both are read from the syntax trees of the source files, so they need no
linter.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nonlinritz"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads(node):
    """The names ``node`` reads, bare and as attributes, with their counts."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_definition_has_a_caller_outside_the_tests():
    # re-exports (imports and __all__ strings) are not uses, and a
    # definition's own body does not count for it
    sources = [*MODULES, *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    reads = sum((_reads(_tree(path)) for path in sources), Counter())
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in MODULES for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and reads[node.name] == _reads(node)[node.name]
    ]
    assert not unused, "public definitions only the tests reach: " + ", ".join(unused)


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        used = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "imported and never used: " + ", ".join(unused)
