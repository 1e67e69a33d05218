"""Structural checks on the package source.

Every public module-level function and class of ``nonlinritz``, and every
public member of its classes, has a reader outside the tests, and no
module imports a name it never uses. All are read from the syntax trees
of the source files, so they need no linter.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nonlinritz"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = [*MODULES, *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads(node):
    """The names ``node`` reads, bare and as attributes, with their counts."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_definition_has_a_caller_outside_the_tests():
    # re-exports (imports and __all__ strings) are not uses, and a
    # definition's own body does not count for it
    reads = sum((_reads(_tree(path)) for path in SOURCES), Counter())
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in MODULES for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and reads[node.name] == _reads(node)[node.name]
    ]
    assert not unused, "public definitions only the tests reach: " + ", ".join(unused)


def _attribute_loads(node):
    """The attribute names ``node`` loads, with their counts."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _members(cls):
    """The public methods, properties and non-field attributes of ``cls``.

    An annotated name in a dataclass body is a field, the record's data,
    and is not a member here; in any other class it is a class attribute.
    """
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and not _is_dataclass(cls):
            yield node.target.id, node


def test_every_public_member_has_a_reader_outside_the_tests():
    # a member is read as an attribute; its own body does not count for it
    reads = sum((_attribute_loads(_tree(path)) for path in SOURCES), Counter())
    unused = [
        f"{path.name}:{node.lineno} {cls.name}.{name}"
        for path in MODULES for cls in ast.walk(_tree(path)) if isinstance(cls, ast.ClassDef)
        for name, node in _members(cls)
        if not name.startswith("_") and reads[name] == _attribute_loads(node)[name]
    ]
    assert not unused, "public members only the tests reach: " + ", ".join(unused)


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
