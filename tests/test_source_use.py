"""No code in `src/noisylab` that only tests call.

Every function, class and method the package defines must be named as an
identifier (a name, an attribute, or an imported name) somewhere in the
package, `benchmarks/` or `perfbench/`. A word inside a string or a
comment is not a use, and a `def` or `class` statement does not name
itself. Dunder methods are exempt: Python calls them. Every field of a
package dataclass must be read as an attribute there too: a field that
code only writes, or only tests read, is dead state.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "noisylab"
USERS = (PACKAGE, ROOT / "benchmarks", ROOT / "perfbench")


def _definitions():
    """(path, line number, name) of every function, class and method in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                yield path, node.lineno, node.name


def _identifiers(tree):
    """Every identifier a module's code names: `x`, the `y` of `x.y`, and each
    part of an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")


def test_every_definition_is_used_outside_tests():
    uses = Counter(name for folder in USERS for path in sorted(folder.glob("*.py"))
                   for name in _identifiers(ast.parse(path.read_text(), str(path))))
    unused = [f"{path.relative_to(ROOT)}:{lineno} {name}"
              for path, lineno, name in _definitions() if not uses[name]]
    assert not unused, f"defined in src but named only by tests: {unused}"


def _dataclass_fields():
    """(path, line number, name) of every field of a `@dataclass` in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(n, ast.Name) and n.id == "dataclass"
                    for d in node.decorator_list for n in ast.walk(d)):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield path, stmt.lineno, stmt.target.id


def test_every_dataclass_field_is_read_outside_tests():
    reads = {node.attr for folder in USERS for path in sorted(folder.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.relative_to(ROOT)}:{lineno} {name}"
              for path, lineno, name in _dataclass_fields() if name not in reads]
    assert not unread, f"dataclass fields that src never reads: {unread}"
