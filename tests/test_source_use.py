"""No code in `src/noisylab` that only tests call.

Every function, class and method the package defines must be named, as a
whole word, somewhere in the package, `benchmarks/` or `perfbench/` apart
from its own `def` or `class` line. Dunder methods are exempt: Python
calls them.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "noisylab"
USERS = (PACKAGE, ROOT / "benchmarks", ROOT / "perfbench")
WORD = re.compile(r"\w+")


def _definitions():
    """(path, line number, name) of every function, class and method in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                yield path, node.lineno, node.name


def test_every_definition_is_used_outside_tests():
    lines = {path: path.read_text().splitlines()
             for folder in USERS for path in sorted(folder.glob("*.py"))}
    words = Counter(word for text in lines.values() for line in text
                    for word in WORD.findall(line))
    unused = [f"{path.relative_to(ROOT)}:{lineno} {name}"
              for path, lineno, name in _definitions()
              if words[name] == WORD.findall(lines[path][lineno - 1]).count(name)]
    assert not unused, f"defined in src but named only by tests: {unused}"
