"""Every imported name is used somewhere in its module.

No linter ships with the toolchain, so this scan stands in for the unused
import check: it parses each library, test and demo module and compares the names
its imports bind with the names its code reads. ``__future__`` imports and
the package ``__init__.py`` (its imports are the public re-exports) are out
of scope.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = [
    path for path in sorted((ROOT / "src" / "steadygrid").glob("*.py"))
    + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "demos").glob("*.py"))
    if path.name != "__init__.py"
]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_scan_flags_an_unused_name():
    source = "import os\nfrom math import pi, tau\nimport numpy as np\nprint(pi, np.e)\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
