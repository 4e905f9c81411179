"""Every module of src/cavreg other than the package's export list uses each
name it imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "cavreg"


def unused_imports(source: str) -> list[str]:
    """The names a module's imports bind that it never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_unused_import_is_found():
    source = (
        "from __future__ import annotations\nfrom dataclasses import dataclass, field\n"
        "import numpy as np\n\n@dataclass\nclass A:\n    x: np.ndarray\n"
    )
    assert unused_imports(source) == ["field"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
