"""Example programs use the library through its public names only.

``examples/multiway/`` is a whole client package built on the engine's
public hooks; if it needed a private name, that seam belongs in the
library's API, not in a copy beside it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def private_repro_imports(path: Path) -> list[str]:
    """Every ``repro`` import of one file that names a module or an
    object starting with ``_``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [(node.module or "") + "." + alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [
            name
            for name in names
            if name.split(".")[0] == "repro"
            and any(part.startswith("_") for part in name.split("."))
        ]
    return found


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.rglob("*.py")), ids=lambda path: str(path.relative_to(EXAMPLES))
)
def test_no_private_repro_name(path):
    assert private_repro_imports(path) == []


def test_the_check_sees_a_private_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from repro.sql.parser import _Parser, parse_clauses\n"
        "import repro._private\n"
        "from repro import Schema\n"
    )
    assert private_repro_imports(sample) == ["repro.sql.parser._Parser", "repro._private"]
