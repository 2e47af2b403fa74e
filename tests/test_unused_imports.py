"""Every name that a module of the package or of the test suite imports is
used in that module.  ``__init__.py`` is skipped: its imports are the
package's public surface."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for p in [*(ROOT / "src" / "toughgraphs").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """``<line>: <name>`` for each imported name the source never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = "import os\nimport a.b\nfrom x import y as z, w\nfrom __future__ import annotations\nw(a)\n"
    assert unused_imports(source) == ["1: os", "3: z"]


def test_no_module_imports_a_name_it_never_uses():
    problems = [
        f"{path.relative_to(ROOT)}:{entry}"
        for path in MODULES
        for entry in unused_imports(path.read_text())
    ]
    assert MODULES
    assert problems == []
