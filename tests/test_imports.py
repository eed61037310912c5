"""Every name a module in src/qzeta imports is used in that module, and
every private function, class or method it defines is used somewhere in
src/qzeta.

``__init__.py`` is left out of the import check: its imports are the
package's re-exports.  References from tests do not count as uses.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qzeta"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_flags_an_unused_name():
    source = "import os\nfrom math import comb, gcd\nfrom . import x as y\nprint(os.sep, gcd)\n"
    assert _unused_imports(source) == ["line 2: comb", "line 3: y"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Private defs (functions, classes, methods) named nowhere in sources outside their own body."""
    defs, refs = [], []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if _is_private(node.name):
                    defs.append((module, node.lineno, node.end_lineno, node.name))
            elif isinstance(node, ast.Name):
                refs.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((module, node.attr, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                refs.extend((module, alias.name, node.lineno) for alias in node.names)
    return [
        f"{module} line {start}: {name}"
        for module, start, end, name in sorted(defs)
        if not any(
            ref == name and (ref_module != module or not start <= line <= end)
            for ref_module, ref, line in refs
        )
    ]


def test_every_private_definition_is_referenced():
    sources = {p.name: p.read_text() for p in ALL_MODULES}
    assert _unreferenced_private_defs(sources) == []


def test_unreferenced_definition_check_flags_a_dead_helper():
    sources = {
        "a.py": (
            "def _used():\n    return 1\n"
            "def _dead():\n    return _used()\n"
            "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
            "class _Box:\n"
            "    def _method(self):\n        return self._other()\n"
            "    def _other(self):\n        return 0\n"
            "    def __repr__(self):\n        return ''\n"
            "def public():\n    return 2\n"
        ),
        "b.py": "from .a import _Box\nprint(_Box)\n",
    }
    assert _unreferenced_private_defs(sources) == [
        "a.py line 3: _dead",
        "a.py line 5: _recursive",
        "a.py line 8: _method",
    ]
