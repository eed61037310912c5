"""Every name a module in src/qzeta imports is used in that module, every
private function, class or method it defines is used somewhere in
src/qzeta, every private module-level name it assigns is read by it or
imported from it, and every name the package exports is imported by
another module or listed in ``EXPORT_REASONS`` with the reason it is public.

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


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names that their own module never reads and no other module imports.

    A name counts as used only when its own module reads it or another
    module imports it from that module by name: a module reading a name of
    the same spelling that it defines itself does not count.
    """
    assigned, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            assigned.extend((module, node.lineno, t.id) for t in targets
                            if isinstance(t, ast.Name) and _is_private(t.id))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.module:
                used.update((node.module.split(".")[-1] + ".py", alias.name) for alias in node.names)
    return [f"{module} line {line}: {name}" for module, line, name in sorted(assigned)
            if (module, name) not in used]


def test_every_private_module_name_is_read():
    sources = {p.name: p.read_text() for p in ALL_MODULES}
    assert _unread_private_names(sources) == []


def test_unread_name_check_flags_a_dead_constant():
    sources = {
        "a.py": "_READ = 1\n_DEAD = 2\n_IMPORTED = 3\n_SHADOWED: int = 4\nprint(_READ)\n",
        "b.py": "from .a import _IMPORTED\n_SHADOWED = 5\n_DEAD = _SHADOWED\n",
    }
    assert _unread_private_names(sources) == [
        "a.py line 2: _DEAD",
        "a.py line 4: _SHADOWED",
        "b.py line 3: _DEAD",
    ]


# Every name qzeta/__init__ exports is imported by another module of
# src/qzeta, or has its reason for being public here, one line each.
EXPORT_REASONS = (
    ("geometric_series", "oracle: 1/(1 - q^a t^b) expanded term by term, against TSeries inversion"),
    ("verify_sexpr_numeric", "oracle: the numeric certificate of a merged summand's closed-form sum"),
    ("sparse_kernel", "documented entry point: the exact kernel of integer or QLaurent rows"),
    ("bounded_partitions", "documented entry point: p(r, j, m) of the Cayley-Sylvester formula"),
    ("gaussian_coeffs", "documented entry point: the coefficient list of the Gaussian polynomial [n choose k]_q"),
    ("character", "documented entry point: the formal character of an sl2 module"),
    ("dimq", "documented entry point: the braided dimension dim_q"),
    ("dimq_prime", "documented entry point: the multiplicative braided dimension dim'_q"),
    ("tensor_decompose", "documented entry point: the Clebsch-Gordan rule for sl2 modules"),
    ("SExpr", "documented entry point: the merged summand that partial_sum sums"),
    ("partial_sum", "documented entry point: closed-form sums of a merged summand over s"),
    ("even_part_zeta_at_pm1", "documented entry point: (zeta_1 + zeta_-1)/2 of V_m for odd m"),
    ("check_braid_relation", "documented entry point: the braid-relation check of a pair of tables"),
    ("symmetrizer_rank", "documented entry point: rank of the braided symmetrizer S_j"),
    ("invariant_dims", "documented entry point: the joint braiding invariants at one degree; crit 13 walks their levels"),
    ("solve_linear", "oracle for the tests' deg-h search of fit_gh; tests/test_linalg.py imports it from qzeta"),
    ("sym_subspace_dims", "documented entry point: the content blocks of the R-matrix symmetric subspace at one j"),
)


def _export_problems(sources: dict[str, str], reasons) -> list[str]:
    """Exports of __init__.py that no other module imports and no reason covers, and reasons covering none."""
    exported = {
        alias.asname or alias.name
        for node in ast.parse(sources["__init__.py"]).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    imported = {
        alias.name
        for module, source in sources.items()
        if module != "__init__.py"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    listed = [name for name, _reason in reasons]
    problems = [f"no reason: {name}" for name in sorted(exported - imported - set(listed))]
    problems += [f"needs no reason: {name}" for name in listed if name not in exported - imported]
    problems += [f"listed twice: {name}" for name in sorted(set(listed)) if listed.count(name) > 1]
    return problems


def test_every_export_is_imported_or_has_a_reason():
    sources = {p.name: p.read_text() for p in ALL_MODULES}
    assert _export_problems(sources, EXPORT_REASONS) == []


def test_export_check_flags_a_dead_export():
    sources = {
        "__init__.py": "from .a import used, dead, kept\nfrom .b import helper\n",
        "a.py": "def used():\n    return 1\ndef dead():\n    return 2\ndef kept():\n    return 3\n",
        "b.py": "from .a import used\ndef helper():\n    return used()\n",
    }
    reasons = (("kept", "oracle"), ("used", "oracle"), ("gone", "oracle"), ("kept", "oracle"))
    assert _export_problems(sources, reasons) == [
        "no reason: dead",
        "no reason: helper",
        "needs no reason: used",
        "needs no reason: gone",
        "listed twice: kept",
    ]
