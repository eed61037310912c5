"""The README's "Paper objects" table names only functions that exist.

Every backticked name in the table's Function column must be an attribute
of ``qzeta`` or of one of its modules, so a function that is renamed, moved
out of the package or deleted fails here instead of leaving a dead name in
the README.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import qzeta

README = Path(__file__).resolve().parents[1] / "README.md"


def _function_column_names(text: str) -> list[str]:
    """Backticked names in the Function column of the table under "## Paper objects"."""
    section = text.split("\n## Paper objects\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    names = []
    for row in rows[2:]:                          # past the header and the |---| line
        cells = re.split(r"(?<!\\)\|", row)       # "\|" inside a cell is not a border
        names += re.findall(r"`([^`]+)`", cells[2])
    return names


def test_function_column_parser_reads_only_the_function_cells():
    text = (
        "# x\n\n## Paper objects\n\n| Object | Function | Command |\n|---|---|---|\n"
        "| a `obj` with \\|e\\| | `f`, `g` (through `h`) | `cmd` |\n\n## Running\n\n| `z` | `y` |\n"
    )
    assert _function_column_names(text) == ["f", "g", "h"]


def test_paper_objects_functions_exist():
    modules = [qzeta] + [
        importlib.import_module(f"qzeta.{info.name}")
        for info in pkgutil.iter_modules(qzeta.__path__)
        if info.name != "__main__"
    ]
    names = _function_column_names(README.read_text(encoding="utf-8"))
    assert len(names) > 20
    assert [name for name in names if not any(hasattr(module, name) for module in modules)] == []
