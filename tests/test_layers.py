"""The package's modules form one chain of layers, each importing only below it.

Every relative import is read from the source with ``ast``: at module level,
inside functions, and under ``if TYPE_CHECKING:`` alike, since a type-only
import that points upward is the mark of a cycle avoided by hand.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nilspec"
LAYERS = ("linalg", "lie", "exterior", "spectral", "catalog", "cli")  # lowest first


def _package_imports(path):
    """The package modules that one source file imports, by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            # "from .lie import x" imports lie; "from . import lie" imports the names
            found.update([node.module] if node.module else [alias.name for alias in node.names])
    return found


def test_each_module_imports_only_the_layers_below_it():
    imports = {path.stem: _package_imports(path) for path in SRC.glob("*.py")}
    assert imports.keys() == {*LAYERS, "__init__"}
    assert imports["__init__"] <= set(LAYERS)
    upward = [(name, dep) for i, name in enumerate(LAYERS) for dep in sorted(imports[name])
              if dep not in LAYERS[:i]]
    assert upward == []
