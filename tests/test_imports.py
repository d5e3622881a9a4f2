"""Module boundaries: no module of the package imports another module's private name."""

import ast
from pathlib import Path

import loraeh

PACKAGE = Path(loraeh.__file__).resolve().parent


def private_imports(path):
    """(line, module, name) of every underscore name that `from ... import` takes."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name.startswith("_") and alias.name != "__version__":
                    yield node.lineno, node.module, alias.name


def test_no_module_imports_a_private_name():
    found = [
        f"{path.name}:{line}: {name} from {module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, module, name in private_imports(path)
    ]
    assert not found
