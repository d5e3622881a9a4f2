"""Import hygiene: no module of the package imports another module's private
name, and no module of the package or the tests imports a name it never reads."""

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


def unused_imports(path):
    """(line, name) of every imported name that the module never reads, nor lists in __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_import_is_read():
    tests = Path(__file__).resolve().parent
    found = [
        f"{path.parent.name}/{path.name}:{line}: {name}"
        for path in [*sorted(PACKAGE.glob("*.py")), *sorted(tests.glob("*.py"))]
        for line, name in unused_imports(path)
    ]
    assert not found
