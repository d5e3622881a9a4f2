"""Import hygiene: no module of the package imports another module's private
name, no test file imports a test module or conftest, no module of the
package or the tests imports a name it never reads, and a CLI run loads
scipy only where a chain needs the kernel sum's block sparse matrices."""

import ast
import json
import os
import subprocess
import sys
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


def imported_test_modules(path):
    """(line, module) of every import that takes a test module or conftest."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module]
        else:
            continue
        for module in modules:
            if module.startswith("test_") or module == "conftest":
                yield node.lineno, module


def test_no_test_file_imports_another():
    # shared references live in oracles.py, which holds no tests
    tests = Path(__file__).resolve().parent
    found = [
        f"{path.name}:{line}: {module}"
        for path in sorted(tests.glob("*.py"))
        for line, module in imported_test_modules(path)
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


# Runs in a fresh interpreter: after `import loraeh.cli` and after each CLI run,
# prints the scipy modules loaded so far.
SCIPY_LOADED_PER_STEP = """
import json, sys
def scipy_loaded():
    return sorted(n for n in sys.modules if n == "scipy" or n.startswith("scipy."))
import loraeh.cli
loaded = [scipy_loaded()]
for argv in json.loads(sys.argv[1]):
    assert loraeh.cli.main(argv) == 0, argv
    loaded.append(scipy_loaded())
print(json.dumps(loaded))
"""


def test_a_subcommand_loads_scipy_only_if_it_solves_a_chain(tmp_path):
    # 400 bins is above DENSE_BINS, so every chain takes the Arnoldi solve
    chains = [
        ["steady-state"],
        ["outage-sweep"],
        ["coverage", "--scheme", "ud"],
        ["coverage", "--scheme", "wd"],
        ["act-plan", "--act", "cdc"],
        ["act-plan", "--act", "cve"],
    ]
    slow_mixing = Path(__file__).resolve().parent.parent / "perfbench" / "slow_mixing.ini"
    runs = [
        ["--help"],
        ["capacitor-trace", "--cycles", "5", "--out", str(tmp_path / "trace")],
        ["simulate", "--devices", "5", "--duration", "1e3", "--out", str(tmp_path / "sim")],
        *([*argv, "--bins", "400", "--out", str(tmp_path / str(i))] for i, argv in enumerate(chains)),
        ["outage-sweep", "--bins", "400", "--config", str(slow_mixing), "--out", str(tmp_path / "slow")],
    ]
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_LOADED_PER_STEP, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    *default_config, weibull_half = json.loads(proc.stdout.splitlines()[-1])
    # import, --help, capacitor-trace, simulate and every default-config chain: closed
    # forms, and the uniform and exponential products, need no scipy
    assert default_config == [[]] * (4 + len(chains))
    # the Weibull k = 0.5 chains take the kernel sum's block sparse matrices, and no eigensolver
    assert "scipy.sparse" in weibull_half and "scipy.sparse.linalg" not in weibull_half
